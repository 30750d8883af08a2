"""Tests for the repo tools: doc and golden generators stay in sync."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestGeneratedArtifactsInSync:
    def test_cell_docs_match_generator(self, tmp_path):
        """docs/cells.md must match what the generator produces today."""
        from repro.sfq import BASIC_CELLS, EXTENSION_CELLS
        from repro.sfq.datasheet import datasheet

        committed = (ROOT / "docs" / "cells.md").read_text()
        for cell in BASIC_CELLS + EXTENSION_CELLS:
            sheet = datasheet(cell).rstrip()
            assert sheet in committed, f"docs/cells.md stale for {cell.name}"

    def test_dot_files_exist_for_all_cells(self):
        from repro.sfq import BASIC_CELLS, EXTENSION_CELLS

        dot_dir = ROOT / "docs" / "dot"
        for cell in BASIC_CELLS + EXTENSION_CELLS:
            assert (dot_dir / f"{cell.name.lower()}.dot").exists()

    def test_goldens_match_generator_slugs(self):
        from repro.exp.registry import registry
        from tools_shim import golden_slug

        golden_dir = ROOT / "tests" / "goldens"
        for entry in registry():
            path = golden_dir / f"{golden_slug(entry.name)}.json"
            assert path.exists()
            payload = json.loads(path.read_text())
            assert payload["design"] == entry.name

    def test_generators_run_cleanly(self, tmp_path):
        """Both generators execute without error (into the real tree: they
        are idempotent by the tests above)."""
        for tool in ("tools/gen_cell_docs.py", "tools/gen_goldens.py"):
            result = subprocess.run(
                [sys.executable, str(ROOT / tool)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, result.stderr


class TestBenchGuard:
    """tools/bench_guard.py plumbing (without running the benchmarks)."""

    def _load(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_guard", ROOT / "tools" / "bench_guard.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_extract_medians(self, tmp_path):
        guard = self._load()
        raw = tmp_path / "bench.json"
        raw.write_text(json.dumps({
            "benchmarks": [
                {"name": "test_bitonic_scaling[8]", "stats": {"median": 6.5e-4}},
                {"name": "test_mc_yield_workers[1]", "stats": {"median": 0.74}},
            ]
        }))
        medians = guard.extract_medians(raw)
        assert medians["test_bitonic_scaling[8]"] == 6.5e-4
        assert medians["test_mc_yield_workers[1]"] == 0.74

    def test_guarded_benchmark_has_seed_baseline(self):
        guard = self._load()
        assert guard.GUARDED in guard.SEED_MEDIANS_US

    def test_committed_artifact_fresh_and_consistent(self):
        """BENCH_sim.json exists, guards the right bench, and shows the
        required >= 2x improvement over the seed medians."""
        payload = json.loads((ROOT / "BENCH_sim.json").read_text())
        guarded = payload["guarded"]
        assert guarded == "test_bitonic_scaling[8]"
        assert payload["medians_us"][guarded] > 0
        assert payload["speedup_vs_seed"][guarded] >= 2.0

    def test_help_runs(self):
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "bench_guard.py"), "--help"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "regression guard" in result.stdout

    def test_mc_comparison_single_cpu_records_skip(self):
        """Regression: a 1-CPU host used to record pool overhead as a
        'parallel speedup'; now the skip is explicit."""
        guard = self._load()
        block = guard.mc_comparison(
            {"seq": 0.8}, cpus=1, seq_name="seq", par_name="par"
        )
        assert block["parallel_speedup"] == "skipped: 1 CPU"
        assert block["workers1"] == 0.8
        assert block["workers4"] is None

    def test_mc_comparison_multi_cpu_ratio(self):
        guard = self._load()
        block = guard.mc_comparison(
            {"seq": 1.2, "par": 0.4}, cpus=4, seq_name="seq", par_name="par"
        )
        assert block["parallel_speedup"] == 3.0
        assert block["workers1"] == 1.2
        assert block["workers4"] == 0.4

    def test_mc_comparison_missing_parallel_on_multi_cpu(self):
        guard = self._load()
        block = guard.mc_comparison(
            {"seq": 1.2}, cpus=4, seq_name="seq", par_name="par"
        )
        assert block["parallel_speedup"] is None

    def test_mc_comparison_carries_committed_parallel_forward(self):
        """Regression: regenerating on a 1-CPU host used to overwrite the
        committed multi-worker numbers with null / 'skipped: 1 CPU'. A
        real committed workers4 median survives, flagged with a note."""
        guard = self._load()
        committed = {"workers1": 0.9, "workers4": 0.3,
                     "parallel_speedup": 3.0}
        block = guard.mc_comparison(
            {"seq": 0.8}, cpus=1, seq_name="seq", par_name="par",
            committed=committed,
        )
        assert block["workers1"] == 0.8          # fresh sequential number
        assert block["workers4"] == 0.3          # carried forward
        assert block["parallel_speedup"] == 3.0  # carried forward
        assert "carried forward" in block["note"]

    def test_mc_comparison_fresh_parallel_beats_committed(self):
        """A parallel median measured in this run always wins over any
        committed value — carry-forward only fills a gap."""
        guard = self._load()
        block = guard.mc_comparison(
            {"seq": 1.2, "par": 0.4}, cpus=4, seq_name="seq",
            par_name="par", committed={"workers4": 9.9},
        )
        assert block["workers4"] == 0.4
        assert block["parallel_speedup"] == 3.0
        assert "note" not in block

    def test_mc_comparison_no_committed_still_records_skip(self):
        guard = self._load()
        block = guard.mc_comparison(
            {"seq": 0.8}, cpus=1, seq_name="seq", par_name="par",
            committed={"workers4": None, "parallel_speedup": None},
        )
        assert block["parallel_speedup"] == "skipped: 1 CPU"

    def test_mc_batched_block_speedup(self):
        guard = self._load()
        medians = {
            "test_mc_batched[minmax-batched]": 0.002,
            "test_mc_batched[minmax-perseed]": 0.1,
            "test_mc_batched[bitonic8-batched]": 0.09,
            "test_mc_batched[bitonic8-perseed]": 1.53,
        }
        block = guard.mc_batched_block(medians)
        assert block["minmax"]["batched_speedup"] == 50.0
        assert block["bitonic8"]["batched_speedup"] == 17.0
        assert block["minmax"]["batched"] == 0.002

    def test_mc_batched_block_missing_pair(self):
        guard = self._load()
        block = guard.mc_batched_block(
            {"test_mc_batched[minmax-batched]": 0.002}
        )
        assert block["minmax"]["perseed"] is None
        assert block["minmax"]["batched_speedup"] is None

    def test_committed_artifact_mc_block_consistent(self):
        """The committed artifact's MC blocks honour the cpus field: a
        numeric speedup may only appear alongside >= 2 recorded CPUs or
        an explicit carried-forward note."""
        payload = json.loads((ROOT / "BENCH_sim.json").read_text())
        assert payload["cpus"] >= 1
        for key in ("mc_yield_200_seeds_s", "mc_amortized_800_trials_s"):
            speedup = payload[key]["parallel_speedup"]
            if isinstance(speedup, (int, float)):
                assert speedup > 0
                assert payload["cpus"] >= 2 or "note" in payload[key]
            elif payload["cpus"] < 2:
                assert speedup in ("skipped: 1 CPU", None)

    def test_committed_artifact_mc_batched_block(self):
        """The vectorized-drain comparison is recorded and meets the
        guard's floor for every design."""
        guard = self._load()
        payload = json.loads((ROOT / "BENCH_sim.json").read_text())
        block = payload["mc_batched_200_seeds_s"]
        for design, _, _ in guard.MC_BATCHED_PAIRS:
            pair = block[design]
            assert pair["batched"] > 0 and pair["perseed"] > 0
            assert pair["batched_speedup"] >= guard.MC_BATCHED_MIN_SPEEDUP

    def test_committed_artifact_records_the_cliff_pair(self):
        """Bitonic-8 past the yield cliff is recorded beside the gated
        pairs (batched and per-seed medians), without a ratio floor."""
        guard = self._load()
        payload = json.loads((ROOT / "BENCH_sim.json").read_text())
        block = payload["mc_batched_200_seeds_s"]
        for design, _, _ in guard.MC_BATCHED_CLIFF_PAIRS:
            pair = block[design]
            assert pair["batched"] > 0 and pair["perseed"] > 0
            assert pair["batched_speedup"] > 0

    def test_explore_cache_block(self):
        guard = self._load()
        block = guard.explore_cache_block(
            {"test_explore_cold": 0.5, "test_explore_warm": 0.002}
        )
        assert block["cold_s"] == 0.5
        assert block["warm_s"] == 0.002
        assert block["warm_vs_cold"] == 250.0

    def test_explore_cache_block_missing_pair(self):
        guard = self._load()
        block = guard.explore_cache_block({"test_explore_cold": 0.5})
        assert block["warm_s"] is None
        assert block["warm_vs_cold"] is None

    def test_committed_artifact_explore_block(self):
        """The committed artifact records the explorer cache pair and it
        meets the guard's floor."""
        guard = self._load()
        payload = json.loads((ROOT / "BENCH_sim.json").read_text())
        block = payload["explore_cache"]
        assert block["cold_s"] > 0 and block["warm_s"] > 0
        assert block["warm_vs_cold"] >= guard.EXPLORE_MIN_SPEEDUP

    def test_committed_artifact_table2_ratio_nongating(self):
        payload = json.loads((ROOT / "BENCH_sim.json").read_text())
        block = payload["table2_time_ratio"]
        assert block["gating"] is False
        assert block["avg_work_ratio"] > 10
        assert block["per_design"]
