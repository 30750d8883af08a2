"""Command-line interface to the library.

Usage::

    python -m repro list                      # cells and designs
    python -m repro datasheet AND             # transition table for a cell
    python -m repro dot DRO                   # Graphviz source for a cell
    python -m repro simulate Min-Max          # simulate a registry design
    python -m repro simulate Min-Max --vcd out.vcd
    python -m repro yield Min-Max --sigma 1.0 --workers 4   # Monte-Carlo yield
    python -m repro yield Min-Max --stats --stats-json m.json  # + per-cell metrics
    python -m repro verify JTL                # model-check a design
    python -m repro energy Min-Max            # switching-energy estimate
    python -m repro lint "Adder (Sync)"       # static design-rule report
    python -m repro trace Min-Max             # dispatch-level trace + slack
    python -m repro trace Min-Max --stats --provenance max   # + metrics + chain
    python -m repro export Min-Max            # structural JSON
    python -m repro serve --port 8080 --workers 4   # yield-analysis service
    python -m repro explore adder_sync --grid n=1,2,4,8   # design-space sweep

(The table/figure experiments live under ``python -m repro.exp``.)
"""

from __future__ import annotations

import argparse
import json
import sys

from .core.energy import energy_report
from .core.errors import PylseError
from .core.montecarlo import measure_yield
from .core.serialize import circuit_to_json
from .core.statictiming import slack_report
from .core.simulation import Simulation, render_waveforms
from .core.vcd import save_vcd
from .exp.registry import (
    PulseCountPredicate,
    RegistryFactory,
    build_in_fresh_circuit,
    registry,
)
from .lint import (
    ReachBudget,
    Severity,
    compare_with_baseline,
    json_payload,
    lint_circuit,
    lint_designs,
    load_baseline,
    render_text,
    sarif_payload,
    write_baseline,
)
from .lint import max_severity as lint_max_severity
from .mc.check import verify_design
from .obs import Observer
from .sfq import BASIC_CELLS, EXTENSION_CELLS
from .sfq.datasheet import datasheet, machine_to_dot


def _cells():
    return {cell.name: cell for cell in BASIC_CELLS + EXTENSION_CELLS}


def _designs():
    return {entry.name: entry for entry in registry()}


def cmd_list(_args) -> int:
    print("Cells (use with `datasheet` / `dot`):")
    for name in _cells():
        print(f"  {name}")
    print("\nDesigns (use with `simulate` / `verify` / `energy`):")
    for name in _designs():
        print(f"  {name}")
    return 0


def _require(table, name, kind):
    if name not in table:
        print(f"Unknown {kind} {name!r}; try `python -m repro list`.",
              file=sys.stderr)
        return None
    return table[name]


def cmd_datasheet(args) -> int:
    cell = _require(_cells(), args.name, "cell")
    if cell is None:
        return 2
    print(datasheet(cell))
    return 0


def cmd_dot(args) -> int:
    cell = _require(_cells(), args.name, "cell")
    if cell is None:
        return 2
    print(machine_to_dot(cell()._class_machine()), end="")
    return 0


def cmd_simulate(args) -> int:
    entry = _require(_designs(), args.name, "design")
    if entry is None:
        return 2
    circuit = build_in_fresh_circuit(entry)
    sim = Simulation(circuit)
    events = sim.simulate()
    print(render_waveforms(events))
    if args.vcd:
        save_vcd(events, args.vcd, comment=f"repro design {entry.name}")
        print(f"\nwrote {args.vcd}")
    return 0


def cmd_yield(args) -> int:
    entry = _require(_designs(), args.name, "design")
    if entry is None:
        return 2
    factory = RegistryFactory(entry.name)
    baseline = Simulation(factory()).simulate()
    predicate = PulseCountPredicate(baseline)
    collect_stats = args.stats or args.stats_json
    try:
        result = measure_yield(
            factory,
            predicate,
            sigma=args.sigma,
            seeds=range(args.seeds),
            workers=args.workers,
            collect_stats=collect_stats,
            batch=args.batch,
        )
    except PylseError as err:
        print(str(err), file=sys.stderr)
        return 1
    print(f"Monte-Carlo yield for {entry.name}:")
    print(f"  sigma: {result.sigma:g} ps, runs: {result.runs}")
    print(f"  workers: {args.workers}")
    print(f"  passed: {result.passed}  mis-behaved: {result.mis_behaved}  "
          f"violations: {result.violations}")
    print(f"  yield: {result.yield_fraction:.1%}")
    if result.failures:
        preview = ", ".join(
            f"{seed}:{kind}" for seed, kind in list(result.failures.items())[:8]
        )
        more = "..." if len(result.failures) > 8 else ""
        print(f"  failing seeds: {preview}{more}")
    if args.stats:
        # Divergence observability of the vectorized drain. Kept out of
        # the default output so batched and reference runs stay diffable
        # (the CI smoke job relies on that).
        print(f"  batched lanes: {result.batched_lanes}  "
              f"replayed seeds: {len(result.fallback_seeds)}")
        if result.divergence:
            causes = ", ".join(
                f"{cause}: {count}"
                for cause, count in sorted(result.divergence.items())
            )
            print(f"  divergence causes: {causes}")
    if result.stats is not None:
        if args.stats:
            print()
            print(result.stats.render())
        if args.stats_json:
            with open(args.stats_json, "w", encoding="utf-8") as f:
                f.write(result.stats.to_json() + "\n")
            print(f"wrote {args.stats_json}")
    return 0


def cmd_verify(args) -> int:
    entry = _require(_designs(), args.name, "design")
    if entry is None:
        return 2
    circuit = build_in_fresh_circuit(entry)
    report = verify_design(
        circuit, max_states=args.max_states, time_limit=args.time_limit
    )
    print(report.summary())
    for violation in report.result.violations[:10]:
        print(f"  {violation.query}: {violation.automaton}.{violation.location}"
              f" — {violation.detail}")
        if violation.trace:
            print(violation.format_trace())
    return 0 if report.ok else 1


def cmd_energy(args) -> int:
    entry = _require(_designs(), args.name, "design")
    if entry is None:
        return 2
    circuit = build_in_fresh_circuit(entry)
    sim = Simulation(circuit)
    sim.simulate()
    print(energy_report(sim).render())
    return 0


def cmd_lint(args) -> int:
    designs = _designs()
    if args.all:
        names = list(designs)
    elif args.names:
        names = args.names
    else:
        print("specify design name(s) or --all; try `python -m repro list`.",
              file=sys.stderr)
        return 2
    entries = []
    for name in names:
        entry = _require(designs, name, "design")
        if entry is None:
            return 2
        entries.append(entry)
    reports = lint_designs(
        [entry.name for entry in entries],
        workers=args.workers,
        select=args.select,
        ignore=args.ignore,
        tolerance=args.tolerance,
        reach=args.reach,
        reach_budget=ReachBudget(
            max_states=args.reach_states, time_limit=args.reach_time_limit
        ),
        reach_cache_dir=args.cache_dir,
    )
    if args.format == "text":
        text = render_text(reports)
    elif args.format == "json":
        text = json.dumps(json_payload(reports), indent=2)
    else:
        text = json.dumps(sarif_payload(reports), indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.update_baseline:
        if not args.baseline:
            print("--update-baseline requires --baseline FILE", file=sys.stderr)
            return 2
        count = write_baseline(args.baseline, reports)
        print(f"wrote {args.baseline} ({count} accepted finding(s))")
        return 0
    if args.baseline:
        # Baseline mode replaces the severity gate: pre-existing findings
        # (whatever their severity) pass, anything new fails.
        try:
            baseline = load_baseline(args.baseline)
        except FileNotFoundError:
            print(
                f"baseline file {args.baseline!r} not found; create it with "
                f"--update-baseline",
                file=sys.stderr,
            )
            return 2
        comparison = compare_with_baseline(reports, baseline)
        print(comparison.render_text())
        return 0 if comparison.ok else 1
    if args.fail_on == "never":
        return 0
    worst = lint_max_severity(reports)
    return 1 if worst is not None and worst >= Severity.from_name(args.fail_on) else 0


def cmd_trace(args) -> int:
    entry = _require(_designs(), args.name, "design")
    if entry is None:
        return 2
    circuit = build_in_fresh_circuit(entry)
    sim = Simulation(circuit)
    observe = args.stats or args.stats_json or args.provenance is not None
    observer = Observer() if observe else None
    try:
        sim.simulate(record=True, observer=observer)
    except PylseError as err:
        # With an observer attached the message already carries the
        # causal chain of the offending pulse group.
        print(str(err), file=sys.stderr)
        return 1
    print(sim.render_trace(provenance=args.provenance == "trace"))
    print()
    print(slack_report(sim))
    if args.provenance not in (None, "trace"):
        try:
            chain = sim.render_chain(args.provenance)
        except PylseError as err:
            print(str(err), file=sys.stderr)
            return 1
        print()
        print(f"causal chain of last pulse on {args.provenance!r}:")
        print(chain)
    if observer is not None and args.stats:
        print()
        print(observer.metrics.render())
    if observer is not None and args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as f:
            f.write(observer.metrics.to_json() + "\n")
        print(f"wrote {args.stats_json}")
    return 0


def cmd_export(args) -> int:
    entry = _require(_designs(), args.name, "design")
    if entry is None:
        return 2
    circuit = build_in_fresh_circuit(entry)
    try:
        text = circuit_to_json(circuit)
    except PylseError as err:
        print(str(err), file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_explore(args) -> int:
    from .explore.cli import cmd_explore as run_explore

    return run_explore(args)


def cmd_cache(args) -> int:
    from .cache.cli import cmd_cache as run_cache

    return run_cache(args)


def cmd_serve(args) -> int:
    from .serve import run_server

    try:
        server = run_server(
            host=args.host,
            port=args.port,
            quiet=not args.verbose,
            workers=args.workers,
            cache_size=args.cache_size,
            compiled_cache_size=args.compiled_cache_size,
            cache_dir=args.cache_dir,
        )
    except (OSError, PylseError) as err:
        print(f"cannot start server: {err}", file=sys.stderr)
        return 1
    host, port = server.server_address[:2]
    service = server.service
    print(f"serving yield analysis on http://{host}:{port} "
          f"(workers={service.workers}, "
          f"result cache={service.result_cache.capacity}, "
          f"compiled cache={service.compiled_cache.capacity})")
    if service.cache_dir is not None:
        print(f"persistent result cache: {service.cache_dir}")
    print("endpoints: POST /yield /yield_curve /critical_sigma, "
          "GET /healthz /stats — Ctrl-C to stop", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PyLSE reproduction: cells, designs, simulation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list cells and designs")
    p = sub.add_parser("datasheet", help="print a cell's datasheet")
    p.add_argument("name")
    p = sub.add_parser("dot", help="print a cell's Graphviz state diagram")
    p.add_argument("name")
    p = sub.add_parser("simulate", help="simulate a registry design")
    p.add_argument("name")
    p.add_argument("--vcd", help="also write a VCD waveform file")
    p = sub.add_parser("yield", help="Monte-Carlo timing yield for a design")
    p.add_argument("name")
    p.add_argument("--sigma", type=float, default=0.5,
                   help="Gaussian delay noise in ps (default 0.5)")
    p.add_argument("--seeds", type=int, default=50,
                   help="number of Monte-Carlo trials (default 50)")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool workers; 0 = one per CPU (default 1)")
    p.add_argument("--batch", type=int, default=None, metavar="N",
                   help="vectorized-drain lane width: N seeds per batched "
                        "event-loop pass; 0 disables batching (per-seed "
                        "reference drain); default: auto")
    p.add_argument("--stats", action="store_true",
                   help="print per-cell metrics aggregated over all seeds "
                        "and the vectorized-drain divergence report")
    p.add_argument("--stats-json", metavar="FILE",
                   help="write the aggregated metrics as JSON to FILE")
    p = sub.add_parser("verify", help="model-check a registry design")
    p.add_argument("name")
    p.add_argument("--max-states", type=int, default=200_000)
    p.add_argument("--time-limit", type=float, default=120.0)
    p = sub.add_parser("energy", help="switching-energy estimate for a design")
    p.add_argument("name")
    p = sub.add_parser(
        "lint",
        help="static analysis: machine, structural, and timing rules",
    )
    p.add_argument("names", nargs="*", metavar="name",
                   help="registry design(s) to lint")
    p.add_argument("--all", action="store_true",
                   help="lint every registry design")
    p.add_argument("--select", metavar="RULES",
                   help="comma-separated rule IDs/prefixes to enable "
                        "(e.g. PL3 or PL101,PL205); default: all")
    p.add_argument("--ignore", metavar="RULES",
                   help="comma-separated rule IDs/prefixes to disable")
    p.add_argument("--fail-on", choices=["error", "warning", "info", "never"],
                   default="error",
                   help="exit 1 when a finding of at least this severity "
                        "exists (default: error)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text", help="report format (default: text)")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="allowed path-balance skew and minimum acceptable "
                        "timing margin in ps (default 0)")
    p.add_argument("--reach", action="store_true",
                   help="also run the PL4xx zone-based reachability layer "
                        "(dead transitions, races, timing witnesses, stuck "
                        "states) with incremental caching")
    p.add_argument("--reach-states", type=int, default=4000,
                   help="state budget per design for --reach; exceeding it "
                        "reports the analysis as truncated (default 4000)")
    p.add_argument("--reach-time-limit", type=float, default=15.0,
                   help="wall-clock budget in seconds per design for "
                        "--reach (default 15)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist finished --reach analyses in an on-disk "
                        "store (lint namespace), so warm re-lints survive "
                        "process restarts")
    p.add_argument("--workers", type=int, default=1,
                   help="lint designs across a process pool; 0 = one per "
                        "CPU (default 1)")
    p.add_argument("--baseline", metavar="FILE",
                   help="compare findings against a baseline file: exit 0 "
                        "when only known findings fire, 1 on any new one "
                        "(replaces --fail-on)")
    p.add_argument("--update-baseline", action="store_true",
                   help="(re)write --baseline FILE accepting every current "
                        "finding")
    p = sub.add_parser("trace", help="dispatch trace + timing slack")
    p.add_argument("name")
    p.add_argument("--stats", action="store_true",
                   help="print per-cell metrics for the run")
    p.add_argument("--stats-json", metavar="FILE",
                   help="write the run's metrics as JSON to FILE")
    p.add_argument("--provenance", metavar="WIRE",
                   help="print the causal chain of the last pulse on WIRE; "
                        "the literal name 'trace' instead annotates every "
                        "trace line with its fired pulses' chains")
    p = sub.add_parser("export", help="structural JSON for a design")
    p.add_argument("name")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p = sub.add_parser(
        "serve",
        help="HTTP/JSON yield-analysis service with result caching",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port; 0 picks an ephemeral one (default 8080)")
    p.add_argument("--workers", type=int, default=1,
                   help="Monte-Carlo engine workers per request; 0 = one "
                        "per CPU (default 1)")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="LRU capacity of the (hash, sigma, seeds, batch) "
                        "result cache (default 1024)")
    p.add_argument("--compiled-cache-size", type=int, default=128,
                   help="LRU capacity of the compiled-design cache "
                        "(default 128)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persistent on-disk result cache shared with "
                        "`repro explore --cache-dir` (survives restarts; "
                        "manage with `python -m repro cache`)")
    p.add_argument("--verbose", action="store_true",
                   help="log one line per handled request")
    from .cache.cli import add_cache_parser
    from .explore.cli import add_explore_parser

    add_cache_parser(sub)
    add_explore_parser(sub)
    args = parser.parse_args(argv)
    handler = {
        "list": cmd_list,
        "datasheet": cmd_datasheet,
        "dot": cmd_dot,
        "simulate": cmd_simulate,
        "yield": cmd_yield,
        "verify": cmd_verify,
        "energy": cmd_energy,
        "lint": cmd_lint,
        "trace": cmd_trace,
        "export": cmd_export,
        "serve": cmd_serve,
        "explore": cmd_explore,
        "cache": cmd_cache,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        sys.exit(0)
