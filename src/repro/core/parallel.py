"""Parallel Monte-Carlo execution: one seed-sharded path per worker count.

Section 5.2's yield sweeps re-run the same design once per seed; every run
is independent. There is one way to run such a sweep for each worker
count:

* ``workers=1`` elaborates the design once and classifies every seed
  in-process: ``run_batch(Simulation(factory()), ...)`` (see
  :func:`repro.core.batchsim.run_batch`);
* ``workers > 1`` with at least two seeds shards the seed list into
  contiguous chunks and farms them out to the process pool of a
  persistent :class:`YieldEngine`, whose single worker task
  (:func:`_pool_chunk`) runs the very same ``run_batch`` call.

The pool is created lazily on the first parallel run and kept warm across
every later ``measure_yield`` / ``yield_curve`` / ``critical_sigma`` call
on the same engine (the module-level :func:`default_engine` cache, keyed
by worker count, makes this automatic). The pickled ``(factory,
predicate)`` task travels with each chunk, and a worker re-elaborates only
when those bytes differ from its previous chunk's, so a sweep re-uses one
elaborated circuit per worker and a change of design never re-forks the
pool.

Robustness: a worker crash (``BrokenProcessPool``) triggers a loud
warning, one retry on a fresh pool, and — if that also fails — graceful
degradation to the in-process path for the remaining chunks (and for
subsequent calls on the same engine).

Determinism contract: chunks are contiguous slices of the caller's seed
list and results are merged back in chunk order, so the outcome sequence —
and therefore every :class:`~repro.core.montecarlo.YieldResult` field,
including the insertion order of the ``failures`` dict — is bit-identical
to running the same seed list in-process, on every path (warm pool, cold
pool, crash degradation). :func:`classify_seed`, one fresh circuit per
seed, stays the definitional reference the tests compare against.

Process pools pickle their tasks, so ``factory`` and ``predicate`` must be
module-level callables (or otherwise picklable objects); lambdas and
closures are rejected up front with a clear error instead of a mid-pool
traceback.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .batchsim import (
    MIS_BEHAVED,
    OK,
    VIOLATION,
    BatchReport,
    run_batch,
)
from .errors import PylseError, SimulationError
from .simulation import Events, Simulation

if TYPE_CHECKING:  # layering: core never imports repro.obs at runtime
    from ..obs.metrics import SimMetrics

#: Pool chunks per worker: a few chunks each keep both workers busy to the
#: end of a sweep when per-seed cost varies, at little dispatch cost.
CHUNKS_PER_WORKER = 4


def classify_seed(
    factory: Callable[[], object],
    predicate: Callable[[Events], bool],
    sigma: float,
    seed: int,
) -> str:
    """One Monte-Carlo trial: build, simulate under noise, judge.

    The fresh-circuit-per-seed reference: every Monte-Carlo path must
    produce, seed for seed, the outcome this function returns.
    """
    circuit = factory()
    try:
        events = Simulation(circuit).simulate(
            variability={"stddev": sigma}, seed=seed
        )
    except SimulationError:
        return VIOLATION
    return OK if predicate(events) else MIS_BEHAVED


def merge_stats(stats: Sequence["SimMetrics"]) -> Optional["SimMetrics"]:
    """Fold per-run metrics left-to-right into a fresh aggregate (or None).

    Every Monte-Carlo path aggregates through this helper, in seed order,
    which is what makes parallel stats bit-identical to sequential ones.
    The fold starts from a zeroed accumulator
    (:meth:`repro.obs.metrics.SimMetrics.fold`) so the caller's per-seed
    metrics objects are never mutated — important now that engine workers
    may be asked to re-ship metrics on a chunk retry.
    """
    items = list(stats)
    if not items:
        return None
    # Dispatch through the instance's class: core stays free of runtime
    # imports of repro.obs (layering), yet the fold lives with SimMetrics.
    return type(items[0]).fold(items)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers=`` argument to a concrete positive count.

    ``None`` or ``0`` means "one per available CPU"; negative counts and
    booleans are rejected (``True`` would otherwise pass the ``int`` check
    and ``False`` would silently mean "one per CPU").
    """
    if isinstance(workers, bool):
        raise PylseError(
            f"workers must be a non-negative integer or None, got {workers!r} "
            "(a bool); use workers=0 or workers=None for one per CPU"
        )
    if workers is None or workers == 0:
        return available_cpus()
    if not isinstance(workers, int) or workers < 0:
        raise PylseError(
            f"workers must be a non-negative integer or None, got {workers!r}"
        )
    return workers


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without affinity support
        return max(1, os.cpu_count() or 1)


def chunk_seeds(seeds: Sequence[int], chunks: int) -> List[Sequence[int]]:
    """Split ``seeds`` into at most ``chunks`` contiguous, near-equal slices.

    Contiguity is what keeps the merged outcome order identical to the
    sequential backend's.
    """
    if chunks < 1:
        raise PylseError(f"chunk count must be >= 1, got {chunks}")
    n = len(seeds)
    chunks = min(chunks, n) or 1
    size, extra = divmod(n, chunks)
    out: List[Sequence[int]] = []
    start = 0
    for index in range(chunks):
        stop = start + size + (1 if index < extra else 0)
        out.append(seeds[start:stop])
        start = stop
    return out


def _pickled_task(factory, predicate) -> bytes:
    """The pool task bytes, or a clear error when they cannot be pickled."""
    try:
        return pickle.dumps((factory, predicate))
    except Exception as err:
        raise PylseError(
            "Parallel Monte-Carlo needs a picklable factory and predicate "
            "(module-level functions, not lambdas or closures) so they can "
            f"be shipped to worker processes; pickling failed with: {err}"
        ) from None


def _check_chunk(
    index: int,
    seeds_chunk: Sequence[int],
    got: int,
    what: str = "outcomes",
) -> None:
    """Refuse short (or long) chunk results instead of mis-attributing them.

    ``zip(seeds, outcomes)`` would silently drop the tail of whichever
    side is shorter, shifting every later outcome onto the wrong seed;
    this names the offending chunk so the failure is diagnosable.
    """
    expected = len(seeds_chunk)
    if got != expected:
        raise PylseError(
            f"parallel Monte-Carlo chunk {index} (seeds "
            f"{seeds_chunk[0]}..{seeds_chunk[-1]}, {expected} seeds) "
            f"returned {got} {what}; refusing to mis-attribute results "
            "to seeds — this indicates a worker bug or truncated result"
        )


# ----------------------------------------------------------------------
# The persistent YieldEngine
# ----------------------------------------------------------------------

#: Per-worker-process cache: ``(task bytes, Simulation, predicate)`` of the
#: most recent chunk's task.
_WORKER_TASK: Optional[tuple] = None


def _pool_chunk(
    task: bytes,
    sigma: float,
    seeds: Sequence[int],
    collect_stats: bool,
    batch: Union[int, str, None],
) -> Tuple[List[str], List["SimMetrics"], BatchReport]:
    """The pool's worker task: the in-process ``run_batch`` call on a
    worker-cached design.

    The design is elaborated only when ``task`` differs from the previous
    chunk's; otherwise the worker's ``Simulation`` is re-run, which
    ``run_batch`` resets between seeds — bit-identical to a fresh
    ``factory()`` per seed (``tests/test_determinism.py``).
    """
    global _WORKER_TASK
    if _WORKER_TASK is None or _WORKER_TASK[0] != task:
        factory, predicate = pickle.loads(task)
        _WORKER_TASK = (task, Simulation(factory()), predicate)
    _, sim, predicate = _WORKER_TASK
    return run_batch(
        sim, predicate, sigma, seeds, collect_stats=collect_stats, batch=batch
    )


class YieldEngine:
    """A persistent, reusable parallel Monte-Carlo backend.

    One process pool, created lazily on the first parallel run and kept
    warm for every later call, whatever its task. Use as a context
    manager, or rely on the module-level :func:`default_engine` cache —
    ``measure_yield(..., workers=N)`` does the latter automatically::

        with YieldEngine(workers=4) as engine:
            for sigma in sigmas:
                measure_yield(factory, ok, sigma, seeds, engine=engine)

    Runs of at least two seeds on an engine with ``workers > 1`` always use
    the pool; anything else runs in-process.

    Concurrent :meth:`run` calls from different threads serialize on an
    internal lock (one pool, one in-flight sweep at a time), so a single
    engine — in particular the :func:`default_engine` cache — can safely
    be shared by the request-handler threads of :mod:`repro.serve`. The
    observability counters (``last_backend``, ``last_report``) describe
    the most recently *completed* run.

    Counters for observability and tests: ``pools_created``,
    ``fallbacks`` (crash degradations), ``last_backend`` (``"serial"`` /
    ``"pool"`` / ``"degraded"`` for the most recent run), and
    ``last_report`` (the merged :class:`~repro.core.batchsim.BatchReport`
    of the most recent run — batched lane count, replayed seeds, and
    per-cause divergence tallies).
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)
        self.pools_created = 0
        self.fallbacks = 0
        self.last_backend: Optional[str] = None
        self.last_report = BatchReport()
        self.parallel_disabled = False
        self.closed = False
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Serializes run() across threads: the pool and the last_*
        #: observability fields are single-sweep state.
        self._run_lock = threading.RLock()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "YieldEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down and mark the engine unusable.

        Takes the run lock, so a close racing a sweep on another thread
        waits for the sweep to finish instead of killing its pool.
        """
        with self._run_lock:
            self._shutdown_pool()
            self.closed = True

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self.pools_created += 1
        return self._pool

    # -- the run entry point -------------------------------------------
    def run(
        self,
        factory: Callable[[], object],
        predicate: Callable[[Events], bool],
        sigma: float,
        seeds: Sequence[int],
        collect_stats: bool = False,
        batch: Union[int, str, None] = None,
    ) -> Tuple[List[str], Optional["SimMetrics"]]:
        """Classify every seed; returns ``(outcomes, merged_stats_or_None)``.

        ``batch`` is the batched-drain lane width (``None``/``"auto"``
        picks it, ``0`` disables batching); the run's merged
        :class:`~repro.core.batchsim.BatchReport` lands on
        ``self.last_report``.
        """
        with self._run_lock:
            if self.closed:
                raise PylseError("YieldEngine is closed; create a new one")
            seeds = list(seeds)
            self.last_report = BatchReport()
            if not seeds:
                return [], None
            if self.workers <= 1 or len(seeds) < 2 or self.parallel_disabled:
                self.last_backend = "serial"
                outcomes, per_seed, self.last_report = run_batch(
                    Simulation(factory()), predicate, sigma, seeds,
                    collect_stats=collect_stats, batch=batch,
                )
                return outcomes, merge_stats(per_seed)
            task = _pickled_task(factory, predicate)
            return self._run_pool(
                factory, predicate, task, sigma, seeds, collect_stats, batch
            )

    def _run_pool(
        self,
        factory,
        predicate,
        task: bytes,
        sigma: float,
        seeds: List[int],
        collect_stats: bool,
        batch: Union[int, str, None],
    ) -> Tuple[List[str], Optional["SimMetrics"]]:
        """Pool execution with per-chunk retry-once and crash degradation."""
        self.last_backend = "pool"
        outcomes: List[str] = []
        per_seed: List["SimMetrics"] = []
        chunks = chunk_seeds(seeds, self.workers * CHUNKS_PER_WORKER)
        retried = False
        index = 0
        futures: List = []
        need_submit = True  # (re)submit chunks[index:] before reading results
        while index < len(chunks):
            chunk = chunks[index]
            try:
                # A broken pool surfaces either at submit time (workers
                # already dead) or at result time, so both live under the
                # same failure handling.
                if need_submit:
                    pool = self._ensure_pool()
                    futures[index:] = [
                        pool.submit(
                            _pool_chunk, task, sigma, c, collect_stats, batch
                        )
                        for c in chunks[index:]
                    ]
                    need_submit = False
                chunk_outcomes, chunk_stats, chunk_report = (
                    futures[index].result()
                )
            except (BrokenProcessPool, OSError, pickle.PicklingError) as err:
                self._shutdown_pool()
                if not retried:
                    retried = True
                    need_submit = True
                    warnings.warn(
                        f"parallel Monte-Carlo worker failure on chunk "
                        f"{index} (seeds {chunk[0]}..{chunk[-1]}): {err!r}; "
                        "retrying once on a fresh pool",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    continue
                # Retry also failed: degrade to the in-process path for
                # this and every remaining chunk, and stop trying to
                # parallelize on this engine (the task evidently kills
                # workers; thrashing pools would be worse than serial).
                warnings.warn(
                    f"parallel Monte-Carlo worker failure persisted after "
                    f"retry ({err!r}); degrading to the in-process path "
                    f"for the remaining {len(chunks) - index} chunk(s) and "
                    "disabling the pool on this engine",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self.fallbacks += 1
                self.parallel_disabled = True
                self.last_backend = "degraded"
                tail = [seed for c in chunks[index:] for seed in c]
                tail_outcomes, tail_stats, tail_report = run_batch(
                    Simulation(factory()), predicate, sigma, tail,
                    collect_stats=collect_stats, batch=batch,
                )
                outcomes.extend(tail_outcomes)
                per_seed.extend(tail_stats)
                self.last_report.merge(tail_report)
                break
            _check_chunk(index, chunk, len(chunk_outcomes))
            if collect_stats:
                _check_chunk(index, chunk, len(chunk_stats), what="metrics")
            outcomes.extend(chunk_outcomes)
            per_seed.extend(chunk_stats)
            self.last_report.merge(chunk_report)
            index += 1
        return outcomes, merge_stats(per_seed)


# ----------------------------------------------------------------------
# Module-level default engines, keyed by worker count
# ----------------------------------------------------------------------
_DEFAULT_ENGINES: Dict[int, YieldEngine] = {}


def default_engine(workers: Optional[int] = None) -> YieldEngine:
    """The shared, cached engine for a worker count (created on demand).

    ``measure_yield(..., workers=N)`` routes through this cache, so
    repeated calls — a ``yield_curve`` sweep, every ``critical_sigma``
    bisection iteration — reuse one warm pool instead of spawning a pool
    per call. Engines are shut down at interpreter exit.
    """
    count = resolve_workers(workers)
    engine = _DEFAULT_ENGINES.get(count)
    if engine is None or engine.closed:
        engine = _DEFAULT_ENGINES[count] = YieldEngine(count)
    return engine


def shutdown_default_engines() -> None:
    """Close every cached default engine (used by tests and atexit)."""
    for engine in _DEFAULT_ENGINES.values():
        engine.close()
    _DEFAULT_ENGINES.clear()


atexit.register(shutdown_default_engines)
