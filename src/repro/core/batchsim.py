"""Vectorized multi-seed Monte-Carlo: the batched structure-of-arrays drain.

Section 5.2's yield sweeps run the same design once per variability seed.
The per-seed drains differ only in the Gaussian noise added to each firing
delay, so instead of N full event-loop passes this module runs **one**
batched pass in which every pending pulse carries a ``float64[N]`` vector
of per-seed timestamps and every delay resolution is one vectorized numpy
draw across all N lanes at once.

The contract is strict: batched results are **element-wise identical** to N
sequential ``simulate()`` calls (outcomes, event times, metrics — bit for
bit; ``tests/test_differential.py`` locks this). Two mechanisms make that
possible:

* **Counter-based noise streams** (:class:`CounterNoise`). Noise is drawn
  from independent per-``(seed, node, kind)`` streams derived via
  ``numpy.random.SeedSequence`` and a splitmix64 counter construction, so
  a draw is addressed by *position within its node's stream*, not by
  global event order. Every seeded ``Simulation.simulate`` call draws the
  very same streams through :class:`ScalarNoise`: the same arithmetic on
  Python ints and floats, one seed at a time. That is what lets a width-N
  batch and a per-seed replay produce the same bits for the same seed.

* **Conformance tracking + replay.** The batch steers control flow along
  the *nominal* (noise-free) schedule. Each lane is checked, group by
  group, against three conformance rules: every pulse merged into a
  simultaneous group must coincide lane-wise (grouping), successive groups
  at a node must stay strictly ordered lane-wise (order), and a zero-delay
  firing pushed to an earlier-keyed node is flagged as a potential
  same-instant reordering (coincidence). Lanes that fail a rule — or that
  take a different priority tie-break than the batch majority, or whose
  timing-constraint checks trip — are masked out of the batch and replayed
  individually on the reference drain. A replay is definitionally exact,
  so a false-positive divergence costs only time, never correctness.

The module is deliberately layered below :mod:`repro.core.simulation` and
:mod:`repro.core.parallel`: it imports neither (the replay ``Simulation``
arrives duck-typed as an argument), and the outcome tokens defined here
are re-exported by ``parallel`` so both spellings stay importable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ._np import np
from .errors import PylseError, SimulationError
from .ir import CompiledCircuit, compile_circuit, dispatch_arrays
from .timing import Normal, Uniform, VariabilitySpec, nominal_delay

#: Outcome tokens, one per seed (re-exported by :mod:`repro.core.parallel`,
#: which historically defined them). ``OK`` counts toward yield.
OK = "ok"
MIS_BEHAVED = "mis-behaved"
VIOLATION = "violation"

#: Default cap on the lane count of one batched drain pass. Wider batches
#: amortize the per-group Python overhead over more seeds, but past a few
#: hundred lanes the vectors stop fitting hot cache lines and divergence
#: replays get batched less usefully; 256 is the measured sweet spot on
#: the registry designs (see docs/performance.md).
DEFAULT_MAX_BATCH = 256

# -- counter-stream constants ------------------------------------------
#: Per-(node, kind) stream kinds: Gaussian draws, uniform draws, and
#: priority tie-breaks each advance an independent position counter.
_NORMAL, _UNIFORM, _TIE = 0, 1, 2

_GOLDEN = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1
_K1 = 0xBF58476D1CE4E5B9
_K2 = 0x94D049BB133111EB
_C1 = np.uint64(_K1)
_C2 = np.uint64(_K2)
_TWO_PI = 2.0 * np.pi

#: Capacity of the seed -> root LRU. A root costs ~13 us to derive, more
#: than a small design's whole batched drain spends per lane, and a yield
#: curve or a served ``/yield_curve``/``/critical_sigma`` request re-runs
#: the same seeds at every sigma. An LRU walked in a cycle longer than
#: its capacity never hits, so the capacity holds one request at the
#: service's ``MAX_SEEDS`` (100k) with room to spare; full, it takes
#: ~26 MB. The bound keeps a long-running service from growing with
#: every distinct seed it is asked about.
_ROOT_CACHE_SIZE = 1 << 17


def _mix64(x: "np.ndarray") -> "np.ndarray":
    """The splitmix64 finalizer over a uint64 array (wrapping multiplies)."""
    x = x ^ (x >> np.uint64(30))
    x = x * _C1
    x = x ^ (x >> np.uint64(27))
    x = x * _C2
    return x ^ (x >> np.uint64(31))


def _mix64_int(x: int) -> int:
    """:func:`_mix64` on one Python int in ``[0, 2**64)``."""
    x ^= x >> 30
    x = (x * _K1) & _M64
    x ^= x >> 27
    x = (x * _K2) & _M64
    return x ^ (x >> 31)


def _u01(bits: "np.ndarray") -> "np.ndarray":
    """Map uint64 bits to doubles in the open interval (0, 1)."""
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


@lru_cache(maxsize=_ROOT_CACHE_SIZE)
def _seed_root(entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _root(seed: Optional[int]) -> int:
    """The 64-bit stream root for one seed (None: fresh entropy)."""
    if seed is None:
        return int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    # SeedSequence entropy must be non-negative; fold negatives in evenly.
    return _seed_root(2 * seed if seed >= 0 else -2 * seed - 1)


#: Names the noise-stream layout: how a (seed, dense node index, kind,
#: position) address becomes a draw, and which draws a run takes. Every
#: seeded result depends on it, so :func:`repro.core.ir.result_cache_key`
#: carries it; change it whenever a seed's draws change, and a persistent
#: result cache stops serving yields computed under the old streams.
STREAM_LAYOUT = "counter-splitmix64-v1"


class CounterNoise:
    """Order-invariant noise streams for N seeds, one lane per seed.

    Each draw is addressed by ``(seed root, node index, kind, position)``
    and computed as two rounds of splitmix64 mixing, so the value of lane
    ``l``'s j-th draw at node ``i`` does not depend on batch width or on
    the order other nodes drew in. All helpers return ``[N]`` arrays; the
    sequential drain draws the same streams one seed at a time through
    :class:`ScalarNoise`, whose every value is bit-identical to lane ``l``
    here — the invariant the batched == sequential property rests on.
    """

    __slots__ = ("n", "_roots", "_keys", "_pos")

    def __init__(self, roots: "np.ndarray"):
        self.n = len(roots)
        self._roots = roots
        self._keys: Dict[Tuple[int, int], "np.ndarray"] = {}
        self._pos: Dict[Tuple[int, int], int] = {}

    @classmethod
    def for_seeds(cls, seeds: Sequence[Optional[int]]) -> "CounterNoise":
        roots = np.empty(len(seeds), dtype=np.uint64)
        for lane, seed in enumerate(seeds):
            roots[lane] = _root(seed)
        return cls(roots)

    # -- raw draws -----------------------------------------------------
    def _stream_key(self, index: int, kind: int) -> "np.ndarray":
        key = self._keys.get((index, kind))
        if key is None:
            salt = np.uint64((_GOLDEN * (3 * index + kind + 1)) & _M64)
            key = self._keys[(index, kind)] = _mix64(self._roots + salt)
        return key

    def _bits(self, index: int, kind: int) -> "np.ndarray":
        """The next uint64 draw of every lane on one (node, kind) stream."""
        key = self._stream_key(index, kind)
        position = self._pos.get((index, kind), 0)
        self._pos[(index, kind)] = position + 1
        return _mix64(key + np.uint64((_GOLDEN * (position + 1)) & _M64))

    def normal(self, index: int) -> "np.ndarray":
        """Standard-normal draw per lane (Box-Muller, two stream steps)."""
        u1 = _u01(self._bits(index, _NORMAL))
        u2 = _u01(self._bits(index, _NORMAL))
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)

    def uniform(self, index: int) -> "np.ndarray":
        """Uniform (0, 1) draw per lane."""
        return _u01(self._bits(index, _UNIFORM))

    def tie(self, index: int, choices: int) -> "np.ndarray":
        """Per-lane pick in ``range(choices)`` for a priority tie-break."""
        return (self._bits(index, _TIE) % np.uint64(choices)).astype(np.int64)

    # -- delay resolution ----------------------------------------------
    def resolve(
        self,
        delay,
        index: int,
        spec: VariabilitySpec,
        applies: bool,
    ) -> Union["np.ndarray", float]:
        """Resolve one firing delay across all lanes.

        Returns a ``float64[N]`` vector when a draw was consumed, or a
        plain float when the delay is a constant the spec does not perturb
        (no draw — callers broadcast). A custom variability callable never
        gets here: the batched drain runs ``{"stddev": sigma}`` specs only.
        """
        if isinstance(delay, Normal):
            return np.maximum(0.0, delay.mean + delay.stddev * self.normal(index))
        if isinstance(delay, Uniform):
            return delay.low + (delay.high - delay.low) * self.uniform(index)
        value = float(delay)
        if not applies:
            return value
        sigma = (
            spec.stddev if spec.stddev is not None else value * spec.fraction
        )
        return np.maximum(0.0, value + sigma * self.normal(index))


class ScalarNoise:
    """The counter streams of one seed, drawn without numpy arrays.

    ``Simulation.simulate`` draws every random value of a run through
    this class: variability noise, ``Normal``/``Uniform`` delays and, for
    a seeded run, priority tie-breaks. Every value equals lane ``l`` of a
    :class:`CounterNoise` built over the same seed, bit for bit, so a
    replayed seed reproduces its batched lane exactly:

    * splitmix64 runs on Python ints masked to 64 bits;
    * ``u01`` is ``((bits >> 11) + 0.5) * 2**-53`` in Python floats — the
      shift leaves 53 bits, so the int-to-float step is exact and the
      rest is the same IEEE arithmetic the arrays do;
    * Box–Muller takes ``np.log``/``np.cos`` of Python floats. The numpy
      ufuncs compute the same value for a scalar as for an array lane;
      ``math.log`` does not (it differs in a few draws per thousand on
      AVX-512 hosts), so it must not be used here;
    * ``max(0, x)`` follows ``np.maximum``: ``-0.0`` and NaN pass through.

    Staying off numpy arrays is the point: a width-1 array draw costs ~10x
    more per resolved delay (~30 vs ~2.8 us), and past the yield cliff
    per-seed replays dominate a sweep. The stream root is derived on the
    first draw (``seed=None`` then takes fresh entropy), so a run that
    draws nothing pays nothing; ``spec.applies_to`` is resolved once per
    node per run.
    """

    __slots__ = ("_seed", "_root", "_spec", "_streams", "_applies")

    def __init__(self, seed: Optional[int], spec: VariabilitySpec):
        self._seed = seed
        self._root: Optional[int] = None
        self._spec = spec
        # stream id 3 * index + kind -> [key, draws taken]
        self._streams: Dict[int, List[int]] = {}
        self._applies: Dict[int, bool] = {}

    def _bits(self, index: int, kind: int) -> int:
        """The next 64-bit draw on one (node, kind) stream."""
        stream_id = 3 * index + kind
        stream = self._streams.get(stream_id)
        if stream is None:
            if self._root is None:
                self._root = _root(self._seed)
            salt = (_GOLDEN * (stream_id + 1)) & _M64
            stream = self._streams[stream_id] = [
                _mix64_int((self._root + salt) & _M64), 0,
            ]
        stream[1] += 1
        return _mix64_int((stream[0] + _GOLDEN * stream[1]) & _M64)

    def normal(self, index: int) -> float:
        """The seed's next standard-normal draw at one node."""
        u1 = ((self._bits(index, _NORMAL) >> 11) + 0.5) * 2.0 ** -53
        u2 = ((self._bits(index, _NORMAL) >> 11) + 0.5) * 2.0 ** -53
        return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2))

    def uniform(self, index: int) -> float:
        """The seed's next uniform (0, 1) draw at one node."""
        return ((self._bits(index, _UNIFORM) >> 11) + 0.5) * 2.0 ** -53

    def tie(self, index: int, choices: int) -> int:
        """The seed's next pick in ``range(choices)`` at one node."""
        return self._bits(index, _TIE) % choices

    def resolve(self, delay, index: int, node) -> float:
        """One firing delay of ``node`` (dense IR ``index``).

        ``Normal``/``Uniform`` delays draw whether or not variability is
        on; a constant draws only where the spec applies. A custom
        variability callable replaces the Gaussian step for constants and
        is clamped at 0.
        """
        if isinstance(delay, Normal):
            value = delay.mean + delay.stddev * self.normal(index)
            return 0.0 if value < 0.0 else value
        if isinstance(delay, Uniform):
            return delay.low + (delay.high - delay.low) * self.uniform(index)
        value = float(delay)
        applies = self._applies.get(index)
        if applies is None:
            applies = self._applies[index] = self._spec.applies_to(
                node.element.name, node.name
            )
        if not applies:
            return value
        spec = self._spec
        if spec.custom is not None:
            return max(0.0, float(spec.custom(value, node)))
        sigma = (
            spec.stddev if spec.stddev is not None else value * spec.fraction
        )
        value = value + sigma * self.normal(index)
        return 0.0 if value < 0.0 else value

    def tie_rng(self, index: int) -> "_CounterTieRng":
        """A per-node tie-break chooser backed by this seed's streams."""
        return _CounterTieRng(self, index)


class _CounterTieRng:
    """Adapter giving :meth:`PylseMachine.choose` its ``rng.choice`` shape.

    Installed per node by a seeded ``Simulation.simulate``; consumes
    the node's ``_TIE`` stream only when an actual tie occurs, mirroring
    exactly when the batched drain consumes it.
    """

    __slots__ = ("_noise", "_index")

    def __init__(self, noise: ScalarNoise, index: int):
        self._noise = noise
        self._index = index

    def choice(self, tied):
        return tied[self._noise.tie(self._index, len(tied))]


# ----------------------------------------------------------------------
# Batch eligibility
# ----------------------------------------------------------------------
def batch_eligible(compiled: CompiledCircuit) -> bool:
    """Whether the batched drain covers this design.

    Eligible means every non-input node is a :class:`Transitional` machine:
    ``Functional`` holes run arbitrary Python per dispatch, which the
    batch cannot mirror lane-wise. (Every delay is a constant, ``Normal``
    or ``Uniform``; :func:`repro.core.timing.nominal_delay` refuses other
    shapes.) Ineligible designs run seed by seed on the same counter
    streams, so only the speed differs, never a result. The answer is
    memoized on the compile cache.
    """
    cached = compiled._cache.get("batch_eligible")
    if cached is None:
        from .transitional import Transitional

        cached = compiled._cache["batch_eligible"] = all(
            isinstance(compiled.nodes[nd.index].element, Transitional)
            for nd in compiled.dispatch
            if not nd.is_input
        )
    return cached


# ----------------------------------------------------------------------
# Divergence observability
# ----------------------------------------------------------------------
@dataclass
class BatchReport:
    """What the batched drain did for one seed list (picklable, mergeable).

    ``batched_lanes`` counts seeds that completed entirely inside a batch;
    ``fallback_seeds`` lists, in seed order, every seed classified by the
    sequential drain instead (divergence replays, ineligible designs);
    ``divergence`` tallies why, one count per fallback seed, keyed by cause
    (``grouping`` / ``order`` / ``coincidence`` / ``tie-break`` /
    ``violation`` / ``overflow`` / ``error`` / ``ineligible``).
    """

    batched_lanes: int = 0
    fallback_seeds: List[int] = field(default_factory=list)
    divergence: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "BatchReport") -> None:
        self.batched_lanes += other.batched_lanes
        self.fallback_seeds.extend(other.fallback_seeds)
        for cause, count in other.divergence.items():
            self.divergence[cause] = self.divergence.get(cause, 0) + count

    def count(self, cause: str, n: int = 1) -> None:
        if n:
            self.divergence[cause] = self.divergence.get(cause, 0) + n


def resolve_batch(batch: Union[int, str, None], n_seeds: int) -> int:
    """Normalize a ``batch=`` argument to a concrete lane count.

    ``None`` / ``"auto"`` pick ``min(n_seeds, DEFAULT_MAX_BATCH)``; ``0``
    disables batching (the per-seed reference drain); a positive int
    is an explicit width. Bools and negatives are rejected.
    """
    if batch is None or batch == "auto":
        return min(n_seeds, DEFAULT_MAX_BATCH)
    if isinstance(batch, bool) or not isinstance(batch, int) or batch < 0:
        raise PylseError(
            f"batch must be a non-negative integer, 'auto', or None, "
            f"got {batch!r}"
        )
    return batch


# ----------------------------------------------------------------------
# The batched drain
# ----------------------------------------------------------------------
class _DrainResult:
    """Raw artifacts of one batched pass, before per-lane finalization."""

    __slots__ = (
        "active", "cause", "series_acc", "processed", "groups",
        "input_pulses", "input_pushes", "stats_groups", "heap_log",
    )

    def __init__(self, n: int):
        self.active = np.ones(n, dtype=bool)
        self.cause: List[Optional[str]] = [None] * n
        self.series_acc: Dict[str, list] = {}
        self.processed = 0
        self.groups = 0
        self.input_pulses = 0
        self.input_pushes = 0
        #: per group: (node name, cell name, deduped port count,
        #: transition labels, per-firing resolved delays) — stats only.
        self.stats_groups: Optional[list] = None
        #: per group: (heap key, lane times, raw entries popped, pushes).
        self.heap_log: Optional[list] = None


def _zero_mask(resolved, n: int) -> Optional["np.ndarray"]:
    """Lanes whose resolved delay is exactly zero (None when impossible)."""
    if isinstance(resolved, float):
        return np.ones(n, dtype=bool) if resolved == 0.0 else None
    mask = resolved == 0.0
    return mask if mask.any() else None


def _drain(
    compiled: CompiledCircuit,
    spec: VariabilitySpec,
    noise: CounterNoise,
    collect_stats: bool,
    max_pulses: Optional[int],
) -> _DrainResult:
    """One batched pass over the whole design; see the module docstring.

    Control flow (which transition fires, in what order groups dispatch)
    follows the nominal noise-free schedule; per-lane timestamps ride
    along as ``float64[N]`` vectors. Lanes whose own schedule would have
    differed are masked out (``result.cause[lane]``) for replay.
    """
    n = noise.n
    nodes = compiled.nodes
    labels = compiled.labels
    arrays = dispatch_arrays(compiled)
    node_key = arrays.node_key
    result = _DrainResult(n)
    if collect_stats:
        result.stats_groups = []
        result.heap_log = []
    active = result.active
    cause = result.cause

    def diverge(mask, why: str) -> None:
        newly = mask & active
        if newly.any():
            active[newly] = False
            for lane in np.nonzero(newly)[0]:
                cause[lane] = why

    # -- static per-node lookups (cheap; rebuilt per drain) -------------
    num = len(nodes)
    out_slots: List[Optional[dict]] = [None] * num
    for index in range(num):
        slots = {}
        for s in arrays.slots(index):
            slots[arrays.out_port[s]] = (
                arrays.out_dest[s],
                arrays.out_dest_key[s],
                arrays.out_dest_port[s],
                labels[arrays.out_wire[s]],
            )
        out_slots[index] = slots
    applies: List[Optional[bool]] = [None] * num

    # -- per-node machine state (lane-vectorized, lazily created) -------
    state: List[Optional[str]] = [None] * num
    tau_done: List[Optional["np.ndarray"]] = [None] * num
    theta: List[Optional[dict]] = [None] * num
    last_t: List[Optional["np.ndarray"]] = [None] * num

    # -- event series accumulators, label first-occurrence order --------
    series_acc = result.series_acc
    for label in labels:
        if label not in series_acc:
            series_acc[label] = []

    # -- seed the nominal heap from the input schedules -----------------
    # Entries are (t_nom, dest key, seq, dest index, port, lane times,
    # coincidence-risk mask); heapq never compares past seq.
    heap: list = []
    seq = 0
    for i in compiled.input_ids:
        node = nodes[i]
        o = compiled.dispatch[i].outs[0]
        acc = series_acc[labels[o.wire_id]]
        if o.dest < 0:
            for t in node.element.times:  # type: ignore[attr-defined]
                acc.append(float(t))
                result.input_pulses += 1
            continue
        dkey = node_key[o.dest]
        for t in node.element.times:  # type: ignore[attr-defined]
            t = float(t)
            acc.append(t)
            heappush(heap, (t, dkey, seq, o.dest, o.dest_port, t, None))
            seq += 1
            result.input_pushes += 1
            result.input_pulses += 1

    limit = float("inf") if max_pulses is None else max_pulses
    while heap:
        if not active.any():
            break  # every lane replays anyway; the rest of the pass is moot
        if result.processed >= limit:
            diverge(np.ones(n, dtype=bool), "overflow")
            break
        t_nom, key, _s, index, port, T0, risk0 = heappop(heap)
        entries = [(port, T0, risk0)]
        while heap and heap[0][0] == t_nom and heap[0][1] == key:
            e = heappop(heap)
            entries.append((e[4], e[5], e[6]))
        T_ref = T0

        # R3 — a zero-delay push to an earlier-keyed node may regroup.
        # R1 — every entry merged by the nominal schedule must coincide
        # lane-wise, duplicates included.
        for _p, T, risk in entries:
            if risk is not None:
                diverge(risk, "coincidence")
        for _p, T, _r in entries[1:]:
            if isinstance(T, float) and isinstance(T_ref, float):
                if T != T_ref:  # pure-nominal entries; cannot differ
                    diverge(np.ones(n, dtype=bool), "grouping")
            else:
                mask = T != T_ref
                if mask.any():
                    diverge(mask, "grouping")

        ports = []
        seen = set()
        for p, _T, _r in entries:
            if p not in seen:
                seen.add(p)
                ports.append(p)

        element = nodes[index].element
        machine = element.machine
        if state[index] is None:
            state[index] = machine.initial
            tau_done[index] = np.zeros(n)
            theta[index] = {
                sym: np.full(n, -np.inf) for sym in machine.inputs
            }
            last_t[index] = np.full(n, -np.inf)

        # R2 — successive groups at one node must stay strictly ordered
        # lane-wise, else the lane's own heap would have merged or swapped
        # them. (A lane can trip this *later* than its true divergence
        # point; that is why diverged lanes — violations included — are
        # always replayed rather than trusted.)
        lt = last_t[index]
        order_mask = T_ref <= lt
        if order_mask.any():
            diverge(order_mask, "order")
        lt[...] = T_ref

        result.processed += len(ports)
        result.groups += 1

        # -- dispatch: mirror Transitional.raw_firings lane-wise --------
        fast = machine._fast
        st = state[index]
        td = tau_done[index]
        th = theta[index]
        tlabels: List[str] = []
        fire_list: List[tuple] = []
        failed = False
        if len(ports) == 1:
            sequence = iter(ports)
        else:
            sequence = None
            remaining = set(ports)
        while True:
            if sequence is not None:
                symbol = next(sequence, None)
                if symbol is None:
                    break
            else:
                if not remaining:
                    break
                if len(remaining) == 1:
                    symbol = remaining.pop()
                else:
                    candidates = sorted(
                        remaining, key=machine.inputs.index
                    )
                    try:
                        best = min(
                            fast[(st, sym)][4].priority for sym in candidates
                        )
                    except KeyError:
                        failed = True
                        break
                    tied = [
                        sym for sym in candidates
                        if fast[(st, sym)][4].priority == best
                    ]
                    if len(tied) > 1:
                        draws = noise.tie(index, len(tied))
                        lanes = np.nonzero(active)[0]
                        if len(lanes):
                            counts = np.bincount(
                                draws[lanes], minlength=len(tied)
                            )
                            majority = int(np.argmax(counts))
                        else:
                            majority = 0
                        diverge(draws != majority, "tie-break")
                        symbol = tied[majority]
                    else:
                        symbol = tied[0]
                    remaining.discard(symbol)
            entry = fast.get((st, symbol))
            if entry is None:
                failed = True
                break
            dest, transition_time, firing, constraints, _tr, tlabel = entry
            viol = T_ref < td
            for constrained, tau_dist in constraints:
                viol = viol | (T_ref < th[constrained] + tau_dist)
            if viol.any():
                diverge(viol, "violation")
            tlabels.append(tlabel)
            th[symbol][...] = T_ref
            st = dest
            td[...] = T_ref + transition_time
            fire_list.extend(firing)
        state[index] = st
        if failed:
            # Unreachable for validated machines (delta is total); kept so
            # a hypothetical gap degrades to replay-everything, not a crash.
            diverge(np.ones(n, dtype=bool), "error")
            break

        # -- resolve + emit + push --------------------------------------
        node_applies = applies[index]
        if node_applies is None:
            node_applies = applies[index] = spec.applies_to(
                element.name, nodes[index].name
            )
        slots = out_slots[index]
        pushes = 0
        emits: List = []
        for out, delay in fire_list:
            resolved = noise.resolve(delay, index, spec, node_applies)
            t_out = T_ref + resolved
            dest_index, dest_key, dest_port, label = slots[out]
            series_acc[label].append(t_out)
            if collect_stats:
                emits.append(resolved)
            if dest_index >= 0:
                risk = None
                if dest_key < key:
                    risk = _zero_mask(resolved, n)
                heappush(
                    heap,
                    (
                        t_nom + nominal_delay(delay), dest_key, seq,
                        dest_index, dest_port, t_out, risk,
                    ),
                )
                seq += 1
                pushes += 1

        if collect_stats:
            result.stats_groups.append(
                (
                    nodes[index].name, element.name, len(ports),
                    tuple(tlabels), emits,
                )
            )
            result.heap_log.append((key, T_ref, len(entries), pushes))
    return result


# ----------------------------------------------------------------------
# Per-lane finalization
# ----------------------------------------------------------------------
def _finalize_events(
    result: _DrainResult, n: int
) -> Tuple[List[List[float]], List[Tuple[str, int, int]]]:
    """Every lane's sorted event times, one list per lane.

    Each label's pulse entries fill a block of rows of one
    ``(pulses, lanes)`` matrix, sorted once along the pulse axis; one
    ``tolist`` of the transpose then holds a lane's series for every label
    side by side, and :func:`_events_for_lane` slices it per label.
    Returns those per-lane rows and each label's ``(label, start, stop)``
    span, in label first-occurrence order. A lane's per-label lists are
    built only when its predicate runs, so they die with the call; holding
    every lane's lists at once (~35k on bitonic-8) makes the cyclic GC
    walk them on each collection during the batch.
    """
    acc = result.series_acc
    matrix = np.empty((sum(len(entries) for entries in acc.values()), n))
    spans: List[Tuple[str, int, int]] = []
    start = 0
    for label, entries in acc.items():
        stop = start + len(entries)
        for row, entry in enumerate(entries, start):
            matrix[row, :] = entry  # broadcasts pure-nominal scalars
        matrix[start:stop].sort(axis=0)
        spans.append((label, start, stop))
        start = stop
    return matrix.T.tolist(), spans


def _events_for_lane(finalized, lane: int) -> dict:
    rows, spans = finalized
    row = rows[lane]
    return {label: row[start:stop] for label, start, stop in spans}


def _lane_heap_depth(result: _DrainResult, lane: int) -> int:
    """Reconstruct the lane's sequential max pending-heap depth.

    The sequential drain samples the heap depth at the top of each group
    iteration. A conformant lane pops the same groups with the same raw
    entry/push counts, only ordered by its own ``(lane time, node key)``;
    re-ordering the batch's per-group deltas by that key and prefix-summing
    recovers the lane's exact depth trajectory.
    """
    log = result.heap_log
    initial = result.input_pushes
    if not log:
        return initial
    count = len(log)
    keys = np.fromiter((g[0] for g in log), dtype=np.int64, count=count)
    times = np.empty(count)
    deltas = np.empty(count, dtype=np.int64)
    for g, (_key, T_ref, raw_pop, pushes) in enumerate(log):
        times[g] = T_ref if isinstance(T_ref, float) else T_ref[lane]
        deltas[g] = pushes - raw_pop
    order = np.lexsort((keys, times))
    trajectory = initial + np.concatenate(
        ([0], np.cumsum(deltas[order])[:-1])
    )
    return int(max(initial, trajectory.max()))


def _stats_for_lane(result: _DrainResult, lane: int):
    """Rebuild the lane's exact ``SimMetrics``, as a metrics-only observer
    riding the sequential drain would have recorded it.

    Integer counters are lane-invariant for conformant lanes; the per-cell
    delay-histogram float totals are summed in the batch's per-node group
    order, which R2 guarantees equals the lane's own per-node order — the
    same association order, hence the same bits.
    """
    from ..obs.metrics import SimMetrics

    metrics = SimMetrics()
    metrics.input_pulses = result.input_pulses
    metrics.groups = result.groups
    metrics.pulses_processed = result.processed
    metrics.max_heap_depth = _lane_heap_depth(result, lane)
    for name, cell_name, n_ports, tlabels, emits in result.stats_groups:
        cell = metrics.cell(name, cell_name)
        cell.groups += 1
        cell.pulses_in += n_ports
        cell.pulses_out += len(emits)
        transitions = cell.transitions
        for tlabel in tlabels:
            transitions[tlabel] = transitions.get(tlabel, 0) + 1
        delays = cell.delays
        for resolved in emits:
            delays.add(
                resolved if isinstance(resolved, float)
                else float(resolved[lane])
            )
    return metrics


# ----------------------------------------------------------------------
# Replay + the public chunk entry point
# ----------------------------------------------------------------------
def _classify_replay(sim, predicate, variability, seed, collect_stats):
    """One seed on the reference drain (the divergence fallback)."""
    sim.reset()
    observer = None
    if collect_stats:
        from ..obs import Observer

        observer = Observer(provenance=False, metrics=True)
    try:
        events = sim.simulate(
            variability=variability, seed=seed, observer=observer
        )
    except SimulationError:
        return VIOLATION, observer.metrics if observer else None
    outcome = OK if predicate(events) else MIS_BEHAVED
    return outcome, observer.metrics if observer else None


def _replay_seeds(sim, predicate, variability, seeds, collect_stats):
    outcomes: List[str] = []
    stats: List = []
    for seed in seeds:
        outcome, metrics = _classify_replay(
            sim, predicate, variability, seed, collect_stats
        )
        outcomes.append(outcome)
        if collect_stats:
            stats.append(metrics)
    return outcomes, stats


def _run_one_batch(
    sim,
    compiled: CompiledCircuit,
    predicate,
    sigma: float,
    seeds: Sequence[int],
    collect_stats: bool,
    report: BatchReport,
    max_pulses: Optional[int],
) -> Tuple[List[str], List]:
    variability = {"stddev": sigma}
    spec = VariabilitySpec.normalize(variability)
    noise = CounterNoise.for_seeds(seeds)
    result = _drain(compiled, spec, noise, collect_stats, max_pulses)

    finalized = None
    outcomes: List[Optional[str]] = [None] * len(seeds)
    stats: List = [None] * len(seeds) if collect_stats else []
    for lane, seed in enumerate(seeds):
        if result.active[lane]:
            if finalized is None:
                finalized = _finalize_events(result, noise.n)
            events = _events_for_lane(finalized, lane)
            outcomes[lane] = OK if predicate(events) else MIS_BEHAVED
            if collect_stats:
                stats[lane] = _stats_for_lane(result, lane)
            report.batched_lanes += 1
        else:
            report.count(result.cause[lane] or "error")
            report.fallback_seeds.append(seed)
            outcome, metrics = _classify_replay(
                sim, predicate, variability, seed, collect_stats
            )
            outcomes[lane] = outcome
            if collect_stats:
                stats[lane] = metrics
    return outcomes, stats


def run_batch(
    sim,
    predicate: Callable[[dict], bool],
    sigma: float,
    seeds: Sequence[int],
    collect_stats: bool = False,
    batch: Union[int, str, None] = None,
    max_pulses: Optional[int] = 1_000_000,
) -> Tuple[List[str], List, BatchReport]:
    """Classify every seed, batching lanes through the vectorized drain.

    ``sim`` is a (reusable) ``Simulation`` whose circuit the seeds sweep;
    returns ``(outcomes, per_seed_stats, report)`` with outcomes in seed
    order and ``per_seed_stats`` empty unless ``collect_stats``. Seeds in
    excess of the batch width run as further batches. ``batch=0`` and
    ineligible designs (see :func:`batch_eligible`, reported as
    ``ineligible`` fallbacks) run every seed on the sequential drain,
    which draws the same counter streams, so the outcomes are those of
    the batched path (the CI smoke job diffs ``batch=0`` against it).
    """
    seeds = list(seeds)
    report = BatchReport()
    if not seeds:
        return [], [], report
    compiled = compile_circuit(sim.circuit)
    width = resolve_batch(batch, len(seeds))
    eligible = batch_eligible(compiled)
    if width == 0 or not eligible:
        if not eligible:
            report.count("ineligible", len(seeds))
            report.fallback_seeds.extend(seeds)
        outcomes, stats = _replay_seeds(
            sim, predicate, {"stddev": sigma}, seeds, collect_stats
        )
        return outcomes, stats, report
    outcomes = []
    stats: List = []
    for start in range(0, len(seeds), width):
        chunk = seeds[start:start + width]
        chunk_outcomes, chunk_stats = _run_one_batch(
            sim, compiled, predicate, sigma, chunk, collect_stats, report,
            max_pulses,
        )
        outcomes.extend(chunk_outcomes)
        stats.extend(chunk_stats)
    return outcomes, stats, report
