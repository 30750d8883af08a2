"""The discrete-event simulator (Section 4.3).

``Simulation.simulate`` runs the Network Relation of Figure 6 over the
working circuit (or an explicit one): a priority heap of pending pulses is
drained one simultaneous group at a time; each group is dispatched to its
destination element; newly fired pulses are pushed back onto the heap until
it is empty or the ``until`` target time is reached (needed for circuits
with feedback loops).

The result is the ``events`` dictionary mapping every named wire to the
ordered list of pulse times that appeared on it — the object the paper's
Section 5.2 dynamic-correctness checks are written against.

The inner loop is the hot path behind every workload in this repo (Table 2,
the bitonic scaling study, the Section 5.2 Monte-Carlo sweeps), so
``simulate`` front-loads all per-node decisions before draining the heap:

* each node gets a *dispatch record* carrying its bound deliver method
  (``raw_firings`` vs ``handle_inputs`` — no ``isinstance`` per group), its
  activity counters, and a per-output-port map to ``(event series,
  destination record)`` so ``emit`` costs one dict probe instead of two;
* the heap holds flat primitive tuples (see :mod:`repro.core.events`), not
  ``Pulse`` objects;
* variability, tracing, observation, and per-group object bookkeeping live
  in a separate general loop — the common ``simulate()`` call with no
  noise, no trace and no observer pays for none of it. Both loops produce
  bit-identical events for the same inputs (the fast path is the reference
  semantics, minus the bookkeeping).

Observability (:mod:`repro.obs`) lives in the general loop only: pass
``observer=Observer()`` to record pulse provenance (every pulse's causal
parents, back to the circuit inputs) and per-cell metrics, and
``simulate`` runs the general loop even without noise or trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .batchsim import ScalarNoise
from .circuit import Circuit, working_circuit
from .errors import PylseError, SimulationError
from .events import PulseHeap
from .ir import CompiledCircuit, compile_circuit
from .node import Node
from .timing import Distribution, VariabilitySpec

Events = Dict[str, List[float]]

#: Per-node dispatch record indices (plain lists beat attribute access in
#: the inner loop): NODE is the placed node, DELIVER the bound dispatch
#: method, COUNTS the mutable [pulses_in, pulses_out] pair shared with
#: ``Simulation.activity``, OUTS the per-output-port emit map,
#: TRANSITIONAL whether the element carries machine state (trace
#: recording), and INDEX the dense IR index (the counter-noise stream id).
(
    _REC_NODE, _REC_DELIVER, _REC_COUNTS, _REC_OUTS, _REC_TRANSITIONAL,
    _REC_INDEX,
) = range(6)


@dataclass(frozen=True)
class TraceEntry:
    """One dispatch step: a simultaneous pulse group delivered to a node."""

    time: float
    node: str
    cell: str
    ports: Tuple[str, ...]
    state_before: Optional[str]
    state_after: Optional[str]
    fired: Tuple[Tuple[str, float], ...]   # (output port, absolute time)
    #: Provenance ids of the fired pulses, filled when an observer with
    #: provenance enabled accompanies ``record=True``; empty otherwise.
    fired_pids: Tuple[int, ...] = ()

    def __str__(self) -> str:
        ports = "+".join(self.ports)
        fired = (
            ", ".join(f"{port}@{t:g}" for port, t in self.fired) or "-"
        )
        state = (
            f" [{self.state_before} -> {self.state_after}]"
            if self.state_before is not None
            else ""
        )
        return f"t={self.time:g}: {self.node}({self.cell}) <- {ports}{state} => {fired}"


class Simulation:
    """Discrete-event simulation of a circuit of PyLSE Machines and holes.

    >>> from repro import inp_at, inp, and_s, Simulation
    >>> # ... build circuit ...
    >>> sim = Simulation()
    >>> events = sim.simulate()
    >>> print(sim.plot())           # ASCII waveform  # doctest: +SKIP
    """

    def __init__(self, circuit: Union[Circuit, CompiledCircuit, None] = None):
        if isinstance(circuit, CompiledCircuit):
            # A pre-compiled design (e.g. shipped to a Monte-Carlo worker):
            # simulate against its circuit; compile_circuit() will hit the
            # memoized view instead of recompiling.
            circuit = circuit.circuit
        self.circuit = circuit if circuit is not None else working_circuit()
        self.events: Events = {}
        self.until: Optional[float] = None
        self.pulses_processed: int = 0
        #: node name -> (input pulses consumed, output pulses emitted);
        #: filled during simulate() and consumed by repro.core.energy.
        self.activity: Dict[str, List[int]] = {}
        #: dispatch-level trace, filled when simulate(record=True).
        self.trace: List[TraceEntry] = []
        #: the observer of the last simulate(observer=...) call, if any.
        self.observer = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return this simulation (and its circuit) to a pre-run state.

        Clears every per-run artifact — events, trace, activity counters,
        pulse count, the attached observer — and resets element state, so
        the same ``Simulation`` object can be re-simulated as if freshly
        constructed. This is the reuse hook behind the Monte-Carlo
        backends (:mod:`repro.core.parallel`): elaborating and compiling a
        circuit once and resetting between seeds is bit-identical to
        building a fresh circuit per seed, because per-run state lives in
        ``simulate()`` (noise streams, variability spec, event series)
        while the per-circuit dispatch topology lives in the memoized
        :class:`repro.core.ir.CompiledCircuit`. With a warm compile cache
        only the *stateful* elements are touched, making reset trivially
        cheap for fabric-heavy designs.
        """
        compiled = self.circuit._compiled_ir
        if compiled is not None and compiled.version == self.circuit.version:
            for element in compiled.stateful_elements:
                element.reset()
        else:
            self.circuit.reset_elements()
        self.events = {}
        self.until = None
        self.pulses_processed = 0
        self.activity = {}
        self.trace = []
        self.observer = None

    # ------------------------------------------------------------------
    def simulate(
        self,
        until: Optional[float] = None,
        variability: Union[bool, dict, Callable[[float, Node], float]] = False,
        seed: Optional[int] = None,
        record: bool = False,
        max_pulses: Optional[int] = 1_000_000,
        observer=None,
    ) -> Events:
        """Run the circuit until the heap drains or ``until`` is reached.

        ``variability`` adds Gaussian noise to firing delays (Section 5.2):
        ``True`` for all cells, a dict selecting ``cell_types`` /
        ``instances`` and the noise magnitude, or a callable
        ``f(delay, node) -> delay`` for full control. ``seed`` makes the
        noise, ``Normal``/``Uniform`` delays and priority tie-breaks
        reproducible: all are drawn from the seed's per-node counter
        streams (:class:`repro.core.batchsim.ScalarNoise`), as on every
        Monte-Carlo path. Unseeded, ties break in input declaration order.
        ``record=True`` keeps a dispatch-level trace in ``self.trace`` (one
        :class:`TraceEntry` per simultaneous pulse group, with machine
        states before/after) — the debugging view of the Network Relation.
        ``max_pulses`` (default one million) guards against unbounded
        feedback loops simulated without an ``until`` horizon; pass None to
        disable. ``observer`` attaches a :class:`repro.obs.Observer` that
        collects pulse provenance and per-cell metrics (it runs the general
        drain loop); timing-violation errors then carry the causal chain of the
        offending pulse group.
        """
        circuit = self.circuit
        # Validates the circuit (once per revision) and yields the frozen
        # dispatch topology; repeated simulate() calls hit the memo.
        compiled = compile_circuit(circuit)
        for element in compiled.stateful_elements:
            element.reset()
        spec = VariabilitySpec.normalize(variability)
        # Counter-based per-(seed, node) streams: the width-1 form of the
        # vectorized Monte-Carlo drain, bit-identical to one lane of a
        # batched pass over the same seed.
        noise = ScalarNoise(seed, spec)

        # ---- instantiate the per-run dispatch plan --------------------
        # Wires sharing an observation label share one series list, exactly
        # as the previous per-emit dict lookup behaved; insertion order is
        # the wires' elaboration order (compiled.labels preserves it).
        events: Events = {}
        series_by_wire: List[List[float]] = [None] * len(compiled.labels)  # type: ignore[list-item]
        for wid, label in enumerate(compiled.labels):
            series = events.get(label)
            if series is None:
                series = events[label] = []
            series_by_wire[wid] = series

        nodes = compiled.nodes
        records: List[Optional[list]] = [None] * len(nodes)
        activity: Dict[str, List[int]] = {}
        for nd in compiled.dispatch:
            if nd.is_input:
                continue
            element = nodes[nd.index].element
            if nd.is_transitional:
                element.set_dispatch_rng(
                    noise.tie_rng(nd.index) if seed is not None else None
                )
                # Attach (or clear, so no stale list keeps growing) the
                # taken-transition log the observer drains per group.
                element.set_transition_log([] if observer is not None else None)
            deliver = element.raw_firings if nd.uses_raw else element.handle_inputs
            counts = [0, 0]
            activity[nd.name] = counts
            records[nd.index] = [
                nodes[nd.index], deliver, counts, {}, nd.is_transitional,
                nd.index,
            ]
        for nd in compiled.dispatch:
            if nd.is_input:
                continue
            outs = records[nd.index][_REC_OUTS]
            for o in nd.outs:
                if o.dest < 0:
                    outs[o.port] = (
                        series_by_wire[o.wire_id], -1, None, "",
                        compiled.labels[o.wire_id],
                    )
                else:
                    # Heap key stays node.node_id (global placement id),
                    # not the dense IR index: pop ordering of simultaneous
                    # cross-node groups depends on it bit-for-bit.
                    outs[o.port] = (
                        series_by_wire[o.wire_id], nodes[o.dest].node_id,
                        records[o.dest], o.dest_port,
                        compiled.labels[o.wire_id],
                    )

        heap = PulseHeap()
        push = heap.push_raw
        self.pulses_processed = 0
        self.until = until
        self.activity = activity
        self.trace = []
        self.observer = observer
        if observer is not None:
            observer.begin(circuit)

        for i in compiled.input_ids:
            node = nodes[i]
            spec_out = compiled.dispatch[i].outs[0]
            series = series_by_wire[spec_out.wire_id]
            label = compiled.labels[spec_out.wire_id]
            if spec_out.dest < 0:
                series.extend(node.element.times)  # type: ignore[attr-defined]
                if observer is not None:
                    for t in node.element.times:  # type: ignore[attr-defined]
                        observer.on_input(node.name, label, t, -1, "")
                continue
            dkey = nodes[spec_out.dest].node_id
            drec = records[spec_out.dest]
            dport = spec_out.dest_port
            for t in node.element.times:  # type: ignore[attr-defined]
                series.append(t)
                push(t, dkey, drec, dport)
                if observer is not None:
                    observer.on_input(node.name, label, t, dkey, dport)

        try:
            if spec.enabled or record or observer is not None:
                self._drain_general(
                    heap, noise, until, record, max_pulses, observer
                )
            else:
                self._drain_fast(heap, noise, until, max_pulses)
        finally:
            if observer is not None:
                observer.end(heap.max_depth, self.pulses_processed)

        for series in events.values():
            series.sort()
        self.events = events
        return events

    # ------------------------------------------------------------------
    def _drain_fast(
        self,
        heap: PulseHeap,
        noise: ScalarNoise,
        until: Optional[float],
        max_pulses: Optional[int],
    ) -> None:
        """Drain the heap with no variability, no trace and no observer.

        This is the hot path: no per-group objects, no spec/trace/observer
        checks, scalar delays added directly (they were validated
        non-negative when the machine / hole was built). Distribution-valued
        delays still draw from ``noise``, matching the general path.
        ``until`` and ``max_pulses`` are normalized to infinities so the
        loop drops two per-iteration None-checks.
        """
        pending = heap._heap
        pop = heap.pop_simultaneous
        push = heap.push_raw
        stop = math.inf if until is None else until
        limit = math.inf if max_pulses is None else max_pulses
        processed = self.pulses_processed
        resolve = noise.resolve
        while pending:
            rec, ports, time = pop()
            if time > stop:
                break
            if processed >= limit:
                self._overflow(max_pulses, time)
            processed += len(ports)
            try:
                firings = rec[_REC_DELIVER](ports, time)
            except SimulationError as err:
                self.pulses_processed = processed
                self._dispatch_error(rec[_REC_NODE], ports, err)
            counts = rec[_REC_COUNTS]
            counts[0] += len(ports)
            counts[1] += len(firings)
            outs = rec[_REC_OUTS]
            for out_port, delay in firings:
                if isinstance(delay, Distribution):
                    delay = resolve(delay, rec[_REC_INDEX], None)
                t = time + delay
                series, dkey, drec, dport, _label = outs[out_port]
                series.append(t)
                if drec is not None:
                    push(t, dkey, drec, dport)
        self.pulses_processed = processed

    def _drain_general(
        self,
        heap: PulseHeap,
        noise: ScalarNoise,
        until: Optional[float],
        record: bool,
        max_pulses: Optional[int],
        observer=None,
    ) -> None:
        """Drain the heap with variability, trace or observer bookkeeping on.

        The only loop that calls observer hooks; with all three off it
        produces the same events as :meth:`_drain_fast` (locked by
        ``tests/test_differential.py``). Every firing delay resolves
        through ``noise``.
        """
        pending = heap._heap
        pop = heap.pop_simultaneous
        push = heap.push_raw
        stop = math.inf if until is None else until
        limit = math.inf if max_pulses is None else max_pulses
        observe = observer is not None
        max_depth = len(pending) if observe else 0
        resolve = noise.resolve
        while pending:
            if observe:
                depth = len(pending)
                if depth > max_depth:
                    max_depth = depth
            rec, ports, time = pop()
            if time > stop:
                break
            if self.pulses_processed >= limit:
                self._overflow(max_pulses, time)
            self.pulses_processed += len(ports)
            node = rec[_REC_NODE]
            is_transitional = rec[_REC_TRANSITIONAL]
            state_before = node.element.state if record and is_transitional else None
            parents = (
                observer.group_parents(node.node_id, ports, time)
                if observe else ()
            )
            try:
                firings = rec[_REC_DELIVER](ports, time)
            except SimulationError as err:
                heap.max_depth = max_depth
                chain = (
                    observer.on_violation(
                        node.name, node.element.name, ports, time, parents, err
                    )
                    if observe else None
                )
                self._dispatch_error(node, ports, err, chain)
            counts = rec[_REC_COUNTS]
            counts[0] += len(ports)
            counts[1] += len(firings)
            outs = rec[_REC_OUTS]
            emitted: List[Tuple[str, float]] = []
            obs_emitted = [] if observe else None
            for out_port, delay in firings:
                resolved = resolve(delay, rec[_REC_INDEX], node)
                t = time + resolved
                emitted.append((out_port, t))
                series, dkey, drec, dport, label = outs[out_port]
                series.append(t)
                pushed = drec is not None
                if pushed:
                    push(t, dkey, drec, dport)
                if observe:
                    obs_emitted.append(
                        (out_port, label, t, resolved, dkey, dport, pushed)
                    )
            fired_pids: Tuple[int, ...] = ()
            if observe:
                element = node.element
                if is_transitional:
                    log = element._transition_log
                    tlabels = tuple(log)
                    log.clear()
                else:
                    tlabels = ()
                pids = observer.record_group(
                    node.name, element.name, ports, time, tlabels,
                    obs_emitted, parents,
                )
                if pids:
                    fired_pids = tuple(pids)
            if record:
                self.trace.append(
                    TraceEntry(
                        time=time,
                        node=node.name,
                        cell=node.element.name,
                        ports=tuple(ports),
                        state_before=state_before,
                        state_after=(
                            node.element.state if is_transitional else None
                        ),
                        fired=tuple(emitted),
                        fired_pids=fired_pids,
                    )
                )
        heap.max_depth = max_depth

    # ------------------------------------------------------------------
    def _overflow(self, max_pulses: int, time: float) -> None:
        raise SimulationError(
            f"Simulation exceeded {max_pulses} pulses at t={time:g} "
            "without draining; a feedback loop probably needs an "
            "'until' horizon (or raise max_pulses)"
        )

    def _dispatch_error(
        self,
        node: Node,
        ports: Sequence[str],
        err: SimulationError,
        chain: Optional[str] = None,
    ) -> None:
        """Re-raise a dispatch failure with node/port context attached.

        When an observer recorded provenance, ``chain`` is the causal
        chain of the offending pulse group; it is appended to the message
        and kept on the raised error's ``provenance`` attribute.
        """
        first_out = next(iter(node.output_wires.values()), None)
        where = f"'{first_out.name}'" if first_out is not None else "(no output)"
        inputs = ", ".join(f"'{p}'" for p in ports)
        message = (
            f"Error while sending input(s) {inputs} to the node with output "
            f"wire {where}:\n{err}"
        )
        if chain is not None:
            message += f"\nCausal chain:\n{chain}"
        wrapped = type(err)(message)
        wrapped.provenance = chain
        raise wrapped from None

    # ------------------------------------------------------------------
    def render_trace(self, provenance: bool = False) -> str:
        """The recorded dispatch trace as text (one line per group).

        With ``provenance=True`` (requires ``simulate(record=True,
        observer=Observer())``), each fired pulse is followed by its full
        causal chain back to the circuit inputs.
        """
        if not self.trace:
            raise PylseError(
                "No trace recorded: run simulate(record=True) first"
            )
        if not provenance:
            return "\n".join(str(entry) for entry in self.trace)
        graph = self.observer.graph if self.observer is not None else None
        if graph is None:
            raise PylseError(
                "render_trace(provenance=True) needs simulate(record=True, "
                "observer=Observer()) with provenance enabled"
            )
        from ..obs.provenance import format_chain

        lines = []
        for entry in self.trace:
            lines.append(str(entry))
            for pid in entry.fired_pids:
                lines.append(format_chain(graph, pid, indent="    "))
        return "\n".join(lines)

    def render_chain(self, label: str, occurrence: int = -1) -> str:
        """Causal chain of the n-th pulse on a wire (default: the last).

        Requires the previous ``simulate()`` call to have run with an
        observer collecting provenance.
        """
        if self.observer is None or self.observer.graph is None:
            raise PylseError(
                "No provenance recorded: run simulate(observer=Observer()) "
                "first"
            )
        return self.observer.chain(label, occurrence)

    def plot(self, width: int = 72, file=None) -> str:
        """Render the last simulation's pulses as an ASCII waveform.

        Each named wire gets a row; ``|`` marks a pulse. The rendering is
        returned and also printed to ``file`` (stdout by default) to match
        the paper's ``sim.plot()`` usage. (The paper uses matplotlib — see
        DESIGN.md; an optional matplotlib backend is used if importable.)
        """
        if not self.events:
            raise PylseError("Nothing to plot: run simulate() first")
        rendering = render_waveforms(self.events, width=width)
        print(rendering, file=file)
        self._try_matplotlib()
        return rendering

    def _try_matplotlib(self) -> None:
        try:
            from . import plot as _plot
        except ImportError:
            return
        try:
            _plot.matplotlib_plot(self.events)
        except ImportError:
            # matplotlib itself is an optional dependency; anything else
            # (a genuine plotting bug) propagates to the caller.
            return


def render_waveforms(events: Events, width: int = 72) -> str:
    """Draw pulse trains as fixed-width ASCII art.

    Each wire is one row; ``|`` marks a pulse, positioned proportionally to
    its time within the simulation span, with the pulse times listed after.
    """
    max_time = max((ts[-1] for ts in events.values() if ts), default=0.0)
    span = max(max_time, 1e-9)
    name_width = max((len(k) for k in events), default=4)
    lines = []
    for name, times in events.items():
        row = ["_"] * width
        for t in times:
            col = min(width - 1, int(t / span * (width - 1)))
            row[col] = "|"
        stamps = ", ".join(f"{t:g}" for t in times[:8])
        if len(times) > 8:
            stamps += ", ..."
        count = f"{len(times)} pulse{'s' if len(times) != 1 else ''}"
        detail = f" ({count}: {stamps})" if times else " (no pulses)"
        lines.append(f"{name:<{name_width}} {''.join(row)}{detail}")
    return "\n".join(lines)
