"""Polyhedral-lite dependence engine over the stencil IR.

The transformation certifier (:mod:`repro.lint.rules_transform`) needs
more than the kernel DAG's edge *directions*: to prove a fusion order,
time tile or streaming sweep legal it needs the exact per-axis
**dependence distances** between kernel pairs.  For uniform stencil
accesses (``A[k+a][j+b][i+c]``) those distances are computable exactly
from the access offsets :func:`repro.ir.analysis.array_offset_sets`
extracts — no integer programming required, hence "polyhedral-lite".

Conventions
-----------

A dependence edge ``source -> sink`` means the *source* kernel touches
an array cell before the *sink* kernel does (program order within one
sweep).  Its **distance vectors** are ``sink iteration - source
iteration`` for every (source access, sink access) pair landing on the
same cell:

* **flow** (RAW): source writes at offset ``w``, sink reads at ``r``
  — distance ``w - r`` per axis;
* **anti** (WAR): source reads at ``r``, sink writes at ``w`` —
  distance ``r - w``;
* **output** (WAW): source writes at ``w_s``, sink writes at ``w_k`` —
  distance ``w_s - w_k``.

A ``None`` component marks an axis whose subscript is not a plain
``iterator + constant`` (skewed affine reads, broadcast lower-rank
arrays): the distance along that axis is *unknown* and every consumer
must treat it conservatively.

The sweep mirrors :func:`repro.ir.dag.kernel_dag` exactly (last-writer
/ readers-since-write bookkeeping), so the certifier and the fusion
DAG can never disagree about which kernel pairs are dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..ir.analysis import array_offset_sets, memoized
from ..ir.dag import DiGraph
from ..ir.stencil import ProgramIR

FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"

#: distance vector: per-axis sink-minus-source iteration delta.
Distance = Tuple[Optional[int], ...]


@dataclass(frozen=True)
class DependenceEdge:
    """One dependence between two kernel instances of a program."""

    source: str  # must execute first (program order)
    sink: str  # must execute second
    array: str  # the array carrying the dependence
    kind: str  # flow | anti | output
    distances: Tuple[Distance, ...]  # distinct distance vectors

    def axis_distances(self, axis: int) -> Tuple[Optional[int], ...]:
        """Distinct distance components along one axis (``None`` kept)."""
        seen: List[Optional[int]] = []
        for vector in self.distances:
            value = vector[axis] if axis < len(vector) else None
            if value not in seen:
                seen.append(value)
        return tuple(seen)

    def has_unknown(self, axis: int) -> bool:
        return None in self.axis_distances(axis)

    def max_known(self, axis: int) -> Optional[int]:
        known = [d for d in self.axis_distances(axis) if d is not None]
        return max(known) if known else None

    def describe(self) -> str:
        vectors = ", ".join(
            "("
            + ",".join("?" if d is None else str(d) for d in vector)
            + ")"
            for vector in self.distances
        )
        return (
            f"{self.kind} {self.source} -> {self.sink} via "
            f"{self.array!r} distance {{{vectors}}}"
        )


@dataclass(frozen=True)
class Witness:
    """A concrete counterexample for a refuted transformation.

    ``required_event`` and ``observed_event`` are ``(time_step, phase)``
    pairs where ``phase`` is ``"before:<kernel>"`` or
    ``"after:<kernel>"`` in the reference executor's program order.  The
    refuted schedule makes ``array[point]`` be read at the *observed*
    event where correctness requires the *required* event's value; the
    two values provably differ, which
    :func:`repro.lint.witness.replay_witness` confirms numerically.
    """

    array: str
    point: Tuple[int, ...]
    source: str
    sink: str
    kind: str
    axis: Optional[int]
    distance: Distance
    required_event: Tuple[int, str]
    observed_event: Tuple[int, str]
    note: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "array": self.array,
            "point": list(self.point),
            "source": self.source,
            "sink": self.sink,
            "kind": self.kind,
            "axis": self.axis,
            "distance": [d for d in self.distance],
            "required_event": [self.required_event[0], self.required_event[1]],
            "observed_event": [self.observed_event[0], self.observed_event[1]],
            "note": self.note,
        }

    def describe(self) -> str:
        point = ",".join(str(c) for c in self.point)
        return (
            f"{self.array}[{point}] must hold its value at "
            f"step {self.required_event[0]} {self.required_event[1]} but the "
            f"transformed schedule observes step {self.observed_event[0]} "
            f"{self.observed_event[1]}"
        )


def _difference(
    a: Tuple[Optional[int], ...], b: Tuple[Optional[int], ...]
) -> Distance:
    """Componentwise ``a - b`` with ``None`` propagation."""
    if len(a) != len(b):
        # Rank-mismatched access pair (e.g. full-rank write vs broadcast
        # read): every axis distance is unknown.
        length = max(len(a), len(b))
        return (None,) * length
    return tuple(
        None if (x is None or y is None) else x - y for x, y in zip(a, b)
    )


def _distance_set(
    lhs: Tuple[Tuple[Optional[int], ...], ...],
    rhs: Tuple[Tuple[Optional[int], ...], ...],
) -> Tuple[Distance, ...]:
    """All distinct ``l - r`` distance vectors over the offset sets."""
    seen: List[Distance] = []
    for left in lhs:
        for right in rhs:
            vector = _difference(left, right)
            if vector not in seen:
                seen.append(vector)
    return tuple(seen)


def kernel_dependences(ir: ProgramIR) -> Tuple[DependenceEdge, ...]:
    """Every dependence edge between kernel pairs, with exact distances.

    One edge per (source, sink, array, kind) in deterministic program
    order — the same last-writer sweep as :func:`repro.ir.dag.kernel_dag`
    produces the same (source, sink, array) pairs, now annotated with the
    full distance set.  Memoized per IR (the certifier probes this once
    per plan family on the engine's hot path).
    """
    return memoized("dependences", ir, lambda: _kernel_dependences(ir))


def _kernel_dependences(ir: ProgramIR) -> Tuple[DependenceEdge, ...]:
    edges: List[DependenceEdge] = []
    #: array -> (kernel name, distinct write offset vectors)
    last_writer: Dict[str, Tuple[str, Tuple[Tuple[Optional[int], ...], ...]]]
    last_writer = {}
    #: array -> [(kernel name, distinct read offset vectors), ...]
    readers: Dict[str, List[Tuple[str, Tuple[Tuple[Optional[int], ...], ...]]]]
    readers = {}
    for kernel in ir.kernels:
        offsets = array_offset_sets(ir, kernel)
        for array in kernel.arrays_read():
            read_offs = offsets.get(array, ((), ()))[0]
            if array in last_writer and last_writer[array][0] != kernel.name:
                source, write_offs = last_writer[array]
                edges.append(
                    DependenceEdge(
                        source=source,
                        sink=kernel.name,
                        array=array,
                        kind=FLOW,
                        distances=_distance_set(write_offs, read_offs),
                    )
                )
            readers.setdefault(array, []).append((kernel.name, read_offs))
        for array in kernel.arrays_written():
            write_offs = offsets.get(array, ((), ()))[1]
            if array in last_writer and last_writer[array][0] != kernel.name:
                source, prev_offs = last_writer[array]
                edges.append(
                    DependenceEdge(
                        source=source,
                        sink=kernel.name,
                        array=array,
                        kind=OUTPUT,
                        distances=_distance_set(prev_offs, write_offs),
                    )
                )
            for reader, read_offs in readers.get(array, []):
                if reader != kernel.name:
                    edges.append(
                        DependenceEdge(
                            source=reader,
                            sink=kernel.name,
                            array=array,
                            kind=ANTI,
                            distances=_distance_set(read_offs, write_offs),
                        )
                    )
            readers[array] = []
            last_writer[array] = (kernel.name, write_offs)
    return tuple(edges)


def dependence_graph(ir: ProgramIR) -> DiGraph:
    """Kernel-level digraph over :func:`kernel_dependences` edges.

    Structurally equivalent to :func:`repro.ir.dag.kernel_dag`; edge
    data carries the :class:`DependenceEdge` list for each pair.
    """
    graph = DiGraph()
    for kernel in ir.kernels:
        graph.add_node(kernel.name)
    for edge in kernel_dependences(ir):
        if graph.has_edge(edge.source, edge.sink):
            graph.edges[edge.source, edge.sink]["edges"].append(edge)
        else:
            graph.add_edge(edge.source, edge.sink, edges=[edge])
    return graph


def edges_between(
    ir: ProgramIR, names: Tuple[str, ...]
) -> Tuple[DependenceEdge, ...]:
    """Dependence edges whose endpoints are both in ``names``."""
    members = set(names)
    return tuple(
        edge
        for edge in kernel_dependences(ir)
        if edge.source in members and edge.sink in members
    )


def interposed_kernels(
    ir: ProgramIR, names: Tuple[str, ...]
) -> Tuple[Tuple[str, str, str], ...]:
    """(member_a, outsider, member_b) chains that forbid fusing a and b.

    If a dependence path runs ``a -> ... -> c -> ... -> b`` with ``c``
    outside the fused set, there is no launch schedule in which ``c``
    runs between the fused ``a`` and ``b`` — the fusion is illegal no
    matter the stage order.  Returns the first offending chain per
    (a, b) pair, in deterministic program order.
    """
    members = set(names)
    graph = dependence_graph(ir)
    chains: List[Tuple[str, str, str]] = []
    order = [k.name for k in ir.kernels if k.name in members]
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            for outsider in (k.name for k in ir.kernels):
                if outsider in members:
                    continue
                if graph.has_path(a, outsider) and graph.has_path(outsider, b):
                    chains.append((a, outsider, b))
                    break
    return tuple(chains)


def array_flow_graph(ir: ProgramIR) -> DiGraph:
    """Array-level dataflow graph (``source array -> written array``).

    Used by RL104's cycle detection.  A read of an array the kernel
    itself writes contributes **no** edge only when that kernel is the
    array's *exclusive* writer (a self-contained in-place update);
    when a third kernel also writes the array, the read is a genuine
    cross-kernel input and the edge must stay — dropping it
    unconditionally is exactly the false negative this graph fixes.
    Self-edges (``X -> X``) are never added; in-place hazards are
    RL103's business, not a cycle.
    """
    writers: Dict[str, Set[str]] = {}
    for kernel in ir.kernels:
        for array in kernel.arrays_written():
            writers.setdefault(array, set()).add(kernel.name)
    graph = DiGraph()
    for kernel in ir.kernels:
        written = set(kernel.arrays_written())
        for source in kernel.arrays_read():
            if source in written and writers.get(source, set()) <= {
                kernel.name
            }:
                continue
            for target in written:
                if target != source:
                    graph.add_edge(source, target, kernel=kernel.name)
    return graph
