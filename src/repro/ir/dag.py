"""Dependence graphs over stencil statements and kernels.

Two granularities are used by the optimizer:

* the **kernel DAG** (one node per :class:`StencilInstance`) drives
  fusion and fission decisions (Section VI);
* the **statement DAG** within a kernel (one node per statement) drives
  statement decomposition, retiming and the trivial/recompute fission
  splits of Section VI-B (the paper's Figure 3a).
"""

from __future__ import annotations

import graphlib
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from ..dsl.ast import array_accesses, scalar_names
from .stencil import ProgramIR, StencilInstance

Edge = Tuple[Hashable, Hashable]


class _Edges(dict):
    """``{(u, v): attrs}``; ``edges(data=True)`` yields ``(u, v, attrs)``."""

    def __call__(self, data: bool = False) -> Iterator[tuple]:
        if data:
            return ((u, v, attrs) for (u, v), attrs in self.items())
        return iter(self)


class DiGraph:
    """A directed graph on adjacency dicts, with per-edge attribute dicts.

    Nodes and each node's successors iterate in insertion order, so
    every traversal below is deterministic.
    """

    def __init__(self) -> None:
        self.succ: Dict[Hashable, Dict[Hashable, dict]] = {}
        self.pred: Dict[Hashable, Dict[Hashable, dict]] = {}
        self.edges = _Edges()

    @property
    def nodes(self) -> List[Hashable]:
        return list(self.succ)

    def add_node(self, node: Hashable) -> None:
        self.succ.setdefault(node, {})
        self.pred.setdefault(node, {})

    def add_edge(self, u: Hashable, v: Hashable, **attrs) -> None:
        """Add ``u -> v``, or update an existing edge's attributes."""
        self.add_node(u)
        self.add_node(v)
        data = self.edges.setdefault((u, v), {})
        data.update(attrs)
        self.succ[u][v] = self.pred[v][u] = data

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return (u, v) in self.edges

    def predecessors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self.pred[node])

    def number_of_edges(self) -> int:
        return len(self.edges)

    def has_path(self, source: Hashable, target: Hashable) -> bool:
        seen, frontier = {source}, [source]
        while frontier:
            node = frontier.pop()
            if node == target:
                return True
            fresh = [v for v in self.succ[node] if v not in seen]
            seen.update(fresh)
            frontier.extend(fresh)
        return False

    def is_acyclic(self) -> bool:
        try:
            graphlib.TopologicalSorter(self.pred).prepare()
        except graphlib.CycleError:
            return False
        return True

    def find_cycle(self) -> Optional[List[Edge]]:
        """The first cycle a depth-first search meets, as its edge list
        (starting at the node the search re-entered), or None."""
        done: Set[Hashable] = set()
        for root in self.succ:
            if root in done:
                continue
            stack = [(root, iter(self.succ[root]))]
            while stack:
                node, successors = stack[-1]
                for v in successors:
                    path = [n for n, _ in stack]
                    if v in path:
                        loop = path[path.index(v):] + [v]
                        return list(zip(loop, loop[1:]))
                    if v not in done:
                        stack.append((v, iter(self.succ[v])))
                        break
                else:
                    done.add(node)
                    stack.pop()
        return None


def kernel_dag(ir: ProgramIR) -> DiGraph:
    """Build the kernel-level dependence DAG.

    Nodes are kernel instance names; an edge u -> v means v reads an
    array that u wrote (RAW), or overwrites data u produced (WAW/WAR),
    so u must execute first.
    """
    graph = DiGraph()
    for kernel in ir.kernels:
        graph.add_node(kernel.name)
    last_writer: Dict[str, str] = {}
    readers_since_write: Dict[str, List[str]] = {}
    for kernel in ir.kernels:
        for array in kernel.arrays_read():
            if array in last_writer:
                graph.add_edge(last_writer[array], kernel.name, kind="RAW",
                               array=array)
            readers_since_write.setdefault(array, []).append(kernel.name)
        for array in kernel.arrays_written():
            if array in last_writer and last_writer[array] != kernel.name:
                graph.add_edge(last_writer[array], kernel.name, kind="WAW",
                               array=array)
            for reader in readers_since_write.get(array, []):
                if reader != kernel.name:
                    graph.add_edge(reader, kernel.name, kind="WAR", array=array)
            readers_since_write[array] = []
            last_writer[array] = kernel.name
    return graph


def statement_dag(instance: StencilInstance) -> DiGraph:
    """Build the statement-level dependence DAG within one kernel.

    Nodes are statement indices.  Edges capture RAW dependences through
    local scalars and through arrays (any offset — within a kernel a
    producing statement must run before a consumer at the same point).
    """
    graph = DiGraph()
    for index, stmt in enumerate(instance.statements):
        graph.add_node(index)
    scalar_writer: Dict[str, int] = {}
    array_writers: Dict[str, List[int]] = {}
    for index, stmt in enumerate(instance.statements):
        for name in scalar_names(stmt.rhs):
            if name in scalar_writer:
                graph.add_edge(scalar_writer[name], index, kind="RAW", via=name)
        for access in array_accesses(stmt.rhs):
            for writer in array_writers.get(access.name, []):
                graph.add_edge(writer, index, kind="RAW", via=access.name)
        if stmt.is_local:
            if stmt.op == "+=" and stmt.target in scalar_writer:
                graph.add_edge(scalar_writer[stmt.target], index, kind="ACC",
                               via=stmt.target)
            scalar_writer[stmt.target] = index
        else:
            if stmt.op == "+=":
                for writer in array_writers.get(stmt.target, []):
                    graph.add_edge(writer, index, kind="ACC", via=stmt.target)
            array_writers.setdefault(stmt.target, []).append(index)
    return graph


def producers_of(instance: StencilInstance, target: str) -> Tuple[int, ...]:
    """Indices of statements writing scalar or array ``target``."""
    return tuple(
        index
        for index, stmt in enumerate(instance.statements)
        if stmt.target == target
    )


def statements_for_output(
    instance: StencilInstance, output: str
) -> Tuple[int, ...]:
    """Backward slice: statement indices needed to compute ``output``.

    Used by trivial fission (Section VI-B): each distinct output array is
    placed in its own kernel along with every statement its value
    transitively depends on (which replicates shared temporaries, as in
    the paper's Figure 3b).
    """
    graph = statement_dag(instance)
    roots = [i for i in producers_of(instance, output)]
    needed: Set[int] = set(roots)
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        for pred in graph.predecessors(node):
            if pred not in needed:
                needed.add(pred)
                frontier.append(pred)
    return tuple(sorted(needed))


def intermediate_arrays(ir: ProgramIR) -> Tuple[str, ...]:
    """Arrays produced by one kernel and consumed by a later one."""
    produced: Set[str] = set()
    intermediates: List[str] = []
    for kernel in ir.kernels:
        for array in kernel.arrays_read():
            if array in produced and array not in intermediates:
                intermediates.append(array)
        produced.update(kernel.arrays_written())
    return tuple(intermediates)


def is_pipeline(ir: ProgramIR) -> bool:
    """True when the kernel DAG is a simple chain (image-pipeline shape)."""
    graph = kernel_dag(ir)
    raw_edges = [
        (u, v) for u, v, d in graph.edges(data=True) if d.get("kind") == "RAW"
    ]
    return len(raw_edges) >= len(ir.kernels) - 1 and graph.is_acyclic()
