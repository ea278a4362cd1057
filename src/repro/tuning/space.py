"""Pruned autotuning search space (paper Section V).

The autotuner prunes the configuration space with three choices that
"conform to the tuned parameters discovered by other autotuners":

1. block sizes and unroll factors are powers of two per dimension;
2. block sizes are in [4, 256] per dimension (total ≤ device limit);
3. unroll factors are ≤ 8 for bandwidth-bound stencils and ≤ 4 for
   compute-bound ones.

Unrolled versions are ordered so the statement count after unrolling
(``uz*uy*ux``) increases monotonically, letting the tuner escalate the
per-thread register budget (32 → 64 → 128 → 255) and skip spilling
configurations.

Stage 1's block x unroll sweep is a :class:`CandidateTable`: index
arrays over the space's block and unroll tuples.  Like a tile pyramid
that derives a tile from its (zoom, row, col) index instead of storing
one, the table derives a candidate's :class:`KernelPlan` from its index
only when something reads it, and the evaluation engine prices the
sweep straight from the index columns.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..codegen.plan import KernelPlan, REGISTER_LEVELS
from ..codegen.tiling import family_key_factory
from ..gpu.device import DeviceSpec, P100
from ..gpu.pricing import LaneGrid

BLOCK_MIN = 4
BLOCK_MAX = 256
UNROLL_MAX_BANDWIDTH = 8
UNROLL_MAX_COMPUTE = 4


def _powers_of_two(lo: int, hi: int) -> Tuple[int, ...]:
    out: List[int] = []
    value = lo
    while value <= hi:
        out.append(value)
        value *= 2
    return tuple(out)


@dataclass(frozen=True)
class SearchSpace:
    """The pruned candidate space for one kernel."""

    ndim: int
    streaming: bool
    bandwidth_bound: bool = True
    allow_unroll: bool = True
    device: DeviceSpec = P100

    @property
    def tiled_dims(self) -> int:
        return self.ndim - 1 if self.streaming else self.ndim

    def block_candidates(self) -> Tuple[Tuple[int, ...], ...]:
        """Power-of-two blocks within [4, 256] per dim and device limits."""
        sizes = _powers_of_two(BLOCK_MIN, BLOCK_MAX)
        out: List[Tuple[int, ...]] = []
        for combo in itertools.product(sizes, repeat=self.tiled_dims):
            threads = 1
            for extent in combo:
                threads *= extent
            if threads < self.device.warp_size:
                continue
            if threads > self.device.max_threads_per_block:
                continue
            out.append(combo)
        return tuple(out)

    def unroll_candidates(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-axis unroll factors, ordered by total unroll (monotone)."""
        if not self.allow_unroll:
            return (tuple([1] * self.ndim),)
        cap = (
            UNROLL_MAX_BANDWIDTH
            if self.bandwidth_bound
            else UNROLL_MAX_COMPUTE
        )
        factors = _powers_of_two(1, cap)
        combos: List[Tuple[int, ...]] = []
        for combo in itertools.product(factors, repeat=self.ndim):
            if self.streaming and combo[0] != 1:
                continue  # no unrolling along the serial sweep
            total = 1
            for factor in combo:
                total *= factor
            if total > cap:
                continue
            combos.append(combo)
        combos.sort(key=lambda c: (self._total(c), c))
        return tuple(combos)

    @staticmethod
    def _total(combo: Sequence[int]) -> int:
        total = 1
        for factor in combo:
            total *= factor
        return total

    def register_levels(self) -> Tuple[int, ...]:
        return REGISTER_LEVELS

    def size(self) -> int:
        """Candidate count of the pruned (block x unroll) space."""
        return len(self.block_candidates()) * len(self.unroll_candidates())


def exhaustive_space_size(ndim: int, streaming: bool) -> int:
    """Rough census of an *unpruned* OpenTuner-style space.

    Every block extent in [1, 1024], every unroll in [1, 16], four
    register levels, boolean prefetch, three perspectives, three
    streaming modes — the combinatorial space Section V contrasts
    hierarchical tuning against (OpenTuner took > 24h on it).
    """
    dims = ndim - 1 if streaming else ndim
    blocks = 1024 ** dims
    unrolls = 16 ** ndim
    return blocks * unrolls * len(REGISTER_LEVELS) * 2 * 3 * 3


class CandidateTable(SequenceABC):
    """Candidates over one base plan, as index arrays.

    Candidate ``i`` is ``base`` with ``block=blocks[block_index[i]]``,
    ``unroll=unrolls[unroll_index[i]]`` and ``retime=retime[i]``.
    ``table[i]`` derives that :class:`KernelPlan` on first read (and
    returns the same object after), so a sweep whose candidates are
    priced, screened and ranked as lanes builds plans only for the few
    a caller keeps.
    """

    def __init__(
        self,
        base: KernelPlan,
        blocks: Sequence[Tuple[int, ...]],
        unrolls: Sequence[Tuple[int, ...]],
        block_index: np.ndarray,
        unroll_index: np.ndarray,
        retime: np.ndarray,
    ):
        self.base = base
        self.blocks = tuple(blocks)
        self.unrolls = tuple(unrolls)
        self.block_index = block_index
        self.unroll_index = unroll_index
        self.retime = retime
        self._plans: Dict[int, KernelPlan] = {}

    @classmethod
    def sweep(
        cls, base: KernelPlan, space: SearchSpace, retimed_twins: bool = False
    ) -> "CandidateTable":
        """Block x unroll over ``base``, block-major, unrolls in the
        space's monotone order.  With ``retimed_twins`` each candidate
        without unrolling is followed by its retimed shape."""
        blocks = space.block_candidates()
        unrolls = space.unroll_candidates()
        reps = np.ones(len(unrolls), np.int64)
        if retimed_twins:
            reps += [SearchSpace._total(u) == 1 for u in unrolls]
        reps = np.tile(reps, len(blocks))
        block_index = np.repeat(
            np.repeat(np.arange(len(blocks)), len(unrolls)), reps
        )
        unroll_index = np.repeat(
            np.tile(np.arange(len(unrolls)), len(blocks)), reps
        )
        retime = np.full(len(block_index), base.retime)
        retime[(np.cumsum(reps) - 1)[reps == 2]] = True
        return cls(base, blocks, unrolls, block_index, unroll_index, retime)

    def __len__(self) -> int:
        return len(self.block_index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.select(range(*index.indices(len(self))))
        if not -len(self) <= index < len(self):
            raise IndexError(index)
        index %= len(self)
        plan = self._plans.get(index)
        if plan is None:
            changes = {
                "block": self.blocks[self.block_index[index]],
                "unroll": self.unrolls[self.unroll_index[index]],
            }
            if self.retime[index] != self.base.retime:
                changes["retime"] = bool(self.retime[index])
            plan = self._plans[index] = self.base.replace(**changes)
        return plan

    def signatures(self) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Each candidate's stage-1 coordinates: (block, unroll)."""
        blocks, unrolls = self.blocks, self.unrolls
        return [
            (blocks[b], unrolls[u])
            for b, u in zip(
                self.block_index.tolist(), self.unroll_index.tolist()
            )
        ]

    def select(self, indexes: Iterable[int]) -> "CandidateTable":
        """The candidates at ``indexes``, in that order."""
        rows = np.asarray(list(indexes), dtype=np.int64)
        return CandidateTable(
            self.base, self.blocks, self.unrolls,
            self.block_index[rows], self.unroll_index[rows], self.retime[rows],
        )

    def families(self) -> List[Tuple[KernelPlan, np.ndarray, LaneGrid]]:
        """``(proto, positions, grid)`` per structural family, in order
        of first appearance: the candidates sharing a retime setting
        differ only along the grid axes."""
        out = []
        for retime in dict.fromkeys(self.retime.tolist()):
            positions = np.flatnonzero(self.retime == retime)
            grid = LaneGrid(
                blocks=self.blocks,
                block_index=self.block_index[positions],
                unrolls=self.unrolls,
                unroll_index=self.unroll_index[positions],
                unroll_blocked=np.full(
                    len(positions), self.base.unroll_blocked
                ),
                max_registers=np.full(
                    len(positions), self.base.max_registers, np.int64
                ),
            )
            out.append((self[int(positions[0])], positions, grid))
        return out

    def family_keys(self) -> Set[tuple]:
        """The plan family key of every candidate."""
        keys: Set[tuple] = set()
        for proto, _, grid in self.families():
            key = family_key_factory(proto)
            keys.update(
                key(self.blocks[b], self.unrolls[u], proto.unroll_blocked)
                for b, u in zip(
                    grid.block_index.tolist(), grid.unroll_index.tolist()
                )
            )
        return keys


def seed_variants(
    plan: KernelPlan, space: SearchSpace
) -> Iterator[KernelPlan]:
    """Stage-1 variants: block size x unroll factors over the base plan."""
    return iter(CandidateTable.sweep(plan, space))
