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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from ..codegen.plan import KernelPlan, REGISTER_LEVELS
from ..gpu.device import DeviceSpec, P100

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


def seed_variants(
    plan: KernelPlan, space: SearchSpace
) -> Iterator[KernelPlan]:
    """Stage-1 variants: block size x unroll factors over the base plan."""
    for block in space.block_candidates():
        for unroll in space.unroll_candidates():
            yield plan.replace(block=block, unroll=unroll)
