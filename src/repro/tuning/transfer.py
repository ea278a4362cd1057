"""Transfer tuning: warm-start one device's search from another's journal.

A finished tuning run leaves behind a :class:`TuningJournal` of every
candidate it priced.  Those records are *wrong* as timings on any other
device — which is why checkpoint resume refuses across devices
(:class:`~repro.resilience.errors.CheckpointDeviceMismatch`) — but the
*shape* of the winners transfers well: the block sizes and unroll
factors that won on a P100 are strong priors for where a V100 search
should look.  Transfer tuning exploits this the sanctioned way:

* :func:`journaled_winners` reads a foreign journal **offline** (no
  replay, no device check — timings are never reused) and extracts the
  best recorded plans for a given stencil;
* :class:`WarmStartTuner` narrows the stage-1 block x unroll sweep to
  the winners' configurations plus an adjustable power-of-two
  neighborhood, falling back to the full sweep if the projection is
  empty — a foreign journal can shrink the search, never brick it;
* :func:`transfer_tune` / :func:`transfer_deep_tune` wire the two into
  the standard :func:`~repro.tuning.hierarchical.tune_kernel` and
  :func:`~repro.tuning.deeptuning.deep_tune` entry points.

Stage 2 runs untouched on the surviving candidates, so second-tier
knobs (prefetch, concurrent streaming, perspectives, retiming, folding)
are still explored from scratch on the target device.  The search-cost
savings are measured by ``benchmarks/bench_transfer.py`` and gated in
``BENCH_transfer.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple, Union

from ..codegen.plan import KernelPlan
from ..gpu.device import DeviceSpec, P100
from ..ir.stencil import ProgramIR
from ..resilience.checkpoint import (
    TuningJournal,
    ir_fingerprint,
    plan_from_dict,
)
from .deeptuning import DeepTuningResult, deep_tune
from .hierarchical import HierarchicalTuner, TuningResult
from .space import CandidateTable, SearchSpace

__all__ = [
    "DEFAULT_NEIGHBORHOOD",
    "DEFAULT_SEED_LIMIT",
    "TransferSeed",
    "WarmStartTuner",
    "journaled_winners",
    "transfer_deep_tune",
    "transfer_tune",
]

#: Power-of-two rings explored around each seed configuration (one ring
#: = every single-knob halve/double of a kept configuration).  Two
#: rings is the validated default: on the benchmarked P100 -> V100
#: transfer it reproduces the cold search's winner at every fusion
#: degree while pricing roughly half the candidates
#: (``benchmarks/bench_transfer.py``); one ring saves more (~80%) but
#: can land on a different — equal-or-slower — winner.
DEFAULT_NEIGHBORHOOD = 2

#: Distinct seed configurations mined from the source journal.  The
#: journal records *every* priced candidate, not just winners, so an
#: unlimited read would reconstruct the full sweep and save nothing.
DEFAULT_SEED_LIMIT = 16

JournalSource = Union[str, "os.PathLike", TuningJournal]


@dataclass(frozen=True)
class TransferSeed:
    """One winner mined from a source-device journal.

    ``time_s``/``tflops`` are the *source* device's model numbers —
    useful for ranking seeds, meaningless as target timings.
    """

    plan: KernelPlan
    time_s: float
    tflops: float
    source_device: Optional[str] = None

    @property
    def signature(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return _signature(self.plan)


def _signature(plan: KernelPlan) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The stage-1 coordinates of a plan: (block, unroll).

    Deliberately excludes every second-tier knob (retime, prefetch,
    streaming mode, time tile): seeds only steer *where* stage 1 looks,
    and retimed twins must travel with their parent variant.
    """
    return (tuple(plan.block), tuple(plan.unroll))


def journaled_winners(
    source: JournalSource,
    ir: ProgramIR,
    limit: Optional[int] = DEFAULT_SEED_LIMIT,
) -> Tuple[TransferSeed, ...]:
    """Best recorded plans for ``ir`` in a (foreign) journal.

    ``source`` is a journal path or an open :class:`TuningJournal`.  A
    path is opened with ``device=None`` — reading a foreign journal is
    the sanctioned cross-device use, so no mismatch check applies and
    nothing is replayed.  Records are filtered to this stencil by IR
    fingerprint, deduplicated by stage-1 signature (best time kept) and
    returned fastest-first, at most ``limit`` of them (``None`` = all).
    """
    owned = not isinstance(source, TuningJournal)
    journal = TuningJournal(os.fspath(source)) if owned else source
    try:
        prefix = f"{ir_fingerprint(ir)}:"
        best: dict = {}
        for record in journal.records():
            key = record.get("key", "")
            if not key.startswith(prefix):
                continue
            plan_dict = record.get("plan")
            time_s = record.get("time_s")
            if plan_dict is None or time_s is None:
                continue  # infeasible candidate: nothing to transfer
            plan = plan_from_dict(plan_dict)
            sig = _signature(plan)
            seed = TransferSeed(
                plan=plan,
                time_s=time_s,
                tflops=record.get("tflops", 0.0),
                source_device=journal.recorded_device,
            )
            held = best.get(sig)
            if held is None or seed.time_s < held.time_s:
                best[sig] = seed
    finally:
        if owned:
            journal.close()
    winners = sorted(best.values(), key=lambda s: s.time_s)
    if limit is not None:
        winners = winners[: max(0, limit)]
    return tuple(winners)


class WarmStartTuner(HierarchicalTuner):
    """Hierarchical tuner whose stage 1 is seeded by foreign winners.

    The full block x unroll sweep is generated, then filtered to the
    configurations whose (block, unroll) signature lies within
    ``neighborhood`` power-of-two rings of any seed — so every kept
    candidate is still a legal member of the target device's own
    :class:`~repro.tuning.space.SearchSpace` (limits differ across
    devices; an MI100 seed of 64 threads/warp never smuggles an
    undersized block onto an NVIDIA part).  An empty projection falls
    back to the full sweep.  Stage 2 is inherited unchanged.
    """

    def __init__(
        self,
        ir: ProgramIR,
        seeds: Sequence[TransferSeed] = (),
        neighborhood: int = DEFAULT_NEIGHBORHOOD,
        **tuner_kwargs,
    ):
        super().__init__(ir, **tuner_kwargs)
        self.seeds = tuple(seeds)
        self.neighborhood = max(0, int(neighborhood))
        #: sweep sizes of the last stage 1, for cost reporting:
        #: ``stage1_full`` is what a cold search would have measured,
        #: ``stage1_kept`` what the warm start actually submitted.
        self.stage1_full = 0
        self.stage1_kept = 0

    def _warm_signatures(self) -> Set[tuple]:
        allowed: Set[tuple] = {seed.signature for seed in self.seeds}
        frontier = set(allowed)
        for _ in range(self.neighborhood):
            ring: Set[tuple] = set()
            for block, unroll in frontier:
                for axis in range(len(block)):
                    for scaled in (block[axis] * 2, block[axis] // 2):
                        if scaled >= 1:
                            moved = list(block)
                            moved[axis] = scaled
                            ring.add((tuple(moved), unroll))
                for axis in range(len(unroll)):
                    for scaled in (unroll[axis] * 2, unroll[axis] // 2):
                        if scaled >= 1:
                            moved = list(unroll)
                            moved[axis] = scaled
                            ring.add((block, tuple(moved)))
            frontier = ring - allowed
            allowed |= ring
        return allowed

    def _stage1_candidates(
        self, base: KernelPlan, space: SearchSpace
    ) -> Sequence[KernelPlan]:
        full = super()._stage1_candidates(base, space)
        self.stage1_full = len(full)
        if not self.seeds:
            self.stage1_kept = len(full)
            return full
        allowed = self._warm_signatures()
        if isinstance(full, CandidateTable):
            kept = full.select(
                i for i, signature in enumerate(full.signatures())
                if signature in allowed
            )
        else:
            kept = [plan for plan in full if _signature(plan) in allowed]
        if not len(kept):
            # The seeds project entirely outside this device's space
            # (different dimensionality, disjoint limits): a warm start
            # may never brick the search, so sweep cold.
            kept = full
        self.stage1_kept = len(kept)
        return kept


def transfer_tune(
    ir: ProgramIR,
    base: KernelPlan,
    source: JournalSource,
    device: DeviceSpec = P100,
    neighborhood: int = DEFAULT_NEIGHBORHOOD,
    seed_limit: Optional[int] = DEFAULT_SEED_LIMIT,
    **tuner_kwargs,
) -> TuningResult:
    """:func:`~repro.tuning.hierarchical.tune_kernel`, warm-started.

    Mines ``source`` for this stencil's winners and tunes ``base`` on
    ``device`` with the narrowed stage-1 sweep.  All remaining keyword
    arguments flow to :class:`WarmStartTuner` /
    :class:`~repro.tuning.hierarchical.HierarchicalTuner`.
    """
    seeds = journaled_winners(source, ir, limit=seed_limit)
    tuner = WarmStartTuner(
        ir,
        seeds=seeds,
        neighborhood=neighborhood,
        device=device,
        **tuner_kwargs,
    )
    return tuner.tune(base)


def transfer_deep_tune(
    ir: ProgramIR,
    source: JournalSource,
    device: DeviceSpec = P100,
    neighborhood: int = DEFAULT_NEIGHBORHOOD,
    seed_limit: Optional[int] = DEFAULT_SEED_LIMIT,
    **deep_kwargs,
) -> DeepTuningResult:
    """:func:`~repro.tuning.deeptuning.deep_tune`, warm-started.

    Every fusion degree's inner tuner is a :class:`WarmStartTuner`
    seeded from ``source``.  Seeds are mined once: the (block, unroll)
    signature ignores the time tile, so winners recorded at any source
    degree steer every target degree.
    """
    seeds = journaled_winners(source, ir, limit=seed_limit)

    def make_tuner(inner_ir, **tuner_kwargs):
        return WarmStartTuner(
            inner_ir,
            seeds=seeds,
            neighborhood=neighborhood,
            **tuner_kwargs,
        )

    return deep_tune(ir, device=device, make_tuner=make_tuner, **deep_kwargs)
