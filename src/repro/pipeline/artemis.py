"""The end-to-end ARTEMIS flow (paper Section VII).

Steps, mirroring the paper's summary:

1. generate a baseline version from the DSL pragmas (seed plan + user
   ``#assign`` constraints + automatic resource assignment);
2. profile the baseline to determine (un)profitable optimizations and
   prune the autotuning space (Section IV);
3. hierarchically autotune the kernel (Section V), then re-profile the
   winner for bottlenecks and emit textual hints;
4. when profiling flags register pressure, generate and evaluate the
   fission candidates (Section VI-B); when it flags residual DRAM
   bandwidth-boundedness with shared memory, also evaluate the global-
   memory version;
5. for iterative stencils, deep-tune the fusion degree and solve the
   ``opt(T)`` schedule for the requested iteration count (Section VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..codegen.generator import lower, schedule_tflops
from ..codegen.plan import GMEM, KernelPlan, ProgramPlan
from ..codegen.resources import auto_assign, seed_plan_from_pragma
from ..gpu.device import DeviceSpec, P100
from ..gpu.simulator import PlanInfeasible
from ..ir.stencil import ProgramIR
from ..obs import span as _span
from ..obs.search import log_context as _log_context
from ..profiling.advisor import Advice, advise
from ..resilience.checkpoint import TuningJournal
from ..tuning.deeptuning import (
    DeepTuningResult,
    deep_tune,
    fusion_schedule,
    schedule_to_program_plan,
)
from ..tuning.evaluator import EvalStats, PlanEvaluator
from ..tuning.fission import (
    FissionCandidate,
    dedupe_candidates,
    generate_fission_candidates,
)
from ..tuning.hierarchical import HierarchicalTuner


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of the full ARTEMIS flow on one program."""

    ir: ProgramIR
    schedule: ProgramPlan
    tflops: float
    variant: str  # 'tuned' | 'maxfuse' | 'trivial-fission' | ...
    hints: Tuple[str, ...] = ()
    advice: Tuple[Advice, ...] = ()
    deep_tuning: Optional[DeepTuningResult] = None
    fission_candidates: Tuple[FissionCandidate, ...] = ()
    evaluations: int = 0
    eval_stats: Optional[EvalStats] = None


def optimize(
    source_or_ir: Union[str, ProgramIR],
    device: DeviceSpec = P100,
    iterations: Optional[int] = None,
    explore_fission: bool = True,
    top_k: int = 4,
    evaluator: Optional[PlanEvaluator] = None,
    journal: Optional[TuningJournal] = None,
) -> OptimizationOutcome:
    """Run the end-to-end ARTEMIS optimization flow.

    One :class:`PlanEvaluator` is shared by every tuning phase of the
    run (per-kernel tuning, fused/fission/global alternatives, deep
    tuning), so any plan the flow revisits is a memo-cache hit.
    ``journal`` checkpoints every evaluated candidate as it completes;
    the journal's records are content-addressed by IR fingerprint, so
    one journal file safely serves every phase (including fission
    variants, which are distinct IRs) and an interrupted run restarted
    with the same journal resumes instead of re-tuning.
    """
    with _span("optimize"):
        with _span("lower"):
            ir = lower(source_or_ir)
        engine = evaluator or PlanEvaluator(device=device)
        stats_before = engine.stats.snapshot()
        outcome = _optimize(
            ir, engine, iterations, explore_fission, top_k, journal
        )
    from dataclasses import replace

    outcome = replace(outcome, eval_stats=engine.stats.since(stats_before))
    if engine.search_log is not None:
        engine.search_log.winner(outcome)
    return outcome


def _optimize(
    ir: ProgramIR,
    engine: PlanEvaluator,
    iterations: Optional[int],
    explore_fission: bool,
    top_k: int,
    journal: Optional[TuningJournal] = None,
) -> OptimizationOutcome:
    device = engine.device
    if ir.is_iterative and len(ir.kernels) == 1:
        return _optimize_iterative(
            ir, device, iterations, top_k, engine, journal
        )
    if ir.is_iterative:
        # Multi-statement iterative DAGs (e.g. denoise): fuse the DAG
        # into one kernel, deep-tune the time dimension, and keep the
        # per-step (unfused-time) schedule as the fallback.
        from ..tuning.fusion import maxfuse

        fused = maxfuse(ir)
        spatial = _optimize_spatial(
            ir, device, explore_fission, top_k, engine, journal
        )
        if len(fused.kernels) == 1:
            try:
                fused_outcome = _optimize_iterative(
                    fused, device, iterations, top_k, engine, journal
                )
            except (PlanInfeasible, ValueError):
                return spatial
            if fused_outcome.tflops > spatial.tflops:
                return fused_outcome
        return spatial
    return _optimize_spatial(
        ir, device, explore_fission, top_k, engine, journal
    )


# ---------------------------------------------------------------------------
# iterative programs: deep tuning + opt(T)
# ---------------------------------------------------------------------------


def _optimize_iterative(
    ir: ProgramIR,
    device: DeviceSpec,
    iterations: Optional[int],
    top_k: int,
    evaluator: Optional[PlanEvaluator] = None,
    journal: Optional[TuningJournal] = None,
) -> OptimizationOutcome:
    steps = iterations if iterations is not None else ir.time_iterations
    deep = deep_tune(
        ir, device=device, top_k=top_k, evaluator=evaluator, journal=journal
    )
    schedule = fusion_schedule(deep, steps)
    program_plan = schedule_to_program_plan(deep, schedule)
    tflops = schedule_tflops(ir, program_plan, device)
    hints = (
        f"deep tuning explored fusion degrees 1..{deep.k}; tipping point "
        f"at {deep.tipping_point}",
        f"schedule for T={steps}: {schedule.describe()}",
    )
    return OptimizationOutcome(
        ir=ir,
        schedule=program_plan,
        tflops=tflops,
        variant="deep-tuned",
        hints=hints,
        deep_tuning=deep,
        evaluations=deep.evaluations,
    )


# ---------------------------------------------------------------------------
# spatial programs: profile -> tune -> fission/global alternatives
# ---------------------------------------------------------------------------


def _optimize_spatial(
    ir: ProgramIR,
    device: DeviceSpec,
    explore_fission: bool,
    top_k: int,
    evaluator: Optional[PlanEvaluator] = None,
    journal: Optional[TuningJournal] = None,
) -> OptimizationOutcome:
    log = evaluator.search_log if evaluator is not None else None
    with _log_context(log, variant="tuned"):
        schedule, advice_list, evaluations = _tune_kernels(
            ir, device, top_k, evaluator=evaluator, journal=journal
        )
    best_tflops = schedule_tflops(ir, schedule, device)
    best = OptimizationOutcome(
        ir=ir,
        schedule=schedule,
        tflops=best_tflops,
        variant="tuned",
        hints=tuple(h for a in advice_list for h in a.hints),
        advice=tuple(advice_list),
        evaluations=evaluations,
    )

    wants_fission = any(a.explore_fission for a in advice_list)
    wants_global = any(a.generate_global_version for a in advice_list)
    candidates: Tuple[FissionCandidate, ...] = ()

    # Multi-kernel spatial DAGs: fusing stages eliminates intermediate
    # arrays' global traffic (Section VI) — evaluate the fused form.
    if len(ir.kernels) > 1:
        from ..tuning.fusion import maxfuse

        fused_ir = maxfuse(ir)
        if len(fused_ir.kernels) < len(ir.kernels):
            try:
                with _log_context(log, variant="dag-fused"):
                    f_schedule, f_advice, f_evals = _tune_kernels(
                        fused_ir, device, top_k, evaluator=evaluator,
                        journal=journal,
                    )
                f_tflops = schedule_tflops(fused_ir, f_schedule, device)
                if f_tflops > best.tflops:
                    best = OptimizationOutcome(
                        ir=fused_ir,
                        schedule=f_schedule,
                        tflops=f_tflops,
                        variant="dag-fused",
                        hints=best.hints
                        + ("fusing the kernel DAG eliminates intermediate "
                           "array traffic",),
                        advice=tuple(f_advice),
                        evaluations=best.evaluations + f_evals,
                    )
            except PlanInfeasible:
                pass

    if explore_fission and wants_fission:
        candidates = generate_fission_candidates(ir, search_log=log)
        for candidate in dedupe_candidates(candidates):
            if candidate.label == "maxfuse" and len(candidate.ir.kernels) == len(
                ir.kernels
            ):
                continue  # identical to the input
            try:
                with _log_context(log, variant=candidate.label):
                    cand_schedule, cand_advice, cand_evals = _tune_kernels(
                        candidate.ir, device, top_k, evaluator=evaluator,
                        journal=journal,
                    )
            except PlanInfeasible:
                continue
            cand_tflops = schedule_tflops(candidate.ir, cand_schedule, device)
            if cand_tflops > best.tflops:
                best = OptimizationOutcome(
                    ir=candidate.ir,
                    schedule=cand_schedule,
                    tflops=cand_tflops,
                    variant=candidate.label,
                    hints=best.hints
                    + (f"{candidate.label} outperforms the fused kernel",),
                    advice=tuple(cand_advice),
                    fission_candidates=candidates,
                    evaluations=best.evaluations + cand_evals,
                )

    if wants_global:
        with _log_context(log, variant="global"):
            global_schedule, _, g_evals = _tune_kernels(
                ir, device, top_k, force_gmem=True, evaluator=evaluator,
                journal=journal,
            )
        g_tflops = schedule_tflops(ir, global_schedule, device)
        if g_tflops > best.tflops:
            best = OptimizationOutcome(
                ir=ir,
                schedule=global_schedule,
                tflops=g_tflops,
                variant="global",
                hints=best.hints
                + ("global-memory version outperforms shared memory",),
                advice=best.advice,
                fission_candidates=candidates,
                evaluations=best.evaluations + g_evals,
            )
    if candidates and best.variant == "tuned":
        best = OptimizationOutcome(
            ir=best.ir,
            schedule=best.schedule,
            tflops=best.tflops,
            variant=best.variant,
            hints=best.hints,
            advice=best.advice,
            fission_candidates=candidates,
            evaluations=best.evaluations,
        )
    return best


def _tune_kernels(
    ir: ProgramIR,
    device: DeviceSpec,
    top_k: int,
    force_gmem: bool = False,
    evaluator: Optional[PlanEvaluator] = None,
    journal: Optional[TuningJournal] = None,
):
    """Profile-advise-tune every kernel of a program."""
    plans: List[KernelPlan] = []
    advice_list: List[Advice] = []
    evaluations = 0
    log = evaluator.search_log if evaluator is not None else None
    for instance in ir.kernels:
        with _span("planning", kernel=instance.name):
            seed = seed_plan_from_pragma(ir, instance)
            if force_gmem:
                # The global version tiles all three dimensions (§VIII-F:
                # plain tiling beats streaming when nothing is buffered).
                seed = seed.replace(
                    streaming="none",
                    block=(4, 4, 16),
                    placements=tuple(
                        (array, GMEM) for array, _ in seed.placements
                    ),
                )
            else:
                seed = auto_assign(ir, seed, device).plan
        with _span("analysis", kernel=instance.name):
            kernel_advice = advise(ir, seed, device)
        if log is not None:
            log.advice(instance.name, kernel_advice)
        advice_list.append(kernel_advice)
        tuner = HierarchicalTuner(
            ir,
            device=device,
            use_unrolling=kernel_advice.use_unrolling,
            use_register_opts=kernel_advice.use_register_opts,
            bandwidth_bound=not kernel_advice.bottleneck.compute_bound(),
            top_k=top_k,
            evaluator=evaluator,
            journal=journal,
        )
        if not kernel_advice.use_shared_memory:
            seed = seed.replace(
                placements=tuple((a, GMEM) for a, _ in seed.placements)
            )
        result = tuner.tune(seed)
        evaluations += tuner.evaluations
        plans.append(result.best_plan)
    return ProgramPlan(plans=tuple(plans)), advice_list, evaluations
