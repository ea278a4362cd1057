"""Shared plan-evaluation engine: one memoized request pipeline.

Every result in this repository flows through repeated invocations of
the analytical model — hierarchical autotuning (§V), deep tuning's
per-degree sweeps (§VI-A), fission search (§VI-B), random search and the
baseline generators all price candidate :class:`KernelPlan`s.  A fast
analytical model is only a net win while evaluation cost stays
negligible next to the search-space size, so all search code routes
measurements through one :class:`PlanEvaluator`.  Every entry point —
one plan or a batch, plain or spill-free — runs the same pipeline:

1. **group** the plans by structural key
   (:func:`~repro.codegen.tiling.plan_structural_key`);
2. **validate** each family and run its **legality screen**
   (:func:`~repro.lint.rules_plan.fusion_rejection`: the RL3xx
   certifier) once — both are family-stable;
3. **filter the memo** — results are cached by a content address
   (plan fingerprint + IR identity + device), so duplicate variants are
   never priced twice; memoized and fresh paths return the very same
   :class:`SimulationResult` objects;
4. **price** through :func:`repro.gpu.pricing.price`, which picks the
   scalar model or one vectorized family pass and, in spill-free mode,
   resolves the paper's register ladder (32 → 64 → 128 → 255) from the
   register-independent demand instead of simulating spilling rungs;
5. **finalize** each lane as one request: occupancy screen, fault
   injection, memo write, one search-log event, stats.

Batches run serially, in input order, in the caller's process: pricing
one candidate costs tens of microseconds, so worker start-up and the
GIL cost more than they could save (``docs/performance_model.md``).

Every batch job is guarded: an unexpected (non-infeasibility) exception
in one candidate is captured per-job and resolved by the engine's
``on_error`` policy (``fail-fast`` | ``skip`` | ``degrade``) instead of
killing the whole batch; per-evaluation timeouts, bounded
retry-with-backoff and a failure budget bound the blast radius of bad
candidates, and a seedable :class:`~repro.resilience.FaultInjector` can
be attached to exercise each of those paths deterministically
(``docs/robustness.md``).  Hits, misses, avoided simulations, wall-clock
and the failure/retry/timeout counters surface through tuning results,
``pipeline.report`` and the ``--eval-stats`` CLI flag, per phase via
:meth:`PlanEvaluator.phase`.

Evaluation accounting is uniform: one *request* per candidate plan
submitted (feasible, spilling or infeasible alike), independent of how
many register rungs the escalation needed.  Tuners count evaluations the
same way.  (Retries and degraded-mode re-runs do add extra requests —
they are extra trips into the model — but are tallied separately in
``retries``/``degraded``.)
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..codegen.plan import KernelPlan, REGISTER_LEVELS
from ..codegen.resources import InvalidPlan, validate_plan
from ..codegen.tiling import plan_family_key, plan_structural_key
from ..gpu.counters import SimulationResult
from ..gpu.device import DeviceSpec, P100
from ..gpu.pricing import price
from ..gpu.simulator import PlanInfeasible, simulate
from ..ir.stencil import ProgramIR
from ..lint.rules_plan import _count_rejection, fusion_rejection
from ..obs import span as _span
from ..obs.search import SearchLog
from ..resilience import (
    ON_ERROR_POLICIES,
    EvaluationError,
    EvaluationTimeout,
    FailureBudget,
    FaultInjector,
    RetryPolicy,
    UsageError,
)

#: Exceptions that mark a candidate as infeasible rather than a bug.
INFEASIBLE = (PlanInfeasible, InvalidPlan)


def _obs_count(name: str, value: int = 1) -> None:
    """Live resilience counters (distinct from ``EvalStats.publish``'s
    ``eval.*`` prefix, so end-of-run publication never double-counts)."""
    from ..obs import counter, metrics_enabled

    if metrics_enabled():
        counter(name).add(value)


def _count_occupancy_screen(code: Optional[str]) -> None:
    """Mirror ``plan_occupancy``'s rejection counters for a priced lane."""
    from ..obs import counter, metrics_enabled

    if metrics_enabled():
        counter("simulate.prescreen_rejections").add()
        counter(f"lint.reject.{code}").add()


@dataclass(frozen=True)
class Measurement:
    """One evaluated candidate."""

    plan: KernelPlan
    time_s: float
    tflops: float


#: Retained :class:`FailureRecord` entries per engine (diagnostics only;
#: the ``failures`` counter stays exact past the cap).
MAX_FAILURE_RECORDS = 100


@dataclass(frozen=True)
class FailureRecord:
    """One persistently failed candidate evaluation."""

    plan: str  # plan.describe() of the failing candidate
    error: str  # exception class name
    message: str


@dataclass
class EvalStats:
    """Cache and throughput statistics of one evaluation engine.

    Two time counters with distinct semantics:

    * ``wall_s`` — real elapsed time during which *at least one* thread
      was inside the engine (overlapping busy intervals are merged, so
      a watchdog thread abandoned by ``--eval-timeout`` that is still
      running does not double-bill);
    * ``cpu_s`` — per-thread time summed over those threads (it exceeds
      ``wall_s`` only while such threads overlap).
    """

    requests: int = 0  # candidate evaluations requested
    hits: int = 0  # served from the result cache
    misses: int = 0  # went to the model (screened or fully simulated)
    infeasible: int = 0  # requests that turned out infeasible
    rungs_skipped: int = 0  # escalation rungs resolved without simulating
    screened: int = 0  # rejected by the occupancy screen, not simulated
    lint_rejections: int = 0  # screened rejections carrying a lint rule code
    vectorized: int = 0  # priced via the vectorized family backend
    failures: int = 0  # candidates that failed persistently (non-infeasible)
    retries: int = 0  # transient-failure retries performed
    timeouts: int = 0  # evaluations that exceeded the per-eval deadline
    degraded: int = 0  # candidates recovered via the degraded path
    wall_s: float = 0.0  # real time the engine was busy (intervals merged)
    cpu_s: float = 0.0  # summed per-thread time inside the engine

    @property
    def simulations(self) -> int:
        """Candidates priced by the model (scalar *or* vectorized).

        ``misses - screened`` — the logical count of full prices the
        engine produced.  ``vectorized`` of these came from the family
        backend; the remainder were scalar ``simulate`` calls.
        """
        return self.misses - self.screened

    @property
    def simulations_avoided(self) -> int:
        """Simulator invocations removed by memoization + incrementality."""
        return self.hits + self.rungs_skipped + self.screened

    def snapshot(self) -> "EvalStats":
        return EvalStats(
            requests=self.requests,
            hits=self.hits,
            misses=self.misses,
            infeasible=self.infeasible,
            rungs_skipped=self.rungs_skipped,
            screened=self.screened,
            lint_rejections=self.lint_rejections,
            vectorized=self.vectorized,
            failures=self.failures,
            retries=self.retries,
            timeouts=self.timeouts,
            degraded=self.degraded,
            wall_s=self.wall_s,
            cpu_s=self.cpu_s,
        )

    def since(self, before: "EvalStats") -> "EvalStats":
        """Difference of two snapshots: activity between them."""
        return EvalStats(
            requests=self.requests - before.requests,
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            infeasible=self.infeasible - before.infeasible,
            rungs_skipped=self.rungs_skipped - before.rungs_skipped,
            screened=self.screened - before.screened,
            lint_rejections=self.lint_rejections - before.lint_rejections,
            vectorized=self.vectorized - before.vectorized,
            failures=self.failures - before.failures,
            retries=self.retries - before.retries,
            timeouts=self.timeouts - before.timeouts,
            degraded=self.degraded - before.degraded,
            wall_s=self.wall_s - before.wall_s,
            cpu_s=self.cpu_s - before.cpu_s,
        )

    def add(self, other: "EvalStats") -> None:
        """Accumulate another snapshot/delta into this one in place."""
        self.requests += other.requests
        self.hits += other.hits
        self.misses += other.misses
        self.infeasible += other.infeasible
        self.rungs_skipped += other.rungs_skipped
        self.screened += other.screened
        self.lint_rejections += other.lint_rejections
        self.vectorized += other.vectorized
        self.failures += other.failures
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.degraded += other.degraded
        self.wall_s += other.wall_s
        self.cpu_s += other.cpu_s

    @property
    def hit_rate(self) -> float:
        """Cache hits per request (0.0 on an idle engine)."""
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "infeasible": self.infeasible,
            "rungs_skipped": self.rungs_skipped,
            "screened": self.screened,
            "lint_rejections": self.lint_rejections,
            "vectorized": self.vectorized,
            "failures": self.failures,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "degraded": self.degraded,
            "simulations": self.simulations,
            "simulations_avoided": self.simulations_avoided,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }

    def publish(self, prefix: str = "eval") -> None:
        """Mirror these statistics into the process metrics registry."""
        from ..obs import metrics_enabled, counter, histogram

        if not metrics_enabled():
            return
        for name, value in self.as_dict().items():
            if name in ("wall_s", "cpu_s"):
                histogram(f"{prefix}.{name}").observe(value)
            else:
                counter(f"{prefix}.{name}").add(value)

    def describe(self) -> str:
        text = (
            f"{self.requests} requests, {self.hits} cache hits, "
            f"{self.simulations} priced "
            f"[{self.vectorized} vectorized], {self.rungs_skipped} rungs "
            f"skipped, {self.screened} screened "
            f"[{self.lint_rejections} by lint rule] "
            f"({self.simulations_avoided} simulations avoided), "
            f"{self.wall_s * 1e3:.1f} ms wall "
            f"({self.cpu_s * 1e3:.1f} ms cpu-sum)"
        )
        if self.failures or self.retries or self.timeouts or self.degraded:
            text += (
                f"; {self.failures} failures ({self.retries} retries, "
                f"{self.timeouts} timeouts, {self.degraded} degraded "
                f"recoveries)"
            )
        return text


def plan_fingerprint(plan: KernelPlan, include_registers: bool = True) -> str:
    """Stable, content-addressed hex fingerprint of a plan.

    Two plans fingerprint identically iff every code-generation decision
    they encode is identical; with ``include_registers=False`` the
    register cap is factored out (the plan *family* — what the
    register-independent simulation prefix is keyed by).
    """
    payload = repr(plan_family_key(plan))
    if include_registers:
        payload += f"|regs={plan.max_registers}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class PlanEvaluator:
    """Single evaluation front-end for every tuner and baseline.

    One evaluator serves any number of programs (results are keyed by IR
    identity, with a strong reference held so ids are never recycled)
    but exactly one device.  Failures are memoized alongside successes,
    so repeatedly probing an infeasible configuration costs one lookup.

    Batches run serially on the caller's thread.  With ``timeout_s``
    each evaluation runs on a watchdog thread, and one abandoned after
    its deadline may still be running when the next starts; the result
    cache is guarded and the underlying model is pure, so that overlap
    is harmless and deterministic.
    """

    def __init__(
        self,
        device: DeviceSpec = P100,
        validate: bool = True,
        on_error: str = "fail-fast",
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        failure_budget: Optional[object] = None,
        fault_injector: Optional[FaultInjector] = None,
        search_log: Optional[SearchLog] = None,
        reference: bool = False,
    ):
        if on_error not in ON_ERROR_POLICIES:
            raise UsageError(
                f"unknown on_error policy {on_error!r}; "
                f"expected one of {ON_ERROR_POLICIES}"
            )
        if timeout_s is not None and timeout_s <= 0:
            raise UsageError("timeout_s must be positive")
        self.device = device
        #: run ``validate_plan`` before simulating (some baselines probe
        #: raw configurations the way a fixed code generator would,
        #: without the planner's feasibility screen).
        self.validate = validate
        #: what a persistent (post-retry) unexpected failure does to a
        #: batch: abort it, quarantine the candidate, or first try the
        #: degraded path.  See ``repro.resilience.ON_ERROR_POLICIES``.
        self.on_error = on_error
        self.retry = retry
        self.timeout_s = timeout_s
        if failure_budget is None or isinstance(failure_budget, FailureBudget):
            self.failure_budget = failure_budget or FailureBudget(None)
        else:
            self.failure_budget = FailureBudget(int(failure_budget))
        self.fault_injector = fault_injector
        #: candidate-level telemetry sink (``repro.obs.search``): when
        #: set, every request resolved by this engine — cache hits,
        #: screens, infeasibilities, faults included — emits exactly one
        #: ``candidate`` event, so the log mirrors ``stats.requests``.
        self.search_log = search_log
        #: the seed-equivalent reference path (:meth:`seed_mode`).
        self.reference = reference
        #: per-phase activity, accumulated by :meth:`phase` — tuners
        #: wrap their stages so cache behaviour can be reported per
        #: phase instead of as one misleading whole-run ratio.
        self.phase_stats: Dict[str, EvalStats] = {}
        self.stats = EvalStats()
        #: most recent persistent failures, for post-mortem reporting
        #: (bounded; counters in ``stats`` are exact).
        self.failure_records: List[FailureRecord] = []
        #: key -> (ir, ("ok", SimulationResult) | ("fail", exception))
        self._cache: Dict[tuple, tuple] = {}
        self._lock = threading.Lock()
        # Busy-interval tracking for honest wall-clock accounting: the
        # number of threads currently inside the engine and when the
        # current busy interval opened.  ``wall_s`` accumulates merged
        # intervals; ``cpu_s`` sums each thread's outermost frame.
        self._busy = 0
        self._busy_open = 0.0
        self._depth = threading.local()
        # Degraded-mode flag (per thread): when set, the memo-cache read
        # and the occupancy prescreen are bypassed and fault injection
        # is disarmed — the slow-but-conservative path.
        self._degraded = threading.local()

    @classmethod
    def seed_mode(cls, device: DeviceSpec = P100) -> "PlanEvaluator":
        """An engine that replicates the pre-engine evaluation path:

        no memoization, the full 4-rung register ladder, no legality or
        occupancy prescreen, and one scalar ``simulate`` per request.
        Run it on a freshly built IR to also recompute the per-family
        geometry from source: geometry is pinned on the IR it derives
        from, so a rebuilt twin starts cold.  Benchmarks and equivalence
        tests use this as the comparison baseline.
        """
        return cls(device=device, reference=True)

    # -- phase accounting ------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Attribute engine activity inside the block to phase ``name``.

        Deltas accumulate in :attr:`phase_stats`, so re-entering a phase
        (e.g. stage 2 running once per stage-1 survivor) extends its
        bucket.  Phases are flat — tuners label their top-level stages;
        nesting would double-count and is not supported.
        """
        before = self.stats.snapshot()
        try:
            yield
        finally:
            delta = self.stats.since(before)
            with self._lock:
                bucket = self.phase_stats.setdefault(name, EvalStats())
            bucket.add(delta)

    def phase_dict(self) -> Dict[str, Dict[str, float]]:
        """``phase -> as_dict()`` for reports and benchmark baselines."""
        return {
            name: stats.as_dict() for name, stats in self.phase_stats.items()
        }

    # -- timing ----------------------------------------------------------------

    @contextmanager
    def _timed(self):
        """Account engine time: merged-interval wall + per-thread cpu sum.

        Only a thread's *outermost* engine frame participates (nested
        calls — ``try_evaluate`` invoking ``evaluate``, an entry point
        running its jobs — must not double-bill), and overlapping
        frames from an abandoned watchdog thread extend one shared busy
        interval instead of each adding their own full delta.
        """
        depth = getattr(self._depth, "value", 0)
        self._depth.value = depth + 1
        if depth > 0:
            try:
                yield
            finally:
                self._depth.value = depth
            return
        start = time.perf_counter()
        with self._lock:
            if self._busy == 0:
                self._busy_open = start
            self._busy += 1
        try:
            yield
        finally:
            end = time.perf_counter()
            self._depth.value = depth
            with self._lock:
                self.stats.cpu_s += end - start
                self._busy -= 1
                if self._busy == 0:
                    self.stats.wall_s += end - self._busy_open

    # -- entry points ----------------------------------------------------------

    def evaluate(self, ir: ProgramIR, plan: KernelPlan) -> SimulationResult:
        """Validate + price one plan, memoized.

        Raises :class:`PlanInfeasible` / :class:`InvalidPlan` exactly as
        the direct ``validate_plan`` + ``simulate`` path would.
        """
        with self._timed():
            (job,) = self._jobs(ir, [plan], catch=())
            return job()

    def try_evaluate(
        self,
        ir: ProgramIR,
        plan: KernelPlan,
        catch: tuple = INFEASIBLE,
    ) -> Optional[SimulationResult]:
        """Like :meth:`evaluate` but returns None for infeasible plans."""
        try:
            return self.evaluate(ir, plan)
        except catch:
            return None

    def evaluate_spill_free(
        self,
        ir: ProgramIR,
        plan: KernelPlan,
        levels: Sequence[int] = REGISTER_LEVELS,
    ) -> Optional[Tuple[KernelPlan, SimulationResult]]:
        """The paper's dynamic register-increment ladder, incrementally.

        Returns the first (plan, result) along the escalation levels that
        does not spill, or None when the plan is infeasible or spills
        even at the top level.  The register-independent demand picks
        the rung up front, so the spilling rungs below it are skipped
        entirely — the chosen plan and its result are identical to
        walking the full ladder (which :meth:`seed_mode` still does).
        """
        with self._timed():
            (job,) = self._jobs(ir, [plan], levels=tuple(levels))
            return job()

    def evaluate_batch(
        self,
        ir: ProgramIR,
        plans: Iterable[KernelPlan],
        catch: tuple = INFEASIBLE,
        on_result=None,
    ) -> List[Optional[SimulationResult]]:
        """Evaluate many plans, results in input order (None = infeasible)."""
        plans = list(plans)
        jobs = self._jobs(ir, plans, catch=catch)
        return self._run_batch(plans, jobs, on_result)

    def evaluate_spill_free_batch(
        self,
        ir: ProgramIR,
        plans: Iterable[KernelPlan],
        levels: Sequence[int] = REGISTER_LEVELS,
        on_result=None,
    ) -> List[Optional[Tuple[KernelPlan, SimulationResult]]]:
        """Batch variant of :meth:`evaluate_spill_free`, input-ordered."""
        plans = list(plans)
        jobs = self._jobs(ir, plans, levels=tuple(levels))
        return self._run_batch(plans, jobs, on_result)

    # -- the request pipeline --------------------------------------------------

    def _jobs(
        self,
        ir: ProgramIR,
        plans: List[KernelPlan],
        levels: Optional[Tuple[int, ...]] = None,
        catch: tuple = INFEASIBLE,
    ) -> List:
        """One input-ordered job (a thunk) per plan.

        Groups by structural key, validates and screens each family
        once, and has :func:`repro.gpu.pricing.price` quote the family
        (scalar or vectorized); each job then finalizes one plan.
        ``levels`` selects spill-free mode.
        """
        with self._timed():
            groups: Dict[tuple, List[int]] = {}
            for index, plan in enumerate(plans):
                groups.setdefault(plan_structural_key(plan), []).append(index)
            jobs: List = [None] * len(plans)
            for indexes in groups.values():
                family = [plans[i] for i in indexes]
                for i, job in zip(
                    indexes, self._family_jobs(ir, family, levels, catch)
                ):
                    jobs[i] = job
            return jobs

    def _family_jobs(self, ir, family, levels, catch) -> List:
        invalid = None
        if self.validate:
            try:
                validate_plan(ir, family[0])
            except INFEASIBLE as exc:
                invalid = exc
        if levels is not None and self.reference:
            return [
                partial(self._ladder, ir, p, levels, invalid) for p in family
            ]
        if levels is not None and invalid is not None:
            reason = f"infeasible: {invalid}"
            return [partial(self._prune, p, reason) for p in family]
        if self.reference or invalid is not None:
            return [
                partial(self._finalize, ir, p, None, invalid, None, catch)
                for p in family
            ]
        # Transformation legality depends only on family-stable fields,
        # so the certifier runs once per family, not per candidate.
        screen = fusion_rejection(ir, family[0])
        if screen is not None:
            held = set(family)  # screened requests never need a price
        elif levels is None:
            held = {p for p in family if self._memo(ir, self._key(ir, p))}
        else:
            held = ()
        quotes = price(ir, family, self.device, levels, held)
        if levels is not None:
            return [
                partial(self._spill_free, ir, q, screen, levels)
                for q in quotes
            ]
        return [
            partial(self._finalize, ir, q.plan, q.lane, None, screen, catch)
            for q in quotes
        ]

    def _memo(self, ir: ProgramIR, key: tuple) -> Optional[tuple]:
        """The memoized ``(status, value)`` under ``key``, or None."""
        with self._lock:
            hit = self._cache.get(key)
        return hit[1] if hit is not None and hit[0] is ir else None

    def _ladder(self, ir, plan, levels, invalid):
        """The seed path's escalation: request every rung up to the
        first that does not spill."""
        with self._timed():
            for level in levels:
                candidate = plan.replace(max_registers=level)
                try:
                    result = self._request(ir, candidate, None, invalid, None)
                except INFEASIBLE:
                    return None
                if not result.counters.has_spills:
                    return candidate, result
            return None

    def _spill_free(self, ir, quote, screen, levels):
        with self._timed():
            if quote.rung < 0:
                # Spills even at the top level: every rung would have
                # spilled; the seed ladder discarded the candidate too.
                self.stats.rungs_skipped += len(levels)
                return self._prune(
                    quote.plan,
                    f"spills at every register level "
                    f"(demand {quote.demand} > {levels[-1]})",
                )
            self.stats.rungs_skipped += quote.rung
            try:
                result = self._request(ir, quote.plan, quote.lane, None, screen)
            except INFEASIBLE:
                return None
            return quote.plan, result

    def _prune(self, plan: KernelPlan, reason: str) -> None:
        """A candidate resolved without a request (no model run)."""
        if self.search_log is not None:
            self.search_log.prune(
                plan,
                family=plan_fingerprint(plan, include_registers=False),
                reason=reason,
            )

    def _finalize(self, ir, plan, lane, invalid, screen, catch):
        with self._timed():
            try:
                return self._request(ir, plan, lane, invalid, screen)
            except catch:
                return None

    def _request(
        self, ir: ProgramIR, plan: KernelPlan, lane, invalid, screen
    ) -> SimulationResult:
        """One request: memo read, the family's validation failure or
        legality rejection, the occupancy screen, fault injection, the
        price (``lane()``), memo write and exactly one candidate event.

        The reference and degraded paths skip the memo read and both
        screens and run scalar ``simulate`` instead of ``lane``.
        """
        self.stats.requests += 1
        degraded = self._in_degraded_mode()
        conservative = degraded or self.reference
        key = self._key(ir, plan)
        hit = None if conservative else self._memo(ir, key)
        if hit is not None:
            self.stats.hits += 1
            status, value = hit
            if status == "ok":
                self._log_candidate(plan, "cache-hit", result=value)
                return value
            self.stats.infeasible += 1
            self._log_candidate(plan, "cache-hit-infeasible", reason=str(value))
            raise value
        self.stats.misses += 1
        screened = False
        try:
            if invalid is not None:
                raise invalid
            # Legality prescreen: an RL3xx refutation of the family's
            # transformations, or the cheap register-dependent occupancy
            # suffix — candidates the device cannot run (or whose
            # transformations are provably illegal) are rejected without
            # paying for the counter and timing models, and every
            # rejection carries a stable ``RLxxx`` rule code.
            rejection = None
            if not conservative:
                if screen is not None:
                    _count_rejection(screen.code)
                    rejection = (screen.code, screen.message, screen.witness)
                else:
                    priced = lane()
                    if priced.result is None:
                        _count_occupancy_screen(priced.occ_code)
                        rejection = (priced.occ_code, priced.occ_message, None)
            if rejection is not None:
                code, message, witness = rejection
                self.stats.screened += 1
                self.stats.lint_rejections += 1
                screened = True
                # RL3xx refutations carry a counterexample (grid point +
                # event pair); thread it into the exception context so
                # batch telemetry can show *why* the plan is illegal.
                raise PlanInfeasible(
                    f"[{code}] {message}",
                    rule=code,
                    witness=(
                        witness.describe() if witness is not None else None
                    ),
                )
            if self.fault_injector is not None:
                self.fault_injector.invoke(
                    plan_fingerprint(plan), degraded=degraded
                )
            if conservative:
                result = simulate(ir, plan, self.device)
            else:
                result = priced.result
                if priced.vectorized:
                    self.stats.vectorized += 1
        except INFEASIBLE as exc:
            self.stats.infeasible += 1
            if not self.reference:
                with self._lock:
                    self._cache[key] = (ir, ("fail", exc))
            self._log_candidate(
                plan,
                "screened" if screened else "infeasible",
                reason=str(exc),
                degraded=degraded,
            )
            raise
        except Exception as exc:  # noqa: BLE001 — telemetry, then re-raise
            # Unexpected (injected or real) fault: still one request, so
            # still one candidate event; the resilience machinery decides
            # what happens to the candidate next.
            self._log_candidate(
                plan,
                "error",
                reason=f"{type(exc).__name__}: {exc}",
                degraded=degraded,
            )
            raise
        if not self.reference:
            with self._lock:
                self._cache[key] = (ir, ("ok", result))
        self._log_candidate(plan, "simulated", result=result, degraded=degraded)
        return result

    def _key(self, ir: ProgramIR, plan: KernelPlan) -> tuple:
        # The device profile is part of the content address: the same
        # plan priced on two profiles must never share a cache entry
        # (profiles are frozen, hashable value objects — two specs that
        # merely share a name still produce distinct keys).
        return (id(ir), self.device, plan_family_key(plan), plan.max_registers)

    def _in_degraded_mode(self) -> bool:
        return getattr(self._degraded, "value", False)

    def _log_candidate(
        self,
        plan: KernelPlan,
        disposition: str,
        reason: Optional[str] = None,
        result: Optional[SimulationResult] = None,
        degraded: bool = False,
    ) -> None:
        if self.search_log is None:
            return
        self.search_log.candidate(
            plan,
            fingerprint=plan_fingerprint(plan),
            family=plan_fingerprint(plan, include_registers=False),
            disposition=disposition,
            reason=reason,
            result=result,
            degraded=degraded,
            device=self.device.name,
        )

    def _run_batch(self, plans, jobs, on_result=None) -> List:
        """Run one job per plan, input-ordered, under the guard.

        Every job runs inside :meth:`_guarded`, which enforces the
        per-evaluation timeout, the retry policy and the ``on_error``
        policy — an unexpected exception in one job is captured and
        resolved per-candidate instead of propagating out and killing
        the whole batch (unless the policy is ``fail-fast``, in which
        case it propagates *wrapped*, carrying the candidate context).

        ``on_result(index, plan, outcome, error)`` fires as each job
        completes — even if a later job aborts the batch — which is
        what lets the tuning journal checkpoint mid-batch progress.
        """
        with _span("eval.batch", candidates=len(jobs)):
            return [
                self._guarded(plan, job, index, on_result)
                for index, (plan, job) in enumerate(zip(plans, jobs))
            ]

    # -- fault tolerance -------------------------------------------------------

    def _guarded(self, plan, thunk, index: int = 0, on_result=None):
        """Run one batch job under timeout/retry/on_error protection."""
        try:
            try:
                result = self._attempt_with_retries(thunk, plan)
            except INFEASIBLE:
                result = None
        except Exception as exc:  # noqa: BLE001 — resolved by policy
            return self._resolve_failure(plan, thunk, exc, index, on_result)
        if on_result is not None:
            on_result(index, plan, result, None)
        return result

    def _attempt_with_retries(self, thunk, plan=None):
        """One evaluation attempt plus the retry policy's re-attempts."""
        max_retries = self.retry.max_retries if self.retry else 0
        attempt = 0
        while True:
            try:
                return self._attempt(thunk)
            except INFEASIBLE:
                raise
            except Exception as exc:  # noqa: BLE001
                if isinstance(exc, EvaluationTimeout):
                    with self._lock:
                        self.stats.timeouts += 1
                    _obs_count("resilience.timeouts")
                    if self.search_log is not None and plan is not None:
                        self.search_log.marker(
                            "timeout", plan, timeout_s=self.timeout_s
                        )
                if attempt >= max_retries:
                    raise
                with self._lock:
                    self.stats.retries += 1
                _obs_count("resilience.retries")
                if self.search_log is not None and plan is not None:
                    self.search_log.marker(
                        "retry", plan, attempt=attempt + 1,
                        error=type(exc).__name__,
                    )
                self.retry.sleep(attempt)
                attempt += 1

    def _attempt(self, thunk):
        """Run a thunk, bounded by the per-evaluation timeout.

        With a timeout configured the thunk runs on a daemon watchdog
        thread so a hung evaluation cannot wedge the batch (or block
        interpreter exit); its result is simply abandoned.
        """
        timeout = self.timeout_s
        if timeout is None:
            return thunk()
        box: dict = {}
        done = threading.Event()
        # The watchdog thread starts with an empty tag stack and its own
        # thread-locals: hand the caller's search-log context and degraded
        # flag across so telemetry stays attributed and a degraded re-run
        # really takes the conservative path.
        tags = self.search_log.capture() if self.search_log else None
        degraded = self._in_degraded_mode()

        def run():
            self._degraded.value = degraded
            try:
                if tags is None:
                    box["value"] = thunk()
                else:
                    with self.search_log.use(tags):
                        box["value"] = thunk()
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                box["error"] = exc
            finally:
                done.set()

        worker = threading.Thread(target=run, daemon=True, name="eval-watchdog")
        worker.start()
        if not done.wait(timeout):
            raise EvaluationTimeout(
                f"evaluation exceeded {timeout}s deadline", timeout_s=timeout
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    def _resolve_failure(self, plan, thunk, exc, index: int, on_result):
        """Apply the ``on_error`` policy to a persistent failure."""
        described = plan.describe() if hasattr(plan, "describe") else str(plan)
        if self.on_error == "degrade":
            try:
                try:
                    result = self._attempt_degraded(thunk)
                except INFEASIBLE:
                    result = None
            except Exception as degraded_exc:  # noqa: BLE001
                exc = degraded_exc
            else:
                with self._lock:
                    self.stats.degraded += 1
                _obs_count("resilience.degraded")
                if self.search_log is not None:
                    self.search_log.marker("degraded", plan)
                if on_result is not None:
                    on_result(index, plan, result, None)
                return result
        with self._lock:
            self.stats.failures += 1
            if len(self.failure_records) < MAX_FAILURE_RECORDS:
                self.failure_records.append(
                    FailureRecord(
                        plan=described,
                        error=type(exc).__name__,
                        message=str(exc),
                    )
                )
        _obs_count("resilience.failures")
        if self.on_error == "fail-fast":
            if self.search_log is not None:
                self.search_log.marker(
                    "failure", plan, error=type(exc).__name__,
                    message=str(exc),
                )
            if isinstance(exc, EvaluationError):
                raise exc.with_context(plan=described, candidate=index)
            raise EvaluationError(
                f"evaluation of candidate failed: {exc}",
                plan=described,
                candidate=index,
                phase="evaluate",
            ) from exc
        # skip / degrade: quarantine the candidate and keep searching,
        # unless the failure budget says the run is systemically broken.
        if self.search_log is not None:
            self.search_log.marker(
                "skip", plan, error=type(exc).__name__, message=str(exc)
            )
        self.failure_budget.charge(plan=described)
        if on_result is not None:
            on_result(index, plan, None, exc)
        return None

    def _attempt_degraded(self, thunk):
        """Re-run a failed thunk on the conservative path.

        Degraded mode bypasses the memo-cache read and the occupancy
        prescreen and disarms fault injection — everything optional
        between the caller and the model — while still honouring the
        per-evaluation timeout.
        """
        self._degraded.value = True
        try:
            return self._attempt(thunk)
        finally:
            self._degraded.value = False

    # -- maintenance -----------------------------------------------------------

    def cache_size(self) -> int:
        with self._lock:
            return len(self._cache)
