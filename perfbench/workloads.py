"""The three workloads: their operations, timed loops and traced runs.

Load comes from one client in a closed loop: the next operation starts
only when the previous one has finished, and at most one child process
runs at a time.  The default single-process evaluator is used
throughout; no run passes ``--workers``, ``--executor`` or
``--distributed``.

* ``suite-p100`` — one operation compiles one Table I program on P100:
  parse the DSL text, build the IR, ``optimize``, then ``emit_cuda``
  every plan of the winning schedule.  No sink is enabled.
* ``deeptune-devices`` — one operation is ``deep_tune`` then
  ``fusion_schedule`` for a seeded iteration count, on one of the four
  iterative programs (denoise after ``maxfuse``) and one of four
  devices.  The IR is built outside the timed region, so the DSL front
  end is not part of it.
* ``cli-journal`` — one operation is one cold ``python -m repro``
  child: for each program, a journaled and logged ``optimize``, a
  ``--resume`` of that journal, and ``lint``.

Each run does whole passes over its operations in a seeded order; the
number of passes follows from ``--seconds`` alone (see
:func:`common.passes_for`).
"""

from __future__ import annotations

import io
import json
import random
import shutil
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro.cli
import repro.codegen
import repro.dsl
import repro.ir
import repro.pipeline
import repro.tuning
from repro.gpu.device import get_device
from repro.gpu.pricing import priced_lane_count
from repro.suite import BENCHMARK_ORDER, get as get_spec

import gate
from common import (
    fresh_import_s,
    geomean,
    passes_for,
    peak_rss_mb,
    run_child,
    summarize_times,
    timed,
)
from layers import OP_LAYER, Tracer, instrumented

#: Nominal wall time of one pass on the reference machine (2 cores,
#: Python 3.11), worker start and checks included; only used to turn
#: ``--seconds`` into a pass count.
SUITE_PASS_S = 2.5
DEEP_TUNE_PASS_S = 2.6
CLI_PASS_S = 24.0

ITERATIVE = ("7pt-smoother", "27pt-smoother", "helmholtz", "denoise")
DEVICES = ("P100", "V100", "A100", "MI100")
#: Seeded iteration counts for fusion_schedule are drawn from 1..this.
MAX_ITERATIONS = 24
SETUP_REPEATS = 5
CLI_KINDS = ("write", "resume", "lint")


@dataclass
class Tally:
    """Attempted and failed operations, with every failure message."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    _failed_ops: set = field(default_factory=set)

    def record(self, failures: List[str]) -> int:
        """Count one operation and its failures; return its index."""
        index = self.attempted
        self.attempted += 1
        self.amend(index, failures)
        return index

    def amend(self, index: int, failures: List[str]) -> None:
        """Add failures found later (a deferred check) to operation ``index``."""
        if failures:
            self.messages.extend(failures)
            if index not in self._failed_ops:
                self._failed_ops.add(index)
                self.failed += 1

    def error(self, label: str, exc: BaseException) -> None:
        self.record([f"{label}: {type(exc).__name__}: {exc}"])


class Replays:
    """Reduced-domain replays of the first operation of each program.

    They run after the pass's timed operations, so neither their time
    nor their memory is charged to the program.
    """

    def __init__(self) -> None:
        self._seen: set = set()
        self._pending: List[tuple] = []

    def add(self, key, index: int, check: Callable[[], List[str]]) -> None:
        if key not in self._seen:
            self._seen.add(key)
            self._pending.append((key, index, check))

    def run(self, tally: Tally) -> None:
        for key, index, check in self._pending:
            tally.amend(index, _checked(f"replay {key}", check))
        self._pending.clear()


@dataclass
class EvalTotals:
    requests: int = 0
    hits: int = 0
    lint_rejections: int = 0

    def add(self, requests: int, hits: int, lint_rejections: int) -> None:
        self.requests += requests
        self.hits += hits
        self.lint_rejections += lint_rejections

    def merge(self, other: "EvalTotals") -> None:
        self.add(other.requests, other.hits, other.lint_rejections)


class NoResult(Exception):
    """No operation completed, so no metric can be computed."""


@dataclass
class RunResult:
    tally: Tally
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str]
    trace: Optional[Tracer] = None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def compile_program(text: str, device):
    """One suite-p100 operation: DSL text to CUDA for the winning schedule."""
    ir = repro.ir.build_ir(repro.dsl.parse(text))
    outcome = repro.pipeline.optimize(ir, device=device)
    for plan in outcome.schedule.plans:
        repro.codegen.emit_cuda(outcome.ir, plan)
    return ir, outcome


def check_compile(name: str, device_name: str, outcome, golden) -> List[str]:
    key = gate.golden_key(name, device_name)
    failures = gate.compare_golden(
        "optimize", key, gate.optimize_summary(outcome), golden
    )
    return failures + gate.certify(outcome.ir, outcome.schedule.plans)


def prepare_iterative(text: str):
    """(program as written, IR that deep tuning runs on)."""
    source = repro.ir.build_ir(repro.dsl.parse(text))
    if len(source.kernels) > 1:
        return source, repro.tuning.maxfuse(source)
    return source, source


def deep_tune_op(ir, device, iterations: int):
    """One deeptune-devices operation."""
    engine = repro.tuning.PlanEvaluator(device=device)
    result = repro.tuning.deep_tune(ir, device=device, evaluator=engine)
    schedule = repro.tuning.fusion_schedule(result, iterations)
    return engine, result, schedule


def check_deep_tune(name: str, device_name: str, ir, engine, result,
                    schedule, iterations: int, golden) -> List[str]:
    key = gate.golden_key(name, device_name)
    summary = gate.deep_tune_summary(result, engine.stats.requests)
    failures = gate.compare_golden("deep_tune", key, summary, golden)
    failures += gate.certify(ir, [e.measurement.plan for e in result.entries])
    return failures + gate.check_schedule(result, schedule, iterations)


def cli_argvs(program: str, directory: Path) -> Dict[str, List[str]]:
    base = directory / program
    journal = f"{base}.journal.jsonl"
    return {
        "write": [
            "optimize", program, "--checkpoint", journal,
            "--search-log", f"{base}.search.jsonl", "--json", f"{base}.json",
        ],
        "resume": [
            "optimize", program, "--checkpoint", journal, "--resume",
            "--json", f"{base}.resumed.json",
        ],
        "lint": ["lint", program],
    }


def run_worker(name: str, seed: int, ops: list, replay: bool):
    """One pass of an in-process workload in a fresh interpreter.

    Returns (report, "") or (None, the reason it failed).
    """
    proc = run_child(
        [str(Path(__file__).with_name("run.py")), "--worker", name, "--seed", str(seed)],
        stdin=json.dumps({"ops": ops, "replay": replay}),
    )
    if proc.returncode != 0:
        return None, (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def run_subprocess(argv: List[str]) -> Tuple[int, str]:
    """``python -m repro ARGV`` as a cold child: (exit code, stderr)."""
    proc = run_child(["-m", "repro", *argv])
    return proc.returncode, proc.stderr


def run_in_process(argv: List[str]) -> Tuple[int, str]:
    """``repro.cli.main(ARGV)`` in this process: (exit code, stderr)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = repro.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue()


@dataclass
class CliPass:
    """Per-kind wall times and outputs of the CLI commands of one pass."""

    times: Dict[str, List[float]] = field(
        default_factory=lambda: {kind: [] for kind in CLI_KINDS}
    )
    requests: List[int] = field(default_factory=list)
    tflops: List[float] = field(default_factory=list)
    evals: EvalTotals = field(default_factory=EvalTotals)
    journal_bytes: int = 0
    search_log_bytes: int = 0
    search_log_events: int = 0

    def all_times(self) -> List[float]:
        return [t for kind in CLI_KINDS for t in self.times[kind]]


def run_cli_program(program: str, directory: Path,
                    execute: Callable[[List[str]], Tuple[int, str]],
                    golden, tally: Tally, result: CliPass,
                    tracer: Optional[Tracer] = None) -> None:
    """The three commands of one program, checked as they complete.

    Times are kept in reference-machine seconds (see ``common.timed``).
    """
    argvs = cli_argvs(program, directory)
    fresh: Dict[str, dict] = {}
    for kind in CLI_KINDS:
        argv = argvs[kind]
        try:
            (code, stderr), seconds = _timed_op(tracer, lambda: execute(argv))
        except Exception as exc:  # a hung or unstartable child
            tally.error(f"{kind} {program}", exc)
            continue
        result.times[kind].append(seconds)
        result.requests.append(0)
        failures = gate.exit_failures(f"{kind} {program}", code, stderr)
        if not failures and kind != "lint":
            failures = _checked(f"{kind} {program}", lambda: _check_output(
                kind, program, argv, golden, result, fresh
            ))
        tally.record(failures)


def _check_output(kind: str, program: str, argv: List[str], golden,
                  result: CliPass, fresh: Dict[str, dict]) -> List[str]:
    """Check an optimize child's ``--json`` output and record its figures.

    ``fresh`` carries the write's output to the resume that follows it.
    """
    with open(argv[-1]) as fh:
        payload = json.load(fh)
    stats = payload["eval_stats"]
    result.requests[-1] = stats["requests"]
    result.evals.add(stats["requests"], stats["hits"], stats["lint_rejections"])
    result.tflops.append(payload["tflops"])
    if kind == "resume":
        return gate.check_resume(program, fresh.get("write", {}), payload)
    fresh["write"] = payload
    journal, log = Path(argv[3]), Path(argv[5])
    result.journal_bytes += journal.stat().st_size
    result.search_log_bytes += log.stat().st_size
    with open(log) as fh:
        result.search_log_events += sum(1 for line in fh if line.strip())
    return gate.compare_golden(
        "cli_optimize", gate.golden_key(program, "P100"), gate.cli_summary(payload),
        golden,
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    nominal_pass_s = 1.0
    #: What a fresh interpreter imports before the first operation.
    setup_statement = "import repro, repro.suite"

    def __init__(self, seed: int, golden) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.golden = golden
        self.replay_seed = self.rng.randrange(1 << 30)

    def items(self) -> list:
        raise NotImplementedError

    def passes(self, count: int) -> List[list]:
        """``count`` passes over the items, in seeded orders.

        Each pass rotates one seeded order by a seeded shift, and the
        shifts cycle through every position before repeating, so across
        the passes each item runs at as many different positions as
        possible.  An operation's cost depends on what ran before it in
        the same process; balancing positions keeps that from moving the
        percentiles from seed to seed.
        """
        items = self.items()
        n = len(items)
        order = self.rng.sample(items, n)
        shifts: List[int] = []
        while len(shifts) < count:
            shifts += self.rng.sample(range(n), n)
        return [[order[(i + shift) % n] for i in range(n)] for shift in shifts[:count]]

    def measure(self, seconds: float, workdir: Path) -> RunResult:
        raise NotImplementedError

    def traced(self, workdir: Path) -> RunResult:
        raise NotImplementedError


class InProcessWorkload(Workload):
    """Operations are calls into the library.

    In a timed run every pass is a fresh interpreter (``run.py
    --worker``) that sets up once and then runs the pass's operations,
    as a user's process compiling the programs would.  Process-wide
    caches are never evicted, so one long-lived process would make each
    pass slower than the last and its garbage-collector pauses land on
    whichever operation happens to trigger them.
    """

    def loop(self, ops, tally: Tally, replays: Optional[Replays],
             tracer: Optional[Tracer] = None):
        """Run and check ``ops``; return (times, requests, tflops, evals).

        Each operation's reduced-domain replay is queued on ``replays``
        (``None`` replays nothing).
        """
        raise NotImplementedError

    def run_pass(self, ops: list, replay: bool) -> dict:
        """Worker side: one pass in this process, as a JSON-ready report."""
        tally = Tally()
        replays = Replays() if replay else None
        times, requests, tflops, _ = self.loop(ops, tally, replays)
        rss_mb = peak_rss_mb()
        if replays is not None:
            replays.run(tally)
        return {
            "times": times,
            "requests": requests,
            "tflops": tflops,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "messages": tally.messages,
            "peak_rss_mb": rss_mb,
        }

    def measure(self, seconds: float, workdir: Path) -> RunResult:
        setup_s = fresh_import_s(self.setup_statement, SETUP_REPEATS)
        tally = Tally()
        times, requests, tflops, rss = [], [], [], 0.0
        passes = self.passes(passes_for(seconds, self.nominal_pass_s))
        for index, ops in enumerate(passes):
            report, error = run_worker(self.name, self.seed, ops, replay=index == 0)
            if report is None:
                for op in ops:
                    tally.record([f"{op}: worker failed: {error}"])
                continue
            tally.attempted += report["attempted"]
            tally.failed += report["failed"]
            tally.messages += report["messages"]
            times += report["times"]
            requests += report["requests"]
            tflops += report["tflops"]
            rss = max(rss, report["peak_rss_mb"])
        return end_to_end(setup_s, times, requests, tflops, rss, tally)

    def traced(self, workdir: Path) -> RunResult:
        """One pass, each operation run untraced and traced back to back."""
        tally = Tally()
        ops = self.passes(1)[0]
        self.loop(ops[:1], Tally(), None)  # pays first-call imports untimed
        tracer = Tracer()
        replays = Replays()
        untraced, traced, evals, lanes = [], [], EvalTotals(), 0
        for index, op in enumerate(ops):
            for with_trace in _pair_order(index):
                if not with_trace:
                    untraced += self.loop([op], tally, replays)[0]
                    continue
                before = priced_lane_count()
                with instrumented(tracer):
                    times, _, _, op_evals = self.loop([op], tally, replays, tracer)
                lanes += priced_lane_count() - before
                traced += times
                evals.merge(op_evals)
        replays.run(tally)
        return per_layer(tracer, tally, untraced, traced, evals, lanes, CliPass(), CliPass())


class SuiteP100(InProcessWorkload):
    name = "suite-p100"
    nominal_pass_s = SUITE_PASS_S

    def __init__(self, seed: int, golden) -> None:
        super().__init__(seed, golden)
        self.texts = {name: get_spec(name).dsl() for name in BENCHMARK_ORDER}
        self.device = get_device("P100")

    def items(self) -> list:
        return list(BENCHMARK_ORDER)

    def loop(self, ops, tally, replays, tracer=None):
        times, requests, tflops, evals = [], [], [], EvalTotals()
        for name in ops:
            try:
                (ir, outcome), seconds = _timed_op(
                    tracer, lambda: compile_program(self.texts[name], self.device)
                )
            except Exception as exc:
                tally.error(name, exc)
                continue
            times.append(seconds)
            index = tally.record(_checked(
                name, lambda: check_compile(name, "P100", outcome, self.golden)
            ))
            if replays is not None:
                replays.add(name, index, partial(
                    gate.replay, ir, outcome.ir, outcome.schedule, self.replay_seed
                ))
            stats = outcome.eval_stats
            requests.append(stats.requests)
            tflops.append(outcome.tflops)
            evals.add(stats.requests, stats.hits, stats.lint_rejections)
        return times, requests, tflops, evals


class DeepTuneDevices(InProcessWorkload):
    name = "deeptune-devices"
    nominal_pass_s = DEEP_TUNE_PASS_S

    def __init__(self, seed: int, golden) -> None:
        super().__init__(seed, golden)
        self.texts = {name: get_spec(name).dsl() for name in ITERATIVE}
        self.devices = {name: get_device(name) for name in DEVICES}

    def items(self) -> list:
        return [(program, device) for program in ITERATIVE for device in DEVICES]

    def passes(self, count: int) -> List[list]:
        return [
            [(program, device, self.rng.randint(1, MAX_ITERATIONS))
             for program, device in ops]
            for ops in super().passes(count)
        ]

    def loop(self, ops, tally, replays, tracer=None):
        times, requests, tflops, evals = [], [], [], EvalTotals()
        for program, device_name, iterations in ops:
            device = self.devices[device_name]
            source, ir = prepare_iterative(self.texts[program])
            try:
                (engine, result, schedule), seconds = _timed_op(
                    tracer, lambda: deep_tune_op(ir, device, iterations)
                )
            except Exception as exc:
                tally.error(f"{program}@{device_name}", exc)
                continue
            times.append(seconds)
            index = tally.record(_checked(f"{program}@{device_name}", lambda: check_deep_tune(
                program, device_name, ir, engine, result, schedule, iterations,
                self.golden,
            )))
            if replays is not None:
                plan = repro.tuning.schedule_to_program_plan(result, schedule)
                replays.add((program, device_name), index, partial(
                    gate.replay, source, ir, plan, self.replay_seed, iterations
                ))
            stats = engine.stats
            requests.append(stats.requests)
            tflops.append(max(e.tflops for e in result.entries))
            evals.add(stats.requests, stats.hits, stats.lint_rejections)
        return times, requests, tflops, evals


class CliJournal(Workload):
    name = "cli-journal"
    nominal_pass_s = CLI_PASS_S
    setup_statement = "import repro.cli"

    def items(self) -> list:
        # Every pass draws the whole suite, in a seeded order: winner
        # quality, request counts and peak memory depend on which
        # programs ran, so a partial draw would spread with the seed.
        return list(BENCHMARK_ORDER)

    def loop(self, programs, directory: Path, execute, tally: Tally,
             tracer: Optional[Tracer] = None,
             result: Optional[CliPass] = None) -> CliPass:
        result = CliPass() if result is None else result
        for program in programs:
            run_cli_program(
                program, directory, execute, self.golden, tally, result, tracer
            )
        return result

    def measure(self, seconds: float, workdir: Path) -> RunResult:
        setup_s = fresh_import_s(self.setup_statement, SETUP_REPEATS)
        tally = Tally()
        run = CliPass()
        passes = self.passes(passes_for(seconds, self.nominal_pass_s))
        for index, programs in enumerate(passes):
            directory = _fresh_dir(workdir / f"pass{index}")
            self.loop(programs, directory, run_subprocess, tally, result=run)
        return end_to_end(
            setup_s, run.all_times(), run.requests, run.tflops,
            peak_rss_mb(children=True), tally,
        )

    def traced(self, workdir: Path) -> RunResult:
        """Cold children for the per-kind medians, then the same commands
        in this process through ``repro.cli.main``, each program's three
        untraced and traced back to back."""
        tally = Tally()
        programs = self.passes(1)[0]
        cold = self.loop(programs, _fresh_dir(workdir / "cold"), run_subprocess, tally)
        self.loop(programs[:1], _fresh_dir(workdir / "warm"), run_in_process, Tally())
        untraced_dir = _fresh_dir(workdir / "untraced")
        traced_dir = _fresh_dir(workdir / "traced")
        tracer = Tracer()
        untraced, traced, lanes = CliPass(), CliPass(), 0
        for index, program in enumerate(programs):
            for with_trace in _pair_order(index):
                if not with_trace:
                    self.loop([program], untraced_dir, run_in_process, tally,
                              result=untraced)
                    continue
                before = priced_lane_count()
                with instrumented(tracer):
                    self.loop([program], traced_dir, run_in_process, tally,
                              tracer, traced)
                lanes += priced_lane_count() - before
        return per_layer(
            tracer, tally, untraced.all_times(), traced.all_times(), traced.evals,
            lanes, traced, cold,
        )


def _pair_order(index: int) -> Tuple[bool, bool]:
    """Alternate which of an untraced/traced pair runs first."""
    return (False, True) if index % 2 == 0 else (True, False)


def _checked(label: str, check: Callable[[], List[str]]) -> List[str]:
    """The check's failures; a check that raises is a failure too."""
    try:
        return check()
    except Exception as exc:  # e.g. the executor cannot run a broken plan
        return [f"{label}: check raised {type(exc).__name__}: {exc}"]


def _timed_op(tracer: Optional[Tracer], fn):
    """(result, reference-machine seconds) of one operation, traced
    under ``tracer`` when one is given."""
    if tracer is None:
        result, seconds, _ = timed(fn)
        return result, seconds

    def traced():
        with tracer.op():
            return fn()

    result, seconds, scale = timed(traced)
    tracer.scale_last(scale)
    return result, seconds


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


WORKLOADS = {cls.name: cls for cls in (SuiteP100, DeepTuneDevices, CliJournal)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

#: (name, unit, better, bound).  On the reference machine ten seeds of a
#: workload spread (quartile distance over median) by at most about 9 %
#: in any timing; the timing bounds are the largest allowed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("compile_p50_s", "s", "lower", 0.25),
    ("compile_tail_s", "s", "lower", 0.25),
    ("compile_per_s", "1/s", "higher", 0.25),
    ("tuning_candidates", "count", "lower", 0.1),
    ("winner_tflops_geomean", "TFLOPS", "higher", 0.05),
    ("success_rate", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.25),
)


def end_to_end(setup_s: float, times: List[float], requests: List[int],
               tflops: List[float], rss_mb: float, tally: Tally) -> RunResult:
    if not times or not tflops:
        raise NoResult("no operation completed: " + "; ".join(tally.messages[:3]))
    s = summarize_times(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "compile_p50_s": (s["p50"], "s"),
        "compile_tail_s": (s["tail"], "s"),
        "compile_per_s": (s["per_s"], "1/s"),
        "tuning_candidates": (sum(requests) / len(requests), "count"),
        "winner_tflops_geomean": (geomean(tflops), "TFLOPS"),
        "success_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [
        f"operations: {tally.attempted} attempted, {tally.failed} failed "
        f"(error_rate {tally.failed / tally.attempted:.6g})",
        f"compile_p50_s and compile_tail_s over {s['n']} samples; "
        f"compile_tail_s is the p{s['tail_pct']:.1f}",
    ]
    return RunResult(tally, metrics, notes)


PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli_write_p50_s", "s"),
    ("cli_resume_p50_s", "s"),
    ("cli_lint_p50_s", "s"),
    ("dsl.parse_s", "s"),
    ("dsl.parse_bytes_per_s", "B/s"),
    ("dsl.walk_calls", "count"),
    ("dsl.walk_s", "s"),
    ("ir.build_s", "s"),
    ("tuning.fission_s", "s"),
    ("tuning.fission_candidates", "count"),
    ("profiling.advise_s", "s"),
    ("profiling.advise_calls", "count"),
    ("tuning.tune_self_s", "s"),
    ("tuning.deep_tune_self_s", "s"),
    ("tuning.evaluator_s", "s"),
    ("tuning.requests", "count"),
    ("tuning.memo_hit_ratio", "ratio"),
    ("gpu.simulate_calls", "count"),
    ("gpu.simulate_s", "s"),
    ("gpu.price_family_s", "s"),
    ("gpu.priced_lanes", "count"),
    ("lint.prescreen_rejections", "count"),
    ("lint.certify_s", "s"),
    ("codegen.lower_s", "s"),
    ("codegen.emit_s", "s"),
    ("codegen.cuda_bytes", "B"),
    ("resilience.journal_append_s", "s"),
    ("resilience.fsync_calls", "count"),
    ("resilience.journal_bytes", "B"),
    ("resilience.journal_open_s", "s"),
    ("obs.search_log_flush_s", "s"),
    ("obs.search_log_events", "count"),
    ("obs.search_log_bytes", "B"),
    ("pipeline.optimize_self_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_self_s", "s"),
    ("trace.unattributed_s", "s"),
)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(tracer: Tracer, tally: Tally, untraced: List[float],
              traced: List[float], evals: EvalTotals, lanes: int,
              sinks: CliPass, cold: CliPass) -> RunResult:
    """Layer metrics of a traced pass, next to the same pass untraced.

    Layers that an operation of the workload never enters read 0 (for
    instance the journal on the in-process workloads, which enable no
    sink).
    """
    cli_import_s = fresh_import_s("import repro.cli", 3)
    parse_s = tracer.busy("dsl.parse")
    untraced_s, traced_s = sum(untraced), sum(traced)
    values = {
        "cli.import_s": cli_import_s,
        "cli_write_p50_s": _median(cold.times["write"]),
        "cli_resume_p50_s": _median(cold.times["resume"]),
        "cli_lint_p50_s": _median(cold.times["lint"]),
        "dsl.parse_s": parse_s,
        "dsl.parse_bytes_per_s": (
            tracer.counts.get("dsl.parse_bytes", 0) / parse_s if parse_s else 0.0
        ),
        "dsl.walk_calls": tracer.counts.get("dsl.walk_calls", 0),
        "dsl.walk_s": tracer.busy("dsl.walk"),
        "ir.build_s": tracer.busy("ir.build"),
        "tuning.fission_s": tracer.busy("tuning.fission"),
        "tuning.fission_candidates": tracer.counts.get("tuning.fission_candidates", 0),
        "profiling.advise_s": tracer.busy("profiling.advise"),
        "profiling.advise_calls": tracer.calls("profiling.advise"),
        "tuning.tune_self_s": tracer.self_time("tuning.tune"),
        "tuning.deep_tune_self_s": tracer.self_time("tuning.deep_tune"),
        "tuning.evaluator_s": tracer.busy("tuning.evaluator"),
        "tuning.requests": evals.requests,
        "tuning.memo_hit_ratio": evals.hits / evals.requests if evals.requests else 0.0,
        "gpu.simulate_calls": tracer.calls("gpu.simulate"),
        "gpu.simulate_s": tracer.busy("gpu.simulate"),
        "gpu.price_family_s": tracer.busy("gpu.price_family"),
        "gpu.priced_lanes": lanes,
        "lint.prescreen_rejections": evals.lint_rejections,
        "lint.certify_s": tracer.busy("lint.certify"),
        "codegen.lower_s": tracer.busy("codegen.lower"),
        "codegen.emit_s": tracer.busy("codegen.emit"),
        "codegen.cuda_bytes": tracer.counts.get("codegen.cuda_bytes", 0),
        "resilience.journal_append_s": tracer.busy("resilience.journal_append"),
        "resilience.fsync_calls": tracer.counts.get("resilience.fsync_calls", 0),
        "resilience.journal_bytes": sinks.journal_bytes,
        "resilience.journal_open_s": tracer.busy("resilience.journal_open"),
        "obs.search_log_flush_s": tracer.busy("obs.search_log_flush"),
        "obs.search_log_events": sinks.search_log_events,
        "obs.search_log_bytes": sinks.search_log_bytes,
        "pipeline.optimize_self_s": tracer.self_time("pipeline.optimize"),
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        # Per operation, so one garbage-collector pause cannot swing it.
        "trace.overhead_ratio": _median(
            [t / u for u, t in zip(untraced, traced) if u > 0]
        ) - 1.0,
        "trace.layer_self_s": tracer.layer_self_s(),
        "trace.unattributed_s": tracer.self_time(OP_LAYER),
    }
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    notes = [
        f"operations: {tally.attempted} attempted, {tally.failed} failed",
        f"traced pass: {len(traced)} operations, {len(tracer.spans)} spans",
        f"{'layer':28s} {'calls':>10s} {'busy_s':>10s} {'self_s':>10s}",
    ]
    for name in sorted(tracer.layers):
        calls = (
            tracer.counts.get("dsl.walk_calls", 0) if name == "dsl.walk"
            else tracer.calls(name)
        )
        notes.append(
            f"{name:28s} {calls:10d} {tracer.busy(name):10.4f} "
            f"{tracer.self_time(name):10.4f}"
        )
    return RunResult(tally, metrics, notes, tracer)
