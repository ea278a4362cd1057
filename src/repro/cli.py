"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

* ``characteristics <spec.dsl | benchmark>`` — print the Table-I-style
  characteristics of a specification.
* ``optimize <spec.dsl | benchmark>``        — run the full ARTEMIS flow
  and print the optimization report.
* ``cuda <spec.dsl | benchmark>``            — emit the baseline CUDA.
* ``profile <spec.dsl | benchmark>``         — profile the baseline and
  print the nvprof-style metrics plus the roofline verdicts.
* ``suite``                                  — list the 11 built-in
  benchmarks.
* ``deep-tune <benchmark> [-T N]``           — deep-tune an iterative
  benchmark and print the fusion schedule for N iterations.
* ``lint [specs...] [--suite] [--examples DIR]`` — statically verify
  DSL specifications (``repro.lint`` rule catalog; ``--json`` /
  ``--sarif`` for machine-readable findings; exit 1 on errors).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .codegen.generator import generate_baseline, lower
from .gpu.device import DEVICES, DeviceSpec, device_names, get_device
from .ir.analysis import characteristics
from .obs import (
    configure_metrics,
    configure_tracing,
    get_metrics,
    get_tracer,
    tracing_enabled,
    write_trace,
)
from .obs.explain import build_explain, format_explain
from .obs.report_html import render_html
from .obs.search import SearchLog, read_events
from .pipeline import format_report, optimize
from .profiling import classify_result, profile
from .resilience import (
    ON_ERROR_POLICIES,
    ReproError,
    RetryPolicy,
    TuningJournal,
    UsageError,
    atomic_write_json,
    atomic_write_text,
)
from .suite import BENCHMARKS, get as get_benchmark
from .tuning import PlanEvaluator


def _load(source: str):
    """Resolve a positional argument: a benchmark name or a DSL file."""
    if source in BENCHMARKS:
        return get_benchmark(source).ir()
    path = Path(source)
    if not path.exists():
        raise SystemExit(
            f"error: {source!r} is neither a built-in benchmark "
            f"({', '.join(BENCHMARKS)}) nor a file"
        )
    return lower(path.read_text())


def _device(name: str) -> DeviceSpec:
    # get_device raises UsageError (exit code 2) for unknown names.
    return get_device(name)


def _obs_begin(args) -> None:
    """Enable tracing/metrics before a command when its flags ask for it."""
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    metrics_port = getattr(args, "metrics_port", None)
    if trace_path:
        configure_tracing(True, clear=True)
    if trace_path or want_metrics or metrics_port is not None:
        configure_metrics(True, reset=True)


def _obs_finish(args) -> None:
    """Write the trace file / print metrics, then disable collection."""
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    metrics_port = getattr(args, "metrics_port", None)
    if trace_path:
        write_trace(
            trace_path,
            fmt=getattr(args, "trace_format", "chrome"),
            search_events=getattr(args, "_search_events", None),
        )
        spans = len(get_tracer().finished())
        print(f"trace: {spans} spans written to {trace_path}", file=sys.stderr)
    if want_metrics:
        _print_metrics()
    if trace_path:
        configure_tracing(False)
    if trace_path or want_metrics or metrics_port is not None:
        configure_metrics(False)


def _print_metrics() -> None:
    from .obs import Histogram

    snapshot = get_metrics().snapshot()
    print("\npipeline metrics:")
    if not snapshot:
        print("  (none recorded)")
        return
    for name, data in snapshot.items():
        kind = data["type"]
        if kind == "histogram":
            p50 = Histogram.quantile_from_dict(data, 0.5)
            p95 = Histogram.quantile_from_dict(data, 0.95)
            print(
                f"  {name:36s} count={data['count']} sum={data['sum']:.6f} "
                f"min={data['min']:.6f} p50={p50:.6f} p95={p95:.6f} "
                f"max={data['max']:.6f}"
            )
        else:
            value = data["value"]
            rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
            print(f"  {name:36s} {rendered}")


def _publish_stats_dict(registry, stats: dict) -> None:
    """Publish an ``EvalStats.as_dict()`` into an explicit registry.

    Unlike :meth:`EvalStats.publish` this bypasses the global
    enabled-flag: the ``/metrics`` collector owns the registry it
    renders.
    """
    for name, value in stats.items():
        if name in ("wall_s", "cpu_s"):
            if value:
                registry.histogram(f"eval.{name}").observe(value)
        elif value >= 0:  # a mid-run read can race the engine's counters
            registry.counter(f"eval.{name}").add(value)


def _start_metrics_server(args, engine):
    """Serve ``/metrics`` for the run's duration when --metrics-port asks.

    The endpoint exposes the live global registry overlaid with the
    engine's *current* EvalStats — the engine only publishes its totals
    at shutdown, and a live endpoint that can't see evaluation traffic
    mid-run would be pointless.
    """
    port = getattr(args, "metrics_port", None)
    if port is None:
        return None
    from .obs import MetricsHTTPServer, MetricsRegistry
    from .obs.prom import prometheus_text

    def collect():
        registry = MetricsRegistry()
        registry.merge_snapshot(
            get_metrics().snapshot(), exclude_prefixes=("eval.",)
        )
        _publish_stats_dict(registry, engine.stats.as_dict())
        return prometheus_text(registry)

    server = MetricsHTTPServer(collect=collect, port=port).start()
    print(f"metrics: serving {server.url}", file=sys.stderr)
    return server


def _stop_metrics_server(server) -> None:
    if server is not None:
        server.stop()


def _env_float(name: str, default: Optional[float] = None) -> Optional[float]:
    """Parse a float environment variable; misuse exits 2, not a traceback."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise UsageError(
            f"environment variable {name}={raw!r} is not a number"
        ) from None


def _env_int(name: str, default: Optional[int] = None) -> Optional[int]:
    """Parse an integer environment variable; misuse exits 2."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(
            f"environment variable {name}={raw!r} is not an integer"
        ) from None


def _fault_injector_from_env():
    """Chaos-mode fault injector, armed by environment variables.

    ``REPRO_CHAOS_RATE`` (a fraction) turns injection on;
    ``REPRO_CHAOS_SEED``, ``REPRO_CHAOS_KIND`` and
    ``REPRO_CHAOS_TRANSIENT`` refine it.  CI's chaos job drives seeded
    fault injection through real CLI runs this way (``docs/robustness.md``).
    Malformed values raise :class:`UsageError` naming the variable.
    """
    rate = _env_float("REPRO_CHAOS_RATE")
    if not rate:
        return None
    from .resilience import FaultInjector

    return FaultInjector(
        rate=rate,
        seed=_env_int("REPRO_CHAOS_SEED", 0),
        kind=os.environ.get("REPRO_CHAOS_KIND", "error"),
        transient_failures=_env_int("REPRO_CHAOS_TRANSIENT", 0),
    )


def _resilience_engine(args, device: DeviceSpec) -> PlanEvaluator:
    """Build the evaluation engine from the resilience flags."""
    retries = getattr(args, "retries", 0) or 0
    if retries < 0:
        raise UsageError("--retries must be non-negative")
    return PlanEvaluator(
        device=device,
        on_error=getattr(args, "on_error", "fail-fast"),
        retry=RetryPolicy(max_retries=retries) if retries else None,
        timeout_s=getattr(args, "eval_timeout", None),
        failure_budget=getattr(args, "failure_budget", None),
        fault_injector=_fault_injector_from_env(),
    )


def _open_journal(args, device: DeviceSpec) -> Optional[TuningJournal]:
    """Open the checkpoint journal named by --checkpoint/--resume."""
    path = getattr(args, "checkpoint", None)
    if path is None:
        if getattr(args, "resume", False):
            raise UsageError("--resume requires --checkpoint PATH")
        return None
    exists = os.path.exists(path) and os.path.getsize(path) > 0
    if exists and not args.resume:
        raise UsageError(
            f"checkpoint {path} already exists; pass --resume to continue "
            f"it, or remove the file to start fresh"
        )
    if args.resume and not exists:
        raise UsageError(f"cannot --resume: checkpoint {path} does not exist")
    journal = TuningJournal(path, device=device.name)
    if journal.replayable:
        print(
            f"checkpoint: resuming from {path} "
            f"({journal.replayable} journaled records)",
            file=sys.stderr,
        )
    return journal


def _warn_failures(stats, args) -> None:
    if stats is not None and stats.failures:
        print(
            f"warning: {stats.failures} candidate evaluation(s) failed "
            f"persistently (on-error={getattr(args, 'on_error', 'fail-fast')}; "
            f"see --eval-stats)",
            file=sys.stderr,
        )


def cmd_characteristics(args) -> int:
    ir = _load(args.spec)
    row = characteristics(ir)
    print(f"domain          : {'x'.join(str(d) for d in row.domain)}")
    print(f"time iterations : {row.time_iterations}")
    print(f"stencil order   : {row.order}")
    print(f"FLOPs per point : {row.flops_per_point}")
    print(f"I/O arrays      : {row.io_arrays}")
    print(f"theoretical OI  : {row.theoretical_oi:.2f} FLOP/byte")
    print(f"kernels         : {', '.join(k.name for k in ir.kernels)}")
    return 0


def _open_search_log(args, engine, device) -> Optional[SearchLog]:
    """Attach a SearchLog when --search-log/--explain/--json ask for one.

    The explain engine and the JSON payload both derive from the same
    candidate event stream, so any of the three flags arms collection;
    only --search-log also persists it.  Tracing is enabled for the
    duration when not already on, so the log's ``phase`` footer records
    (per-phase timing aggregates) are always present.
    """
    wants = (
        getattr(args, "search_log", None)
        or getattr(args, "explain", False)
        or getattr(args, "json", None)
    )
    if not wants:
        return None
    log = SearchLog(path=getattr(args, "search_log", None), device=device)
    engine.search_log = log
    if not tracing_enabled():
        configure_tracing(True, clear=True)
        args._own_tracing = True
    return log


def _close_search_log(args, log: Optional[SearchLog]) -> None:
    """Emit the phase footer, persist, and hand events to _obs_finish."""
    if log is None:
        return
    try:
        log.phases(get_tracer().finished())
    finally:
        if getattr(args, "_own_tracing", False):
            configure_tracing(False)
        log.close()
        # _obs_finish reads these to add the candidate instant track to
        # a --trace export.
        args._search_events = log.events()


def _optimize_json_payload(args, device, outcome, log) -> dict:
    payload = {
        "spec": args.spec,
        "device": device.name,
        "variant": outcome.variant,
        "tflops": outcome.tflops,
        "evaluations": outcome.evaluations,
        "hints": list(outcome.hints),
        "schedule": [
            {"plan": plan.describe(), "count": count}
            for plan, count in zip(
                outcome.schedule.plans, outcome.schedule.counts
            )
        ],
        "eval_stats": (
            outcome.eval_stats.as_dict()
            if outcome.eval_stats is not None
            else None
        ),
    }
    if log is not None:
        payload["explain"] = build_explain(log.events()).as_dict()
    return payload


def cmd_optimize(args) -> int:
    ir = _load(args.spec)
    device = _device(args.device)
    engine = _resilience_engine(args, device)
    journal = _open_journal(args, device)
    server = _start_metrics_server(args, engine)
    log = _open_search_log(args, engine, device)
    try:
        outcome = optimize(
            ir,
            device=device,
            iterations=args.iterations,
            top_k=args.top_k,
            evaluator=engine,
            journal=journal,
        )
        if log is not None and outcome.eval_stats is not None:
            log.summary(outcome.eval_stats)
    finally:
        _stop_metrics_server(server)
        if journal is not None:
            journal.close()
        _close_search_log(args, log)
    if outcome.eval_stats is not None:
        outcome.eval_stats.publish()
    print(format_report(outcome, device))
    if args.explain:
        print(format_explain(build_explain(log.events())))
    if args.eval_stats and outcome.eval_stats is not None:
        _print_eval_stats(outcome.eval_stats)
    if args.json:
        payload = _optimize_json_payload(args, device, outcome, log)
        atomic_write_json(args.json, payload, indent=2)
        print(f"json: outcome written to {args.json}", file=sys.stderr)
    if args.search_log:
        print(
            f"search log: {log.candidate_count()} candidate event(s) "
            f"written to {args.search_log}",
            file=sys.stderr,
        )
    _warn_failures(outcome.eval_stats, args)
    return 0


def _print_eval_stats(stats) -> None:
    print("\nevaluation engine statistics:")
    for name, value in stats.as_dict().items():
        if isinstance(value, float):
            print(f"  {name:20s} {value:.6f}")
        else:
            print(f"  {name:20s} {value}")


def cmd_cuda(args) -> int:
    ir = _load(args.spec)
    generated = generate_baseline(ir, device=_device(args.device))
    print(generated.source)
    return 0


def cmd_profile(args) -> int:
    from .obs import span

    ir = _load(args.spec)
    device = _device(args.device)
    with span("lower"):
        generated = generate_baseline(ir, device=device)
    kernels = []
    for plan in generated.schedule.plans:
        with span("profile", kernels="+".join(plan.kernel_names)):
            report = profile(ir, plan, device)
            verdict = classify_result(report.result, device)
        print(f"== {plan.describe()} ==")
        for name, value in report.metrics.items():
            print(f"  {name:28s} {value:.4g}")
        for level in ("dram", "tex", "shm"):
            entry = verdict.verdict(level)
            print(
                f"  OI_{level:4s} = {entry.oi:8.3f}  "
                f"(ridge {entry.ridge:.2f}) -> {entry.verdict}"
            )
        print(f"  bound at: {verdict.bound_level}")
        kernels.append(
            {
                "plan": plan.describe(),
                "metrics": dict(report.metrics),
                "verdicts": {
                    level: {
                        "oi": verdict.verdict(level).oi,
                        "ridge": verdict.verdict(level).ridge,
                        "verdict": verdict.verdict(level).verdict,
                    }
                    for level in ("dram", "tex", "shm")
                },
                "bound_level": verdict.bound_level,
            }
        )
    if getattr(args, "json", None):
        atomic_write_json(
            args.json,
            {"spec": args.spec, "device": device.name, "kernels": kernels},
            indent=2,
        )
        print(f"json: profile written to {args.json}", file=sys.stderr)
    return 0


def cmd_suite(args) -> int:
    print(f"{'benchmark':15s} {'domain':12s} {'T':>3s} {'k':>2s} "
          f"{'FLOPs':>6s} {'arrays':>6s}  notes")
    for name, spec in BENCHMARKS.items():
        domain = "x".join(str(d) for d in spec.domain)
        print(
            f"{name:15s} {domain:12s} {spec.time_iterations:3d} "
            f"{spec.order:2d} {spec.flops_per_point:6d} "
            f"{spec.io_arrays:6d}  {spec.notes}"
        )
    return 0


def cmd_deep_tune(args) -> int:
    from .tuning import deep_tune, fusion_schedule

    ir = _load(args.spec)
    if not ir.is_iterative:
        raise SystemExit("error: deep tuning applies to iterative stencils")
    if len(ir.kernels) > 1:
        from .tuning.fusion import maxfuse

        ir = maxfuse(ir)
    device = _device(args.device)
    engine = _resilience_engine(args, device)
    journal = _open_journal(args, device)
    server = _start_metrics_server(args, engine)
    try:
        result = deep_tune(ir, evaluator=engine, journal=journal)
    finally:
        _stop_metrics_server(server)
        if journal is not None:
            journal.close()
    if result.eval_stats is not None:
        result.eval_stats.publish()
    if args.eval_stats and result.eval_stats is not None:
        _print_eval_stats(result.eval_stats)
    _warn_failures(result.eval_stats, args)
    for entry in result.entries:
        marker = (
            "  <-- tipping point"
            if entry.time_tile == result.tipping_point
            else ""
        )
        print(
            f"({entry.time_tile} x 1): {entry.tflops:6.3f} TFLOPS, "
            f"bound at {entry.bound_level}{marker}"
        )
    schedule = fusion_schedule(result, args.iterations)
    print(
        f"\nschedule for T={args.iterations}: {schedule.describe()} "
        f"({schedule.total_time_s * 1e3:.2f} ms)"
    )
    return 0


def cmd_report(args) -> int:
    events = read_events(args.log)
    out = args.output or str(Path(args.log).with_suffix(".html"))
    document = render_html(events, title=args.title, top_k=args.top_k)
    atomic_write_text(out, document)
    candidates = sum(1 for e in events if e.get("kind") == "candidate")
    print(f"report: {candidates} candidate(s) rendered to {out}")
    return 0


def cmd_lint(args) -> int:
    from .lint import lint_source, extract_dsl_blocks
    from .lint.sarif import write_sarif

    targets = []  # (artifact, dsl_source)
    for spec in args.specs:
        if spec in BENCHMARKS:
            targets.append((spec, get_benchmark(spec).dsl()))
            continue
        path = Path(spec)
        if not path.exists():
            raise UsageError(
                f"{spec!r} is neither a built-in benchmark "
                f"({', '.join(BENCHMARKS)}) nor a file"
            )
        text = path.read_text()
        if path.suffix == ".py":
            blocks = extract_dsl_blocks(text)
            if not blocks:
                print(f"{path}: no DSL blocks found", file=sys.stderr)
            for start, block in blocks:
                targets.append((f"{path}:{start}", block))
        else:
            targets.append((str(path), text))
    if args.suite:
        for name in BENCHMARKS:
            targets.append((name, get_benchmark(name).dsl()))
    if args.examples:
        root = Path(args.examples)
        if not root.is_dir():
            raise UsageError(f"--examples: {args.examples!r} is not a directory")
        for path in sorted(root.glob("*.py")):
            for start, block in extract_dsl_blocks(path.read_text()):
                targets.append((f"{path}:{start}", block))
    if not targets:
        raise UsageError(
            "nothing to lint: pass a spec, --suite, or --examples DIR"
        )

    reports = [lint_source(source, artifact=name) for name, source in targets]
    findings = sum(len(r) for r in reports)
    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)

    if args.json:
        atomic_write_json(
            args.json,
            {
                "artifacts": [r.as_dict() for r in reports],
                "totals": {
                    "artifacts": len(reports),
                    "findings": findings,
                    "errors": errors,
                    "warnings": warnings,
                },
            },
            indent=2,
        )
        print(f"lint: JSON written to {args.json}", file=sys.stderr)
    if args.sarif:
        write_sarif(reports, args.sarif)
        print(f"lint: SARIF written to {args.sarif}", file=sys.stderr)

    for report in reports:
        if report:
            print(report.render())
    print(
        f"lint: {len(reports)} artifact(s), {findings} finding(s) "
        f"({errors} error(s), {warnings} warning(s))"
    )
    return 1 if errors else 0


def cmd_certify(args) -> int:
    """Prove every plan transformation legal (``repro certify``).

    Runs the RL3xx dependence certifier over explicit plans (``--plan``),
    journalled tuning candidates (``--journal``), or — when neither is
    given — each program's per-kernel seed plans.  Exit 1 when any plan
    is refuted; refutations carry replayable witnesses in ``--json`` and
    ``--sarif`` output.
    """
    import json as _json
    from dataclasses import replace as _restamp

    from .codegen.resources import (
        InvalidPlan,
        seed_plan_from_pragma,
        validate_plan,
    )
    from .lint import (
        Diagnostic,
        LintReport,
        certification_advisories,
        certify_plan_transformations,
        extract_dsl_blocks,
    )
    from .lint.rules_plan import RL204
    from .lint.sarif import write_sarif
    from .resilience.checkpoint import plan_from_dict

    programs = [(spec, _load(spec)) for spec in args.specs]
    if args.suite:
        for name in BENCHMARKS:
            programs.append((name, get_benchmark(name).ir()))
    if args.examples:
        root = Path(args.examples)
        if not root.is_dir():
            raise UsageError(
                f"--examples: {args.examples!r} is not a directory"
            )
        for path in sorted(root.glob("*.py")):
            for start, block in extract_dsl_blocks(path.read_text()):
                programs.append((f"{path}:{start}", lower(block)))
    if not programs:
        raise UsageError(
            "nothing to certify: pass a spec, --suite, or --examples DIR"
        )

    explicit = []  # plans certified against every resolved program
    for path in args.plan or []:
        plan_path = Path(path)
        if not plan_path.exists():
            raise UsageError(f"--plan: {path!r} does not exist")
        data = _json.loads(plan_path.read_text())
        for entry in data if isinstance(data, list) else [data]:
            try:
                explicit.append(plan_from_dict(entry))
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(
                    f"--plan: {path!r} is not a serialized KernelPlan: {exc}"
                ) from None
    for path in args.journal or []:
        journal_path = Path(path)
        if not journal_path.exists():
            raise UsageError(f"--journal: {path!r} does not exist")
        seen = {}
        for line in journal_path.read_text().splitlines():
            if not line.strip():
                continue
            record = _json.loads(line)
            if record.get("kind") == "candidate" and record.get("plan"):
                seen[record["key"]] = record["plan"]
        for entry in seen.values():
            try:
                explicit.append(plan_from_dict(entry))
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(
                    f"--journal: {path!r} holds an unreadable plan "
                    f"record: {exc}"
                ) from None

    reports = []
    plans_total = 0
    for name, ir in programs:
        plans = explicit or [
            seed_plan_from_pragma(ir, instance) for instance in ir.kernels
        ]
        for plan in plans:
            plans_total += 1
            artifact = f"{name}::plan({','.join(plan.kernel_names)})"
            findings = [
                _restamp(d, artifact=artifact)
                for d in certify_plan_transformations(ir, plan)
            ]
            try:
                validate_plan(ir, plan)
            except InvalidPlan as exc:
                # Only surface RL204 when no refutation already explains
                # the invalidity (a multi-kernel time tile is both).
                if not any(d.severity == "error" for d in findings):
                    findings.append(
                        Diagnostic(RL204, str(exc), artifact=artifact)
                    )
            else:
                findings.extend(
                    _restamp(d, artifact=artifact)
                    for d in certification_advisories(ir, plan)
                )
            reports.append(
                LintReport(tuple(findings), artifact=artifact)
            )

    errors = sum(len(r.errors) for r in reports)
    findings_total = sum(len(r) for r in reports)
    if args.json:
        atomic_write_json(
            args.json,
            {
                "artifacts": [r.as_dict() for r in reports],
                "totals": {
                    "programs": len(programs),
                    "plans": plans_total,
                    "findings": findings_total,
                    "refutations": errors,
                },
            },
            indent=2,
        )
        print(f"certify: JSON written to {args.json}", file=sys.stderr)
    if args.sarif:
        write_sarif(reports, args.sarif)
        print(f"certify: SARIF written to {args.sarif}", file=sys.stderr)

    for report in reports:
        if report:
            print(report.render())
    verdict = (
        "all transformations certified"
        if errors == 0
        else f"{errors} refutation(s)"
    )
    print(
        f"certify: {plans_total} plan(s) across {len(programs)} "
        f"program(s) — {verdict}"
    )
    return 1 if errors else 0


def cmd_devices(args) -> int:
    """List the registered device profiles (``repro devices``)."""
    import json as _json

    specs = [DEVICES[name] for name in device_names()]
    if getattr(args, "json", False):
        from dataclasses import asdict

        payload = {}
        for spec in specs:
            row = asdict(spec)
            row["ridge_dram"] = spec.ridge_dram
            row["ridge_tex"] = spec.ridge_tex
            row["ridge_shm"] = spec.ridge_shm
            payload[spec.name] = row
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"{'name':8s} {'vendor':7s} {'SMs':>4s} {'warp':>5s} "
        f"{'peak GF':>8s} {'DRAM GB/s':>10s} {'a/b_dram':>9s} "
        f"{'shm/blk KiB':>12s} {'thr/blk':>8s}"
    )
    for spec in specs:
        print(
            f"{spec.name:8s} {spec.vendor:7s} {spec.sms:4d} "
            f"{spec.warp_size:5d} {spec.peak_gflops:8.0f} "
            f"{spec.dram_bw_gbs:10.1f} {spec.ridge_dram:9.2f} "
            f"{spec.shared_mem_per_block / 1024:12.0f} "
            f"{spec.max_threads_per_block:8d}"
        )
    return 0


def cmd_bench(args) -> int:
    import json as _json

    from .suite.bench import compare_bench, format_bench, run_bench

    if args.benchmarks:
        names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
        unknown = [n for n in names if n not in BENCHMARKS]
        if unknown:
            raise UsageError(
                f"unknown benchmark(s): {', '.join(unknown)}; "
                f"available: {', '.join(BENCHMARKS)}"
            )
    else:
        from .suite.bench import DEFAULT_BENCHMARKS

        names = list(DEFAULT_BENCHMARKS)
    results = run_bench(names, device=_device(args.device))
    problems = None
    if args.check or args.baseline:
        baseline_path = args.baseline or "BENCH_search.json"
        if not os.path.exists(baseline_path):
            raise UsageError(
                f"baseline {baseline_path} does not exist; run "
                f"'repro bench --out {baseline_path}' to create one"
            )
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = _json.load(handle)
        problems = compare_bench(
            results,
            baseline,
            tolerance=args.tolerance,
            wall_tolerance=args.gate_wall,
        )
    print(format_bench(results, problems))
    if args.out:
        atomic_write_json(args.out, results, indent=2, sort_keys=True)
        print(f"bench: results written to {args.out}", file=sys.stderr)
    if args.check and problems:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARTEMIS-reproduction stencil compiler and autotuner",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="show full tracebacks instead of one-line error messages "
             "(place before the command: repro --debug optimize ...)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, iterations_default: Optional[int] = None):
        p.add_argument("spec", help="benchmark name or DSL file path")
        p.add_argument(
            "--device", default="P100",
            help=f"device profile ({', '.join(device_names())}; "
                 f"see 'repro devices')",
        )
        return p

    p = add_common(sub.add_parser(
        "characteristics", help="Table-I characteristics of a spec"
    ))
    p.set_defaults(func=cmd_characteristics)

    def add_eval_flags(p):
        p.add_argument(
            "--eval-stats", action="store_true",
            help="print evaluation-engine cache/throughput statistics",
        )
        return p

    def add_resilience_flags(p):
        p.add_argument(
            "--checkpoint", metavar="PATH", default=None,
            help="journal every evaluated candidate to PATH (crash-safe "
                 "JSONL; see docs/robustness.md)",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="resume an interrupted run from the --checkpoint journal",
        )
        p.add_argument(
            "--on-error", choices=ON_ERROR_POLICIES, default="fail-fast",
            help="persistent evaluation failures: abort the run, skip the "
                 "candidate, or retry it on the degraded path",
        )
        p.add_argument(
            "--retries", type=int, default=0, metavar="N",
            help="retry failed evaluations up to N times with exponential "
                 "backoff",
        )
        p.add_argument(
            "--eval-timeout", type=float, default=None, metavar="SECONDS",
            help="per-evaluation deadline; overruns count as failures",
        )
        p.add_argument(
            "--failure-budget", type=int, default=None, metavar="N",
            help="abort once more than N candidates were skipped/degraded "
                 "(a systemic-breakage tripwire)",
        )
        return p

    def add_obs_flags(p):
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="record a span trace of the run and write it to PATH "
                 "(open in chrome://tracing or ui.perfetto.dev)",
        )
        p.add_argument(
            "--trace-format", choices=("chrome", "flat"), default="chrome",
            help="trace file format: chrome://tracing object (default) "
                 "or flat span/metrics JSON",
        )
        p.add_argument(
            "--metrics", action="store_true",
            help="collect pipeline metrics and print them after the run",
        )
        return p

    def add_metrics_port_flag(p):
        p.add_argument(
            "--metrics-port", type=int, default=None, metavar="PORT",
            help="serve live Prometheus metrics on 127.0.0.1:PORT "
                 "(/metrics and /healthz) for the run's duration; "
                 "0 picks an ephemeral port. Implies metrics collection",
        )
        return p

    p = add_common(sub.add_parser("optimize", help="run the full flow"))
    p.add_argument("-T", "--iterations", type=int, default=None,
                   help="time-iteration count for iterative stencils")
    p.add_argument("--top-k", type=int, default=4,
                   help="stage-1 survivors carried into stage 2")
    p.add_argument(
        "--search-log", metavar="PATH", default=None,
        help="record one JSONL event per evaluated candidate to PATH "
             "(render with 'repro report PATH')",
    )
    p.add_argument(
        "--explain", action="store_true",
        help="print the why-this-plan explanation (winner vs runners-up, "
             "advisor rules, convergence) after the report",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the outcome (schedule, stats, explanation) as JSON",
    )
    add_eval_flags(p)
    add_resilience_flags(p)
    add_obs_flags(p)
    add_metrics_port_flag(p)
    p.set_defaults(func=cmd_optimize)

    p = add_common(sub.add_parser("cuda", help="emit the baseline CUDA"))
    p.set_defaults(func=cmd_cuda)

    p = add_common(sub.add_parser("profile", help="profile the baseline"))
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the metrics and roofline verdicts as JSON",
    )
    add_obs_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("suite", help="list the built-in benchmarks")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("devices", help="list the registered device profiles")
    p.add_argument(
        "--json", action="store_true",
        help="emit the full profiles (all model knobs) as JSON",
    )
    p.set_defaults(func=cmd_devices)

    p = add_common(sub.add_parser(
        "deep-tune", help="deep-tune an iterative stencil"
    ))
    p.add_argument("-T", "--iterations", type=int, default=12)
    add_eval_flags(p)
    add_resilience_flags(p)
    add_obs_flags(p)
    add_metrics_port_flag(p)
    p.set_defaults(func=cmd_deep_tune)

    p = sub.add_parser(
        "report", help="render a search log as a standalone HTML report"
    )
    p.add_argument("log", help="search-log JSONL file (from --search-log)")
    p.add_argument(
        "-o", "--output", default=None,
        help="output HTML path (default: the log path with .html)",
    )
    p.add_argument(
        "--title", default="ARTEMIS search report", help="report title"
    )
    p.add_argument(
        "--top-k", type=int, default=3,
        help="runners-up shown in the explanation",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "lint", help="statically verify DSL specs (repro.lint rules)"
    )
    p.add_argument(
        "specs", nargs="*",
        help="benchmark names, DSL files, or Python files with embedded "
             "DSL blocks",
    )
    p.add_argument(
        "--suite", action="store_true",
        help="also lint every built-in suite benchmark",
    )
    p.add_argument(
        "--examples", metavar="DIR", default=None,
        help="extract and lint DSL blocks from every *.py under DIR",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="write all findings as JSON to PATH",
    )
    p.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="write all findings as SARIF 2.1.0 to PATH",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "certify",
        help="prove plan transformations legal (RL3xx dependence certifier)",
    )
    p.add_argument(
        "specs", nargs="*",
        help="benchmark names or DSL files the plans apply to",
    )
    p.add_argument(
        "--plan", action="append", metavar="PATH", default=None,
        help="JSON plan (or list of plans) to certify; repeatable",
    )
    p.add_argument(
        "--journal", action="append", metavar="PATH", default=None,
        help="certify every candidate plan recorded in a tuning journal "
             "(JSONL checkpoint); repeatable",
    )
    p.add_argument(
        "--suite", action="store_true",
        help="also certify every built-in suite benchmark's seed plans",
    )
    p.add_argument(
        "--examples", metavar="DIR", default=None,
        help="certify seed plans of DSL blocks in every *.py under DIR",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="write certification results (witnesses included) as JSON",
    )
    p.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="write certification results as SARIF 2.1.0",
    )
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "bench", help="run the search-performance regression benchmark"
    )
    p.add_argument(
        "--device", default="P100",
        help=f"device profile ({', '.join(device_names())}; "
             f"see 'repro devices')",
    )
    p.add_argument(
        "--benchmarks", default=None, metavar="A,B,...",
        help="comma-separated benchmark names (default: the gated subset)",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the results JSON to PATH",
    )
    p.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="baseline JSON to compare against "
             "(default with --check: BENCH_search.json)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="exit non-zero when a gated metric regressed past tolerance",
    )
    p.add_argument(
        "--tolerance", type=float, default=0.15,
        help="relative drift allowed on gated metrics (default 0.15)",
    )
    p.add_argument(
        "--gate-wall", type=float, default=None, metavar="TOL",
        help="also gate wall_s: fail when it grows more than TOL "
             "(relative) over the baseline; off by default because CI "
             "machines are noisy",
    )
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _obs_begin(args)
    try:
        return args.func(args)
    except ReproError as exc:
        # Error hygiene: one line per failure, mapped to a stable exit
        # status (2 usage, 3 infeasible input, 4 evaluation/checkpoint
        # failure).  --debug restores the traceback.
        if getattr(args, "debug", False):
            raise
        print(f"error: {exc.describe()}", file=sys.stderr)
        return exc.exit_code
    finally:
        _obs_finish(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
