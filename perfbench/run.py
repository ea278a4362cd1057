"""Benchmark of the ARTEMIS reproduction, run from the root of a checkout.

    python3 perfbench/run.py --workload suite-p100 --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, then, as the last line of
standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of an untraced run; ``--trace 1`` runs one pass
untraced and then traced, and reports the per-layer metrics and the
tracing overhead.  Exits 1 when any output fails its correctness check
and 2 when the checkout holds no ``src/repro``.

    python3 perfbench/run.py --regen-golden

rewrites ``perfbench/golden.json`` from the current code; nothing else
ever changes it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import WORK, repro_available, use_repro, warm_bytecode

WORKLOAD_NAMES = ("suite-p100", "deeptune-devices", "cli-journal")


def _regen_golden() -> None:
    import gate
    import workloads
    from repro.gpu.device import get_device

    golden = {"optimize": {}, "deep_tune": {}, "cli_optimize": {}}
    p100 = get_device("P100")
    for name in workloads.BENCHMARK_ORDER:
        _, outcome = workloads.compile_program(workloads.get_spec(name).dsl(), p100)
        golden["optimize"][gate.golden_key(name, "P100")] = gate.optimize_summary(outcome)
    for name in workloads.ITERATIVE:
        for device_name in workloads.DEVICES:
            _, ir = workloads.prepare_iterative(workloads.get_spec(name).dsl())
            engine, result, _ = workloads.deep_tune_op(ir, get_device(device_name), 1)
            golden["deep_tune"][gate.golden_key(name, device_name)] = (
                gate.deep_tune_summary(result, engine.stats.requests)
            )
    directory = WORK / "regen"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        for name in workloads.BENCHMARK_ORDER:
            argv = workloads.cli_argvs(name, directory)["write"]
            code, stderr = workloads.run_in_process(argv)
            if code != 0:
                raise SystemExit(f"repro {' '.join(argv)} exited {code}: {stderr}")
            with open(argv[-1]) as fh:
                golden["cli_optimize"][gate.golden_key(name, "P100")] = (
                    gate.cli_summary(json.load(fh))
                )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    with open(gate.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {gate.GOLDEN_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--regen-golden", action="store_true",
        help="rewrite golden.json from the current code and exit",
    )
    # Internal: one pass of an in-process workload, ops as JSON on stdin.
    parser.add_argument("--worker", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not repro_available():
        print("perfbench: this checkout has no src/repro to measure", file=sys.stderr)
        return 2
    use_repro()
    if args.regen_golden:
        _regen_golden()
        return 0
    if args.worker:
        import gate
        import workloads

        request = json.load(sys.stdin)
        workload = workloads.WORKLOADS[args.worker](args.seed, gate.load_golden())
        print(json.dumps(workload.run_pass(request["ops"], request["replay"])))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import gate
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, gate.load_golden())
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_bytecode()
        if args.trace:
            result = workload.traced(workdir)
        else:
            result = workload.measure(args.seconds, workdir)
    except workloads.NoResult as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = result.tally
    for message in tally.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value!r} {unit}")
    if result.trace is not None:
        path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        result.trace.write(path, {
            "workload": args.workload,
            "seed": args.seed,
            "metrics": {k: v for k, (v, _) in result.metrics.items()},
        })
        print(f"trace written to {path}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
