"""A tuning result is a pure function of (program, device, iterations).

Two child interpreters with different ``PYTHONHASHSEED`` values run the
whole ``optimize`` flow over every suite program on P100, plus the
smallest and the largest program on every other registered device, and
must print byte-identical canonical records: set- or dict-iteration
order leaking into candidate order, tie-breaking or float accumulation
would show up here as a different variant, schedule, TFLOPS bit pattern
or request count.  Where ``optimize`` raises (the TOY profile cannot
launch some programs' seed plans), the exception type and message must
match instead.  The test process, under its own random hash seed and
with whatever caches earlier tests warmed, must print the same record.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.gpu.device import get_device
from repro.pipeline import optimize
from repro.suite import BENCHMARK_ORDER, load_ir

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

SEEDS = ("0", "4242")

CASES = [(name, "P100") for name in BENCHMARK_ORDER] + [
    (name, device)
    for device in ("V100", "A100", "MI100", "TOY")
    for name in ("7pt-smoother", "rhs4sgcurv")
]


def record(name, device):
    """Canonical JSON of one ``optimize`` outcome (or of its error)."""
    try:
        outcome = optimize(load_ir(name), device=get_device(device))
    except Exception as exc:
        fields = {"error": type(exc).__name__, "message": str(exc)}
    else:
        fields = {
            "variant": outcome.variant,
            "schedule": [
                [plan.describe(), count]
                for plan, count in zip(
                    outcome.schedule.plans, outcome.schedule.counts
                )
            ],
            "tflops": repr(outcome.tflops),
            "requests": outcome.eval_stats.requests,
        }
    fields["case"] = [name, device]
    return json.dumps(fields, sort_keys=True)


CHILD = r"""
from tests.integration.test_hash_seed_determinism import CASES, record

for name, device in CASES:
    print(record(name, device))
"""


@pytest.fixture(scope="module")
def children():
    """Each seed's records, from two children run side by side."""
    procs = []
    for seed in SEEDS:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", CHILD],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                cwd=REPO_ROOT,
            )
        )
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outputs.append(out.splitlines())
    return outputs


def test_children_cover_every_case_with_real_winners(children):
    for lines in children:
        assert [json.loads(line)["case"] for line in lines] == [
            list(case) for case in CASES
        ]
    # The comparison must cover real winners, not only error records.
    assert sum('"variant"' in line for line in children[0]) >= 11


@pytest.mark.parametrize("case", CASES, ids="-".join)
def test_optimize_is_identical_across_hash_seeds(case, children):
    index = CASES.index(case)
    first, second = (lines[index] for lines in children)
    assert first == second
    assert record(*case) == first
