"""Evaluation-engine counts of the 11 suite programs, pinned.

``optimize`` on P100 must make the same requests, hit the memo the same
number of times, screen the same candidates under the same RL codes and
price the same number of lanes, however the engine is built inside.
With a search log attached, the log must hold one ``candidate`` event
per request and one ``prune`` event per candidate resolved without a
request, and the counts must not depend on whether the log is on.
"""

import re
from collections import Counter

import pytest

from repro.gpu.device import get_device
from repro.gpu.pricing import priced_lane_count
from repro.obs.search import SearchLog
from repro.pipeline import optimize
from repro.suite import BENCHMARK_ORDER, load_ir
from repro.tuning.evaluator import PlanEvaluator

P100 = get_device("P100")

FIELDS = (
    "requests", "hits", "misses", "screened", "lint_rejections",
    "infeasible", "vectorized", "rungs_skipped",
)

# name: (requests, hits, misses, screened, lint_rejections, infeasible,
#        vectorized, rungs_skipped), priced lanes, prune events,
#        screened requests by rule code
EXPECTED = {
    "7pt-smoother": (
        (1616, 5, 1611, 599, 599, 599, 980, 1708), 1573, 0,
        {"RL201": 589, "RL202": 10},
    ),
    "27pt-smoother": (
        (954, 3, 951, 535, 535, 535, 416, 661), 951, 0,
        {"RL201": 517, "RL202": 18},
    ),
    "helmholtz": (
        (1292, 4, 1288, 482, 482, 482, 766, 1963), 1244, 0,
        {"RL201": 474, "RL202": 8},
    ),
    "denoise": (
        (1743, 3, 1740, 898, 898, 898, 842, 3009), 1740, 0,
        {"RL201": 890, "RL202": 8},
    ),
    "miniflux": (
        (1608, 0, 1608, 914, 914, 914, 674, 5572), 2046, 458,
        {"RL201": 315, "RL203": 599},
    ),
    "hypterm": (
        (253, 0, 253, 159, 159, 159, 94, 3755), 1002, 749,
        {"RL201": 49, "RL203": 110},
    ),
    "diffterm": (
        (1574, 0, 1574, 915, 915, 915, 659, 7325), 2329, 755,
        {"RL201": 191, "RL203": 724},
    ),
    "addsgd4": (
        (544, 0, 544, 346, 346, 346, 198, 3370), 1002, 458,
        {"RL201": 193, "RL203": 153},
    ),
    "addsgd6": (
        (253, 0, 253, 143, 143, 143, 110, 3708), 1002, 749,
        {"RL201": 49, "RL203": 94},
    ),
    "rhs4center": (
        (337, 0, 337, 262, 262, 262, 75, 3671), 1002, 665,
        {"RL201": 237, "RL203": 25},
    ),
    "rhs4sgcurv": (
        (305, 0, 305, 147, 147, 147, 156, 3425), 932, 629,
        {"RL201": 111, "RL203": 36},
    ),
}

SUITE_REQUESTS = 10479
SUITE_PRICED_LANES = 14823


def _counts(name, search_log=None):
    before = priced_lane_count()
    engine = PlanEvaluator(device=P100, search_log=search_log)
    outcome = optimize(load_ir(name), device=P100, evaluator=engine)
    stats = outcome.eval_stats
    return (
        tuple(getattr(stats, field) for field in FIELDS),
        priced_lane_count() - before,
    )


@pytest.fixture(scope="module")
def measured():
    out = {}
    for name in BENCHMARK_ORDER:
        stats, lanes = _counts(name)
        log = SearchLog(device=P100)
        logged_stats, logged_lanes = _counts(name, search_log=log)
        rules = Counter()
        for event in log._events:
            if event.get("kind") == "candidate" and (
                event.get("disposition") == "screened"
            ):
                rules[re.match(r"\[(RL\d+)\] ", event["reason"]).group(1)] += 1
        counts = log.counts()
        out[name] = {
            "stats": stats,
            "lanes": lanes,
            "logged": (logged_stats, logged_lanes),
            "candidate": counts.get("candidate", 0),
            "prune": counts.get("prune", 0),
            "rules": dict(rules),
        }
    return out


def test_table_covers_the_suite():
    assert set(EXPECTED) == set(BENCHMARK_ORDER)


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_engine_counts(measured, name):
    stats, lanes, prunes, rules = EXPECTED[name]
    got = measured[name]
    assert dict(zip(FIELDS, got["stats"])) == dict(zip(FIELDS, stats))
    assert got["lanes"] == lanes
    assert got["logged"] == (got["stats"], got["lanes"])
    assert got["candidate"] == stats[0]
    assert got["prune"] == prunes
    assert got["rules"] == rules
    assert sum(rules.values()) == stats[3] == stats[4]


def test_suite_totals(measured):
    assert sum(m["stats"][0] for m in measured.values()) == SUITE_REQUESTS
    assert sum(m["lanes"] for m in measured.values()) == SUITE_PRICED_LANES
