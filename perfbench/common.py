"""Paths, child-process environment and statistics shared by the benchmark."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one checkout: journals, search logs, traces and the
#: bytecode cache of the child interpreters.  Never committed.
WORK = ROOT / ".bench_work"

#: Longest a single child interpreter may run before it counts as failed.
CHILD_TIMEOUT_S = 120.0

#: Time of :func:`_speed_loop` on the reference machine (2 cores,
#: Python 3.11).  On a shared host the interpreter's speed drifts by
#: tens of percent within a minute.  Every timed operation is therefore
#: bracketed by runs of this fixed loop and scaled by how fast it ran,
#: which turns wall time into seconds on the reference machine and
#: removes most of the drift (see :func:`timed`).
REFERENCE_LOOP_S = 0.002


def repro_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_repro() -> None:
    """Make the checkout's ``src/repro`` importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for ``python -m repro`` children.

    Children read and write bytecode under :data:`WORK` (users of the
    CLI have warm bytecode caches), and import the checkout's sources.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(args: Sequence[str], stdin: Optional[str] = None) -> subprocess.CompletedProcess:
    """Run one child interpreter in the checkout root to completion."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=child_env(),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def _speed_loop() -> float:
    total = 0.0
    for i in range(20000):
        total += (i * 0.5) / (1 + (i & 7))
    return total


def loop_time() -> float:
    """Median wall time of three runs of the speed loop, now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _speed_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed(fn: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``fn``; return (result, reference-machine seconds, scale).

    ``scale`` converts this call's wall seconds to reference-machine
    seconds; it comes from the speed loop run just before and just
    after the call.
    """
    before = loop_time()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    scale = 2 * REFERENCE_LOOP_S / (before + loop_time())
    return result, elapsed * scale, scale


def warm_bytecode() -> None:
    """Compile every module once so no timed child pays for it."""
    run_child(["-m", "compileall", "-q", str(SRC / "repro")])


def fresh_import_s(statement: str, repeats: int) -> float:
    """Median time of a fresh interpreter running ``statement``, in
    reference-machine seconds.

    One untimed run first, so the file cache is as warm as a user's.
    """
    run_child(["-c", statement])
    times = []
    for _ in range(repeats):
        proc, seconds, _ = timed(lambda: run_child(["-c", statement]))
        if proc.returncode != 0:
            raise RuntimeError(f"{statement!r} failed: {proc.stderr.strip()}")
        times.append(seconds)
    return statistics.median(times)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer no such
    percentile exists and the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def passes_for(seconds: float, nominal_pass_s: float) -> int:
    """Whole passes a run makes: fixed by ``--seconds``, never by the clock.

    A run does the same work on every commit, so the percentiles of a
    mixed set of programs always land on the same program.
    """
    return max(1, round(seconds / nominal_pass_s))


def summarize_times(times: List[float]) -> Dict[str, float]:
    value, pct = tail(times)
    return {
        "p50": statistics.median(times),
        "tail": value,
        "tail_pct": pct,
        "n": len(times),
        "per_s": len(times) / sum(times),
    }
