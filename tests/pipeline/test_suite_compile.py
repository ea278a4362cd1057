"""Whole-program compiles on P100: DSL text to CUDA for the winning schedule.

Two guards on the compile path:

* the emitted CUDA of every Table I winner is pinned byte for byte, so a
  speed change in analysis or emission cannot change the output;
* compiling ``rhs4sgcurv`` builds each expression root's pre-order at
  most once, so a change that rebuilds traversals on every query fails
  here and not only in the benchmark.
"""

import hashlib

import pytest

import repro.dsl.ast as dsl_ast
from repro.codegen import emit_cuda
from repro.dsl import parse
from repro.gpu.device import get_device
from repro.ir import build_ir
from repro.pipeline import optimize
from repro.suite import BENCHMARK_ORDER, get

#: sha256 prefix of the concatenated CUDA sources of each winner.
CUDA_DIGESTS = {
    "7pt-smoother": "2af2d5d8eeabcdb2",
    "27pt-smoother": "c3e8de2227cce9c1",
    "helmholtz": "ed23266092e26663",
    "denoise": "f8721561d28f1d55",
    "miniflux": "c78e1319faa83e2d",
    "hypterm": "b4fb2afaf41c6cea",
    "diffterm": "a4fe8a487f263455",
    "addsgd4": "006b8192dfee075f",
    "addsgd6": "06241f621128575b",
    "rhs4center": "fda105b8d3e02559",
    "rhs4sgcurv": "d5023d56e64d47c5",
}
CUDA_TOTAL_BYTES = 229_789


def compile_to_cuda(name):
    ir = build_ir(parse(get(name).dsl()))
    outcome = optimize(ir, device=get_device("P100"))
    return "".join(emit_cuda(outcome.ir, plan).source for plan in outcome.schedule.plans)


@pytest.fixture(scope="module")
def suite_cuda():
    return {name: compile_to_cuda(name) for name in BENCHMARK_ORDER}


def test_winner_cuda_is_byte_identical(suite_cuda):
    digests = {
        name: hashlib.sha256(source.encode()).hexdigest()[:16]
        for name, source in suite_cuda.items()
    }
    assert digests == CUDA_DIGESTS
    assert sum(len(s.encode()) for s in suite_cuda.values()) == CUDA_TOTAL_BYTES


def test_rhs4sgcurv_builds_each_preorder_at_most_once(monkeypatch):
    builds = {}
    roots = []  # strong references keep every counted id unique
    real = dsl_ast._build_preorder

    def counting(root):
        roots.append(root)
        builds[id(root)] = builds.get(id(root), 0) + 1
        return real(root)

    monkeypatch.setattr(dsl_ast, "_build_preorder", counting)
    compile_to_cuda("rhs4sgcurv")
    assert builds
    assert max(builds.values()) == 1
