"""A long-lived process compiles program after program without keeping
any of them alive.

Analysis and geometry results are pinned on the frozen IR objects they
derive from, so they must die with their IR: after several in-process
``optimize`` passes, every ``ProgramIR`` and ``StencilInstance`` a pass
built is collectable once its outcome is dropped.  The pinned results
must also stay invisible: a warm IR compares, hashes, prints,
fingerprints and pickles like a freshly built twin.
"""

import gc
import pickle
import weakref

from repro.dsl import parse
from repro.ir import ProgramIR, StencilInstance, build_ir
from repro.pipeline import optimize
from repro.resilience.checkpoint import ir_fingerprint
from repro.suite import get, load_ir

PROGRAMS = ("7pt-smoother", "denoise", "hypterm", "addsgd4", "rhs4sgcurv")
PASSES = 3


def _ir_objects():
    return [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, (ProgramIR, StencilInstance))
    ]


def _assert_matches_cold_twin(warm, name):
    twin = build_ir(parse(get(name).dsl()))
    assert "_memo" in vars(warm) and "_memo" not in vars(twin)
    assert any("_memo" in vars(kernel) for kernel in warm.kernels)
    assert warm == twin
    assert hash(warm) == hash(twin)
    assert repr(warm) == repr(twin)
    assert ir_fingerprint(warm) == ir_fingerprint(twin)
    restored = pickle.loads(pickle.dumps(warm))
    assert restored == twin
    assert "_memo" not in vars(restored)
    assert not any("_memo" in vars(kernel) for kernel in restored.kernels)
    for kernel, cold in zip(warm.kernels, twin.kernels):
        assert kernel == cold and hash(kernel) == hash(cold)
        assert pickle.loads(pickle.dumps(kernel)) == cold


def _one_pass():
    """Optimize every program once; weak references to every IR object
    the pass left reachable, and each program's (variant, TFLOPS)."""
    gc.collect()
    baseline = _ir_objects()  # held, so no new object can reuse an id
    before = {id(obj) for obj in baseline}
    outcomes = {}
    irs = {}
    for name in PROGRAMS:
        irs[name] = load_ir(name)
        outcomes[name] = optimize(irs[name])
    refs = [weakref.ref(obj) for obj in _ir_objects() if id(obj) not in before]
    # Every program's IR and kernels are among them.
    assert len(refs) >= sum(1 + len(ir.kernels) for ir in irs.values())
    winners = {
        name: (outcome.variant, outcome.tflops)
        for name, outcome in outcomes.items()
    }
    return refs, winners


def test_dropped_programs_are_collected_across_passes():
    first_winners = None
    for _ in range(PASSES):
        refs, winners = _one_pass()
        gc.collect()
        alive = [ref() for ref in refs if ref() is not None]
        assert not alive, (
            f"{len(alive)} IR objects outlived their pass, e.g. "
            f"{type(alive[0]).__name__} {getattr(alive[0], 'name', '')}"
        )
        # The same programs compile to the same winners every pass.
        first_winners = first_winners or winners
        assert winners == first_winners


def test_warm_ir_matches_a_cold_twin():
    for name in PROGRAMS:
        warm = load_ir(name)
        optimize(warm)
        _assert_matches_cold_twin(warm, name)
