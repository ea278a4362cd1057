"""Scalar-vs-vectorized pricing parity.

The family-pricing backend's contract is *bitwise* agreement with the
scalar path: for every lane, ``price_family`` must return either a
:class:`SimulationResult` equal field-for-field to ``simulate()``, or
the exact occupancy rejection (message, context, RL2xx lint code) that
``plan_occupancy`` raises.  The Hypothesis suite sweeps the grid knobs
(block, unroll, unroll_blocked, max_registers) over several structural
prototypes — streaming modes, perspectives, prefetch — and checks every
lane against a fresh scalar evaluation.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.codegen.plan import (
    KernelPlan,
    PERSPECTIVE_INPUT,
    PERSPECTIVE_MIXED,
    REGISTER_LEVELS,
    STREAM_CONCURRENT,
)
from repro.dsl import parse
from repro.gpu import P100
from repro.gpu.device import DEVICES, device_names, get_device
from repro.gpu.pricing import (
    GRID_AXES,
    family_structure,
    price_family,
    priced_lane_count,
)
from repro.gpu.registers import register_demand
from repro.gpu.simulator import PlanInfeasible, plan_occupancy, simulate
from repro.ir import build_ir
from repro.lint.rules_plan import classify_occupancy_failure
from repro.resilience.errors import UsageError


def _star_ir(size=192):
    return build_ir(parse(f"""
    parameter L={size}, M={size}, N={size};
    iterator k, j, i;
    double in[L,M,N], out[L,M,N], a;
    copyin in, a;
    stencil s (B, A, a) {{
      B[k][j][i] = a * (A[k][j][i+1] + A[k][j][i-1] + A[k+1][j][i]
        + A[k-1][j][i] + A[k][j+1][i] + A[k][j-1][i]);
    }}
    s (out, in, a);
    copyout out;
    """))


IR = _star_ir()

#: Structural prototypes: every branch the vectorized backend resolves
#: at :class:`FamilyStructure` build time gets at least one family.
PROTOS = {
    "serial-shm": KernelPlan(
        kernel_names=("s.0",), block=(16, 16), streaming="serial",
        stream_axis=0, placements=(("in", "shmem"),),
    ),
    "serial-prefetch": KernelPlan(
        kernel_names=("s.0",), block=(16, 16), streaming="serial",
        stream_axis=0, placements=(("in", "shmem"),), prefetch=True,
    ),
    "concurrent": KernelPlan(
        kernel_names=("s.0",), block=(16, 16), streaming=STREAM_CONCURRENT,
        stream_axis=0, concurrent_chunks=4, placements=(("in", "shmem"),),
    ),
    "none-gmem": KernelPlan(
        kernel_names=("s.0",), block=(4, 8, 8), streaming="none",
    ),
    "input-persp": KernelPlan(
        kernel_names=("s.0",), block=(16, 16), streaming="serial",
        stream_axis=0, placements=(("in", "shmem"),),
        perspective=PERSPECTIVE_INPUT,
    ),
    "mixed-persp": KernelPlan(
        kernel_names=("s.0",), block=(16, 16), streaming="serial",
        stream_axis=0, placements=(("in", "shmem"),),
        perspective=PERSPECTIVE_MIXED,
    ),
}

#: Tile menus per block rank.  Oversized entries ((64, 32) is 2048
#: threads; (32, 32) with unroll can blow the shared-memory budget) are
#: deliberate: rejection lanes must classify identically too.
_BLOCKS_2D = [(8, 8), (16, 8), (16, 16), (32, 8), (32, 16), (32, 32), (64, 32)]
_BLOCKS_3D = [(2, 8, 8), (4, 8, 8), (4, 16, 16), (8, 8, 16), (16, 16, 8)]
_UNROLLS = [(), (1,), (2,), (4,), (1, 2), (2, 2), (1, 1, 2)]
_MAXREGS = list(REGISTER_LEVELS) + [48, 96, 200]


def scalar_lane(ir, plan, device=P100):
    """The scalar reference: demand + occupancy screen + simulate."""
    demand = register_demand(ir, plan)
    try:
        plan_occupancy(ir, plan, device)
    except PlanInfeasible as exc:
        cause = exc.__cause__
        return {
            "demand": demand,
            "result": None,
            "message": str(exc),
            "context": dict(getattr(cause, "context", None) or {}),
            "code": classify_occupancy_failure(cause),
        }
    return {"demand": demand, "result": simulate(ir, plan, device)}


def assert_lane_parity(ir, plan, lane, device=P100):
    want = scalar_lane(ir, plan, device)
    assert lane.demand == want["demand"], plan.describe()
    if want["result"] is None:
        assert lane.result is None, (
            f"{plan.describe()}: scalar infeasible, lane feasible"
        )
        assert lane.occ_message == want["message"], plan.describe()
        assert lane.occ_context == want["context"], plan.describe()
        assert lane.occ_code == want["code"], plan.describe()
        assert lane.occ_code is not None
        assert lane.occ_code.startswith("RL2"), lane.occ_code
    else:
        assert lane.result is not None, (
            f"{plan.describe()}: scalar feasible, lane rejected: "
            f"{lane.occ_message}"
        )
        got, ref = lane.result, want["result"]
        assert got.counters == ref.counters, plan.describe()
        assert got.occupancy == ref.occupancy, plan.describe()
        assert got.timing == ref.timing, plan.describe()
        assert got.time_s == ref.time_s and got.tflops == ref.tflops


@st.composite
def family_grids(draw):
    proto_name = draw(st.sampled_from(sorted(PROTOS)))
    proto = PROTOS[proto_name]
    blocks = _BLOCKS_3D if len(proto.block) == 3 else _BLOCKS_2D
    lanes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(blocks),
                st.sampled_from(_UNROLLS),
                st.booleans(),
                st.sampled_from(_MAXREGS),
            ),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    return proto, lanes


class TestBitwiseParity:
    @settings(max_examples=30, deadline=None)
    @given(family_grids())
    def test_price_family_matches_scalar_loop(self, family):
        proto, lanes = family
        plans = [
            proto.replace(
                block=block, unroll=unroll, unroll_blocked=blocked,
                max_registers=maxreg,
            )
            for block, unroll, blocked, maxreg in lanes
        ]
        pricing = price_family(IR, plans)
        assert len(pricing) == len(plans)
        for plan, lane in zip(pricing.plans, pricing.lanes):
            assert_lane_parity(IR, plan, lane)

    def test_grid_expansion_covers_cross_product(self):
        proto = PROTOS["serial-shm"]
        grid = {"block": [(16, 16), (32, 8)], "max_registers": [64, 255]}
        pricing = price_family(IR, proto, grid=grid)
        assert len(pricing) == 4
        seen = {(p.block, p.max_registers) for p in pricing.plans}
        assert seen == {
            ((16, 16), 64), ((16, 16), 255), ((32, 8), 64), ((32, 8), 255),
        }
        for plan, lane in zip(pricing.plans, pricing.lanes):
            assert_lane_parity(IR, plan, lane)

    def test_rejection_lane_classifies_like_lint(self):
        # 2048 threads per block: the occupancy screen must reject this
        # lane with the same RL2xx code the scalar path produces.
        proto = PROTOS["serial-shm"]
        pricing = price_family(IR, [proto.replace(block=(64, 32))])
        (lane,) = pricing.lanes
        assert not lane.feasible
        assert_lane_parity(IR, proto.replace(block=(64, 32)), lane)

    def test_table_mirrors_lanes(self):
        proto = PROTOS["serial-shm"]
        plans = [
            proto.replace(block=b, max_registers=m)
            for b in ((16, 16), (32, 8), (64, 32)) for m in (64, 255)
        ]
        pricing = price_family(IR, plans)
        table = pricing.table
        assert len(table) == len(plans)
        best = pricing.best_index()
        assert best is not None
        best_t = min(
            lane.result.time_s for lane in pricing.lanes if lane.feasible
        )
        assert pricing.lanes[best].result.time_s == best_t
        for row, lane in zip(table, pricing.lanes):
            assert bool(row["feasible"]) == lane.feasible
            assert int(row["reg_demand"]) == lane.demand
            if lane.feasible:
                assert float(row["time_s"]) == lane.result.time_s
                assert float(row["tflops"]) == lane.result.tflops
            else:
                assert row["rejection"] == (lane.occ_code or "")


class TestDeviceParity:
    """The bitwise contract holds on *every* registered device profile.

    The vectorized backend reads a dozen device knobs (warp width,
    transaction sector, spill rate, scheduler count, ...); each must be
    threaded identically into the lane arithmetic and the scalar path,
    on NVIDIA and AMD-like profiles alike.
    """

    @settings(max_examples=40, deadline=None)
    @given(family_grids(), st.sampled_from(sorted(DEVICES)))
    def test_price_family_matches_scalar_on_all_devices(self, family, name):
        device = get_device(name)
        proto, lanes = family
        plans = [
            proto.replace(
                block=block, unroll=unroll, unroll_blocked=blocked,
                max_registers=maxreg,
            )
            for block, unroll, blocked, maxreg in lanes
        ]
        pricing = price_family(IR, plans, device=device)
        assert len(pricing) == len(plans)
        for plan, lane in zip(pricing.plans, pricing.lanes):
            assert_lane_parity(IR, plan, lane, device=device)

    @settings(max_examples=40, deadline=None)
    @given(family_grids(), st.sampled_from(sorted(DEVICES)))
    def test_code_column_matches_scalar_rejection(self, family, name):
        # The evaluation engine screens and counts a rejected lane by
        # its code column and asks the scalar model for the message only
        # when one is read, where a disagreement is fatal rather than a
        # fallback: the column must already name the scalar rule.
        device = get_device(name)
        proto, lanes = family
        plans = [
            proto.replace(
                block=block, unroll=unroll, unroll_blocked=blocked,
                max_registers=maxreg,
            )
            for block, unroll, blocked, maxreg in lanes
        ]
        priced = family_structure(IR, proto).price(plans, device)
        for i, plan in enumerate(plans):
            want = scalar_lane(IR, plan, device)
            assert bool(priced.feasible[i]) == (want["result"] is not None)
            assert priced.code(i) == want.get("code"), plan.describe()
            if want["result"] is None:
                message, context, code = priced.rejection(i)
                assert (message, context, code) == (
                    want["message"], want["context"], want["code"]
                ), plan.describe()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(DEVICES)), st.data())
    def test_rejection_codes_stable_on_all_devices(self, name, data):
        # Build a footprint that violates exactly one device limit and
        # check the classification is the documented RL2xx code with
        # the device's name in the message — for every profile,
        # including wavefront-64 / LDS ones whose thresholds differ.
        from repro.gpu.occupancy import occupancy
        from repro.resilience.errors import InfeasiblePlanError

        device = get_device(name)
        kind = data.draw(
            st.sampled_from(["threads", "shmem", "registers"]), label="kind"
        )
        threads, regs, shmem = device.warp_size, 32, 0
        if kind == "threads":
            threads = device.max_threads_per_block * data.draw(
                st.integers(min_value=2, max_value=8), label="factor"
            )
            expected = "RL202"
        elif kind == "shmem":
            shmem = device.shared_mem_per_block + data.draw(
                st.integers(min_value=1, max_value=1 << 20), label="extra"
            )
            expected = "RL201"
        else:
            regs = device.max_registers_per_thread + data.draw(
                st.integers(min_value=1, max_value=256), label="extra"
            )
            expected = "RL203"
        with pytest.raises(InfeasiblePlanError) as info:
            occupancy(device, threads, regs, shmem)
        assert classify_occupancy_failure(info.value) == expected
        assert info.value.context.get("device") == device.name
        # The operator-facing message names the offending device.
        assert f"device={device.name}" in info.value.describe()

    def test_registry_names_resolve(self):
        for name in device_names():
            assert get_device(name).name == name
            assert get_device(name.lower()) is get_device(name)


class TestSpillFreeResolution:
    LEVEL_LISTS = [
        list(REGISTER_LEVELS),
        [255],
        [64, 64, 128],        # duplicates
        [128, 32, 255, 64],   # unsorted
        [32],                 # likely nothing fits
    ]

    @pytest.mark.parametrize("levels", LEVEL_LISTS)
    def test_positions_match_scalar_ladder(self, levels):
        proto = PROTOS["serial-shm"]
        structure = family_structure(IR, proto)
        plans = [
            proto.replace(block=b, unroll=u)
            for b in ((8, 8), (16, 16), (32, 16), (32, 32))
            for u in ((), (2,), (1, 2))
        ]
        demands, positions, lanes = structure.price_spill_free(plans, levels)
        assert len(demands) == len(positions) == len(lanes) == len(plans)
        for i, plan in enumerate(plans):
            demand = register_demand(IR, plan)
            assert int(demands[i]) == demand
            level = next((lv for lv in levels if demand <= lv), None)
            want = -1 if level is None else levels.index(level)
            assert int(positions[i]) == want, plan.describe()
            if want >= 0:
                # The lane was priced at the resolved (spill-free) cap,
                # not the prototype's 255.
                resolved = plan.replace(max_registers=levels[want])
                assert_lane_parity(IR, resolved, lanes[i])

    def test_lane_counter_advances(self):
        proto = PROTOS["serial-shm"]
        before = priced_lane_count()
        price_family(IR, [proto, proto.replace(block=(32, 8))])
        assert priced_lane_count() == before + 2


class TestUsageErrors:
    def test_non_grid_axis_rejected(self):
        with pytest.raises(UsageError, match="structure"):
            price_family(IR, PROTOS["serial-shm"], grid={"prefetch": [True]})
        assert "block" in GRID_AXES

    def test_mixed_structural_keys_rejected(self):
        with pytest.raises(UsageError, match="structural"):
            price_family(
                IR,
                [PROTOS["serial-shm"], PROTOS["serial-prefetch"]],
            )

    def test_empty_family_rejected(self):
        with pytest.raises(UsageError, match="at least one"):
            price_family(IR, [])

    def test_grid_with_plan_list_rejected(self):
        with pytest.raises(UsageError, match="grid"):
            price_family(
                IR, [PROTOS["serial-shm"]], grid={"max_registers": [64]}
            )


class TestBackendSmoke:
    def test_vectorized_backend_imports_and_prices(self):
        # Satellite guard for the numpy>=1.23 runtime dependency: the
        # backend must import against the installed numpy and price a
        # minimal family end to end.
        import numpy

        import repro.gpu.pricing as pricing_module

        assert pricing_module.np is numpy
        major, minor = (int(x) for x in numpy.__version__.split(".")[:2])
        assert (major, minor) >= (1, 23)
        pricing = price_family(IR, [PROTOS["serial-shm"]])
        (lane,) = pricing.lanes
        assert lane.feasible and lane.result.time_s > 0
