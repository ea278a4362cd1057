"""Search-telemetry tests: the candidate accounting invariant.

The headline guarantee: the number of ``candidate`` records in a search
log equals ``EvalStats.requests`` *exactly* — cache hits, prescreen
rejections, infeasible plans, injected faults, retries and degraded
re-runs included.  Demonstrated on a clean full-pipeline run and under
seeded chaos.
"""

import json
import threading

import pytest

from repro.codegen import seed_plan_from_pragma
from repro.dsl import parse
from repro.ir import build_ir
from repro.obs.search import SearchLog, log_context, read_events
from repro.pipeline import optimize
from repro.resilience import FaultInjector, RetryPolicy, UsageError
from repro.tuning import HierarchicalTuner, PlanEvaluator

SMOOTHER_SRC = """
parameter L=128, M=128, N=128;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a, b, h2inv;
copyin in, h2inv, a, b;
iterate 8;
#pragma stream k block (32,16)
stencil jacobi (B, A, h2inv, a, b) {
  double c = b * h2inv;
  B[k][j][i] = a*A[k][j][i] - c*(A[k][j][i+1] + A[k][j][i-1]
    + A[k][j+1][i] + A[k][j-1][i] + A[k+1][j][i] + A[k-1][j][i]
    - A[k][j][i]*6.0);
}
jacobi (out, in, h2inv, a, b);
copyout out;
"""


@pytest.fixture(scope="module")
def smoother_ir():
    return build_ir(parse(SMOOTHER_SRC))


def _tuned(ir, **evaluator_kwargs):
    log = SearchLog()
    engine = PlanEvaluator(search_log=log, **evaluator_kwargs)
    base = seed_plan_from_pragma(ir, ir.kernels[0]).replace(
        placements=(("in", "shmem"),)
    )
    tuner = HierarchicalTuner(ir, evaluator=engine)
    tuner.tune(base)
    return log, engine


class TestSearchLogBasics:
    def test_header_first_with_device_payload(self):
        from repro.gpu.device import P100

        log = SearchLog(device=P100)
        events = log.events()
        assert events[0]["kind"] == "header"
        assert events[0]["device"]["name"] == P100.name
        assert events[0]["device"]["ridge_dram"] == P100.ridge("dram")

    def test_emit_stamps_seq_time_and_context(self):
        log = SearchLog()
        with log.context(stage="stage1", kernels="k"):
            log.emit("probe", value=1)
        (event,) = [e for e in log.events() if e["kind"] == "probe"]
        assert event["seq"] == 1
        assert event["t_ms"] >= 0.0
        assert event["context"] == {"stage": "stage1", "kernels": "k"}

    def test_context_nests_and_restores(self):
        log = SearchLog()
        with log.context(a=1):
            with log.context(b=2):
                log.emit("inner")
            log.emit("outer")
        log.emit("bare")
        events = {e["kind"]: e for e in log.events()}
        assert events["inner"]["context"] == {"a": 1, "b": 2}
        assert events["outer"]["context"] == {"a": 1}
        assert "context" not in events["bare"]

    def test_capture_use_hands_tags_to_worker_threads(self):
        log = SearchLog()
        with log.context(stage="stage2"):
            tags = log.capture()

        def worker():
            with log.use(tags):
                log.emit("from-worker")

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        (event,) = [e for e in log.events() if e["kind"] == "from-worker"]
        assert event["context"] == {"stage": "stage2"}

    def test_log_context_is_noop_without_log(self):
        with log_context(None, stage="x"):
            pass  # must not raise

    def test_counts_split_candidate_dispositions(self, smoother_ir):
        log, engine = _tuned(smoother_ir)
        counts = log.counts()
        assert counts["candidate"] == log.candidate_count()
        split = sum(
            count
            for name, count in counts.items()
            if name.startswith("candidate.")
        )
        assert split == counts["candidate"]


class TestJsonlRoundtrip:
    def test_flush_writes_readable_jsonl(self, smoother_ir, tmp_path):
        path = tmp_path / "search.jsonl"
        log = SearchLog(path=str(path))
        engine = PlanEvaluator(search_log=log)
        base = seed_plan_from_pragma(
            smoother_ir, smoother_ir.kernels[0]
        ).replace(placements=(("in", "shmem"),))
        HierarchicalTuner(smoother_ir, evaluator=engine).tune(base)
        log.close()
        events = read_events(str(path))
        assert events[0]["kind"] == "header"
        candidates = [e for e in events if e["kind"] == "candidate"]
        assert len(candidates) == engine.stats.requests
        # every line is self-contained JSON (read_events parsed it), and
        # every candidate carries the core fields
        for event in candidates:
            assert event["fingerprint"]
            assert event["family"]
            assert event["disposition"]
            assert "config" in event

    def test_read_events_drops_torn_tail(self, tmp_path):
        """A writer killed mid-append leaves an unterminated last line;
        the reader returns every complete event before it."""
        path = tmp_path / "search.jsonl"
        log = SearchLog(path=str(path))
        for index in range(10):
            log.emit("synthetic", index=index)
        log.close()
        whole = path.read_bytes()
        last_start = whole.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(whole[: last_start + 7])  # cut mid-line
        events = read_events(str(path))
        assert events[0]["kind"] == "header"
        assert [e["index"] for e in events[1:]] == list(range(9))

    def test_unwritable_path_is_a_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="cannot write search log"):
            SearchLog(path=str(tmp_path / "missing" / "search.jsonl"))

    def test_read_events_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header"}\nnot json\n')
        with pytest.raises(UsageError):
            read_events(str(path))

    def test_read_events_requires_header(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text('{"kind": "candidate"}\n')
        with pytest.raises(UsageError):
            read_events(str(path))


class TestAccountingInvariant:
    def test_candidates_equal_requests_clean_run(self, smoother_ir):
        log, engine = _tuned(smoother_ir)
        assert log.candidate_count() == engine.stats.requests
        counts = log.counts()
        assert (
            counts.get("candidate.cache-hit", 0)
            + counts.get("candidate.cache-hit-infeasible", 0)
            == engine.stats.hits
        )
        assert counts.get("candidate.screened", 0) == engine.stats.screened

    def test_full_pipeline_invariant(self, smoother_ir):
        log = SearchLog()
        engine = PlanEvaluator(search_log=log)
        outcome = optimize(smoother_ir, top_k=2, evaluator=engine)
        assert log.candidate_count() == outcome.eval_stats.requests
        kinds = {e["kind"] for e in log.events()}
        assert "winner" in kinds

    def test_invariant_under_chaos_with_retries(self, smoother_ir):
        injector = FaultInjector(rate=0.2, seed=3, transient_failures=1)
        log, engine = _tuned(
            smoother_ir,
            fault_injector=injector,
            retry=RetryPolicy(max_retries=2, base_delay_s=0.0),
        )
        assert injector.injected > 0
        assert log.candidate_count() == engine.stats.requests
        assert log.counts().get("retry", 0) >= injector.injected

    def test_invariant_under_persistent_faults_skip(self, smoother_ir):
        injector = FaultInjector(rate=0.1, seed=11)
        log, engine = _tuned(
            smoother_ir, fault_injector=injector, on_error="skip"
        )
        assert engine.stats.failures > 0
        assert log.candidate_count() == engine.stats.requests
        counts = log.counts()
        assert counts.get("candidate.error", 0) > 0
        assert counts.get("skip", 0) == engine.stats.failures

    def test_invariant_under_degraded_mode(self, smoother_ir):
        injector = FaultInjector(rate=0.1, seed=11)
        log, engine = _tuned(
            smoother_ir, fault_injector=injector, on_error="degrade"
        )
        assert log.candidate_count() == engine.stats.requests
        if engine.stats.degraded:
            assert log.counts().get("degraded", 0) == engine.stats.degraded

    def test_invariant_with_watchdog_thread(self, smoother_ir):
        # With a per-evaluation timeout every batch job runs on the
        # engine's watchdog thread, which starts with no tag stack of
        # its own: the caller's tuner tags must be handed across.
        threads = []

        class ThreadRecordingLog(SearchLog):
            def candidate(self, *args, **kwargs):
                threads.append(threading.current_thread().name)
                return super().candidate(*args, **kwargs)

        log = ThreadRecordingLog()
        engine = PlanEvaluator(search_log=log, timeout_s=30)
        base = seed_plan_from_pragma(smoother_ir, smoother_ir.kernels[0])
        HierarchicalTuner(smoother_ir, evaluator=engine).tune(
            base.replace(placements=(("in", "shmem"),))
        )
        assert log.candidate_count() == engine.stats.requests
        candidates = [e for e in log.events() if e["kind"] == "candidate"]
        assert len(candidates) == len(threads)
        on_watchdog = [
            event
            for event, thread in zip(candidates, threads)
            if thread == "eval-watchdog"
        ]
        assert on_watchdog
        assert all(
            event.get("context", {}).get("stage") for event in on_watchdog
        )
        assert "stage1" in {e["context"]["stage"] for e in on_watchdog}


class TestPipelineEvents:
    @pytest.fixture(scope="class")
    def pipeline_log(self, smoother_ir):
        log = SearchLog()
        engine = PlanEvaluator(search_log=log)
        outcome = optimize(smoother_ir, top_k=2, evaluator=engine)
        return log, outcome

    def test_winner_links_to_candidates(self, pipeline_log):
        log, outcome = pipeline_log
        (winner,) = [e for e in log.events() if e["kind"] == "winner"]
        assert winner["variant"] == outcome.variant
        assert winner["plans"]
        fingerprints = {
            e["fingerprint"]
            for e in log.events()
            if e["kind"] == "candidate"
        }
        for plan in winner["plans"]:
            assert plan["fingerprint"] in fingerprints

    def test_candidate_result_payload(self, pipeline_log):
        log, _ = pipeline_log
        simulated = [
            e
            for e in log.events()
            if e["kind"] == "candidate" and e["disposition"] == "simulated"
        ]
        assert simulated
        for event in simulated[:10]:
            assert event["gflops"] > 0
            assert event["time_ms"] > 0
            assert 0 < event["occupancy"] <= 1
            assert event["counters"]["oi_dram"] > 0

    def test_deep_tune_context_tags(self, pipeline_log):
        log, _ = pipeline_log
        degrees = {
            e["context"].get("degree")
            for e in log.events()
            if e["kind"] == "candidate"
            and e.get("context", {}).get("phase") == "deep-tune"
        }
        assert len(degrees - {None}) >= 2

    def test_json_serializable(self, pipeline_log):
        log, _ = pipeline_log
        for event in log.events():
            json.dumps(event, default=str)


class TestLinearCost:
    """A path-backed log serializes each event exactly once, so its cost
    per event is flat in run length (counted, not timed)."""

    @pytest.mark.parametrize("count", [2_000, 32_000])
    def test_each_event_serialized_once(self, tmp_path, monkeypatch, count):
        real_dumps = json.dumps
        lines = []

        def counting_dumps(obj, *args, **kwargs):
            text = real_dumps(obj, *args, **kwargs)
            lines.append(text)
            return text

        monkeypatch.setattr(json, "dumps", counting_dumps)
        path = tmp_path / "search.jsonl"
        log = SearchLog(path=str(path))
        for index in range(count):
            log.emit("synthetic", index=index)
        log.close()

        assert len(lines) == count + 1  # the header plus every event
        size = sum(len(line.encode("utf-8")) + 1 for line in lines)
        assert path.stat().st_size == size
        assert len(read_events(str(path))) == count + 1
