"""Checkpoint journal durability at group-commit cost.

Every record is flushed to the OS as it is appended, so it survives a
killed process; ``TuningJournal.commit`` fsyncs once per evaluated
batch, so a power loss loses at most the current batch.  Checked two
ways:

* in process, an ``optimize --checkpoint`` run fsyncs about once per
  batch, and each record is on disk by the time its ``on_result``
  callback returns;
* in a real child process, SIGKILLed mid-search, ``--resume`` replays
  every complete line and lands on the uninterrupted winner.
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro.cli import main
from repro.tuning import HierarchicalTuner, PlanEvaluator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

#: fsyncs outside the batches: the header at open, close(), and the
#: single-candidate records a search makes between batches.
FSYNC_SLACK = 4


def test_optimize_fsyncs_per_batch_and_flushes_per_record(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "journal.jsonl"
    counts = {"fsync": 0, "batch": 0, "checked": 0}

    real_fsync = os.fsync

    def counting_fsync(fd):
        counts["fsync"] += 1
        return real_fsync(fd)

    real_batch = PlanEvaluator.evaluate_spill_free_batch

    def counting_batch(self, *args, **kwargs):
        counts["batch"] += 1
        return real_batch(self, *args, **kwargs)

    real_on_result = HierarchicalTuner._journal_on_result
    readers = []

    def checked_on_result(self, tag):
        inner = real_on_result(self, tag)

        def on_result(index, plan, outcome, error):
            inner(index, plan, outcome, error)
            if not readers:
                readers.append(open(path, encoding="utf-8"))
                readers[0].readline()  # the header
            # The record just made is on disk, whole, as the last line
            # (degree and single-candidate records may precede it).
            written = readers[0].read()
            assert written.endswith("\n")
            last = json.loads(written.splitlines()[-1])
            assert last["key"] == self._journal_key(tag, plan)
            counts["checked"] += 1

        return on_result

    monkeypatch.setattr(os, "fsync", counting_fsync)
    monkeypatch.setattr(
        PlanEvaluator, "evaluate_spill_free_batch", counting_batch
    )
    monkeypatch.setattr(
        HierarchicalTuner, "_journal_on_result", checked_on_result
    )
    try:
        assert main(["optimize", "denoise", "--checkpoint", str(path)]) == 0
    finally:
        for reader in readers:
            reader.close()
    capsys.readouterr()

    records = path.read_text(encoding="utf-8").count("\n") - 1
    assert counts["batch"] > 0
    assert 0 < counts["checked"] <= records
    assert counts["fsync"] <= counts["batch"] + FSYNC_SLACK
    assert counts["fsync"] * 50 < records


def _child(argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        text=True,
        **kwargs,
    )


def _outcome(path):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return {
        key: payload[key]
        for key in ("variant", "tflops", "evaluations", "schedule", "hints")
    }


def test_sigkilled_optimize_resumes_every_complete_line(tmp_path):
    journal = tmp_path / "journal.jsonl"
    reference_json = tmp_path / "reference.json"
    resumed_json = tmp_path / "resumed.json"

    reference = _child(
        ["optimize", "rhs4sgcurv", "--json", str(reference_json)],
        stderr=subprocess.DEVNULL,
    )
    victim = _child(
        ["optimize", "rhs4sgcurv", "--checkpoint", str(journal)],
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 300
        while not journal.exists() or journal.read_bytes().count(b"\n") < 50:
            assert victim.poll() is None, "child finished before the kill"
            assert time.monotonic() < deadline, "child wrote too slowly"
            time.sleep(0.002)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait()
    assert victim.returncode == -signal.SIGKILL

    complete = journal.read_bytes()
    complete = complete[: complete.rfind(b"\n") + 1].decode("utf-8")
    kinds = [json.loads(line)["kind"] for line in complete.splitlines()]
    assert kinds[0] == "header"
    replayable = sum(1 for kind in kinds[1:] if kind != "failure")
    assert replayable >= 49

    resumed = _child(
        [
            "optimize", "rhs4sgcurv", "--checkpoint", str(journal),
            "--resume", "--json", str(resumed_json),
        ],
        stderr=subprocess.PIPE,
    )
    _, err = resumed.communicate(timeout=300)
    assert resumed.returncode == 0, err
    assert f"({replayable} journaled records)" in err
    assert reference.wait(timeout=300) == 0
    assert _outcome(resumed_json) == _outcome(reference_json)
