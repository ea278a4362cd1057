"""Journaled checkpoint/resume for long autotuning runs.

A :class:`TuningJournal` is an append-only JSONL file recording every
candidate a tuning run has already priced — one self-contained record
per line, handed to the operating system as soon as it is known.  An
interrupted run restarted with the same journal replays the recorded
outcomes instead of re-evaluating, then continues the search from where
it died.

Durability is two-level, so a record costs one ``write()`` and not one
``fsync()``:

* every record is flushed to the OS on append, so a killed process
  loses at most the line being written;
* :meth:`TuningJournal.commit` fsyncs the appended records.  The tuners
  call it once per evaluated batch (and after each single-candidate
  record and each completed deep-tuning degree), and :meth:`close`
  calls it too, so a power loss loses at most the current batch.  The
  header is fsynced when the journal is created.

Crash model and recovery:

* appends are single ``write()`` calls of one ``\\n``-terminated line —
  a torn write therefore leaves an *unterminated tail*, which the loader
  drops and truncates away (at most one candidate is re-evaluated);
* a terminated line that fails to parse means the file was damaged by
  something other than a torn append, and the journal refuses to load
  (:class:`CheckpointCorruptError`) rather than resume from a history
  it cannot trust;
* records are keyed by content (IR fingerprint + operation + plan
  fingerprint), never by sequence number, so resumed runs may evaluate
  in a different order and still hit.

Record kinds: ``header`` (version/device sanity), ``candidate`` (one
priced plan: the escalated plan chosen plus its time/TFLOPS, or
``null`` for infeasible), ``failure`` (diagnostic only — failed
candidates are *re-evaluated* on resume, since their failure may have
been transient), and ``degree`` (a completed deep-tuning fusion
degree, including its roofline classification).
"""

from __future__ import annotations

import json
import os
import threading
from hashlib import sha256
from typing import Any, Dict, Optional

from .errors import (
    CheckpointCorruptError,
    CheckpointDeviceMismatch,
    CheckpointLockedError,
)

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "JOURNAL_VERSION",
    "TuningJournal",
    "ir_fingerprint",
    "plan_from_dict",
    "plan_to_dict",
]

JOURNAL_VERSION = 1


def ir_fingerprint(ir) -> str:
    """Stable content fingerprint of a program IR.

    The IR is a tree of frozen dataclasses of primitives, so its repr
    is deterministic across processes — good enough to key journal
    records so a journal recorded for one stencil can never satisfy
    lookups for another.
    """
    return sha256(repr(ir).encode()).hexdigest()[:16]


def plan_to_dict(plan) -> Dict[str, Any]:
    """JSON-serializable form of a :class:`KernelPlan`."""
    return {
        "kernel_names": list(plan.kernel_names),
        "block": list(plan.block),
        "time_tile": plan.time_tile,
        "streaming": plan.streaming,
        "stream_axis": plan.stream_axis,
        "concurrent_chunks": plan.concurrent_chunks,
        "unroll": list(plan.unroll),
        "unroll_blocked": plan.unroll_blocked,
        "prefetch": plan.prefetch,
        "perspective": plan.perspective,
        "placements": [list(item) for item in plan.placements],
        "retime": plan.retime,
        "fold_groups": [
            {"members": list(group.members), "op": group.op}
            for group in plan.fold_groups
        ],
        "max_registers": plan.max_registers,
    }


def plan_from_dict(data: Dict[str, Any]):
    """Reconstruct a :class:`KernelPlan` recorded by :func:`plan_to_dict`."""
    from ..codegen.plan import KernelPlan
    from ..ir.folding import FoldGroup

    return KernelPlan(
        kernel_names=tuple(data["kernel_names"]),
        block=tuple(data["block"]),
        time_tile=data["time_tile"],
        streaming=data["streaming"],
        stream_axis=data["stream_axis"],
        concurrent_chunks=data["concurrent_chunks"],
        unroll=tuple(data["unroll"]),
        unroll_blocked=data["unroll_blocked"],
        prefetch=data["prefetch"],
        perspective=data["perspective"],
        placements=tuple(
            (array, storage) for array, storage in data["placements"]
        ),
        retime=data["retime"],
        fold_groups=tuple(
            FoldGroup(members=tuple(group["members"]), op=group["op"])
            for group in data["fold_groups"]
        ),
        max_registers=data["max_registers"],
    )


class TuningJournal:
    """Append-only JSONL checkpoint of evaluated tuning candidates.

    Opening an existing journal resumes it: prior records become
    lookup hits.  Opening a fresh path starts one.  ``device`` (a
    device name) is recorded in the header and verified on resume — a
    journal of P100 timings must not satisfy a V100 run.
    """

    def __init__(self, path: str, device: Optional[str] = None):
        self.path = os.fspath(path)
        self.device = device
        #: device name the journal's header declares (== ``device`` for
        #: a fresh journal; the on-disk value when resuming).  Opening
        #: with ``device=None`` skips the mismatch check — the
        #: sanctioned way for transfer tuning to *read* a foreign
        #: device's journal without replaying it.
        self.recorded_device: Optional[str] = device
        self._lock = threading.Lock()
        self._records: Dict[str, Dict[str, Any]] = {}
        self._failures: Dict[str, Dict[str, Any]] = {}
        self.replayable = 0  # non-failure records loaded from disk
        existed = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        if existed:
            self._load()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._dirty = False  # records appended since the last commit()
        self._acquire_lock()
        if not existed:
            self._append(
                {
                    "kind": "header",
                    "version": JOURNAL_VERSION,
                    "tool": "repro",
                    "device": device,
                }
            )
            self.commit()

    def _acquire_lock(self) -> None:
        """Take an advisory exclusive lock on the append handle.

        A second live writer on the same path would interleave its
        appends with ours mid-record; the lock makes the misuse loud
        (:class:`CheckpointLockedError`, exit 2) instead of silent.
        Advisory only — readers (``_load``, torn-tail repair, offline
        merges of *closed* journals) are unaffected.  Platforms without
        ``fcntl`` skip the check.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        try:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._handle.close()
            raise CheckpointLockedError(
                f"checkpoint journal {self.path} is already open for "
                f"writing by another process; give each run its own "
                f"--checkpoint path",
                path=self.path,
            ) from None

    # -- loading ----------------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "rb") as handle:
            raw = handle.read()
        keep = len(raw)
        if raw and not raw.endswith(b"\n"):
            # Torn trailing append: drop the partial record and truncate
            # so future appends start on a clean line boundary.
            cut = raw.rfind(b"\n")
            keep = cut + 1 if cut >= 0 else 0
            raw = raw[:keep]
            with open(self.path, "r+b") as handle:
                handle.truncate(keep)
        lines = raw.decode("utf-8").splitlines()
        if not lines:
            return
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CheckpointCorruptError(
                    f"checkpoint journal {self.path} is corrupt: "
                    f"line {number} is not valid JSON",
                    path=self.path,
                    line=number,
                ) from exc
            if not isinstance(record, dict) or "kind" not in record:
                raise CheckpointCorruptError(
                    f"checkpoint journal {self.path} is corrupt: "
                    f"line {number} is not a journal record",
                    path=self.path,
                    line=number,
                )
            self._absorb(record, number)

    def _absorb(self, record: Dict[str, Any], number: int) -> None:
        kind = record["kind"]
        if kind == "header":
            version = record.get("version")
            if version != JOURNAL_VERSION:
                raise CheckpointCorruptError(
                    f"checkpoint journal {self.path} has version "
                    f"{version!r}; this build reads version "
                    f"{JOURNAL_VERSION}",
                    path=self.path,
                )
            recorded = record.get("device")
            self.recorded_device = recorded
            if (
                self.device is not None
                and recorded is not None
                and recorded != self.device
            ):
                raise CheckpointDeviceMismatch(
                    f"checkpoint journal {self.path} was recorded for "
                    f"device {recorded!r}, not {self.device!r}; resume "
                    f"on {recorded!r}, start a fresh checkpoint, or "
                    f"warm-start via transfer tuning",
                    path=self.path,
                    recorded=recorded,
                    requested=self.device,
                )
            return
        key = record.get("key")
        if not isinstance(key, str):
            raise CheckpointCorruptError(
                f"checkpoint journal {self.path} is corrupt: line "
                f"{number} has no record key",
                path=self.path,
                line=number,
            )
        if kind == "failure":
            self._failures[key] = record
        else:
            self._records[key] = record
            self.replayable += 1

    # -- writing ----------------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            self._handle.write(line)
            self._handle.flush()
            self._dirty = True

    def commit(self) -> None:
        """Fsync every record appended since the last commit.

        Appends already reach the OS one line at a time, so they
        survive a killed process; this makes them survive a power loss
        too.  A no-op when nothing was appended since the last commit.
        """
        with self._lock:
            if self._dirty and not self._handle.closed:
                os.fsync(self._handle.fileno())
                self._dirty = False

    def record_candidate(
        self,
        key: str,
        plan: Optional[Dict[str, Any]],
        time_s: Optional[float] = None,
        tflops: Optional[float] = None,
    ) -> None:
        """Journal one priced candidate (``plan=None`` = infeasible)."""
        record = {
            "kind": "candidate",
            "key": key,
            "plan": plan,
            "time_s": time_s,
            "tflops": tflops,
        }
        with self._lock:
            self._records[key] = record
        self._append(record)

    def record_failure(self, key: str, error: BaseException) -> None:
        """Journal a persistent failure (diagnostic; re-tried on resume)."""
        record = {
            "kind": "failure",
            "key": key,
            "error": type(error).__name__,
            "message": str(error),
        }
        with self._lock:
            self._failures[key] = record
        self._append(record)

    def record_degree(self, key: str, payload: Dict[str, Any]) -> None:
        """Journal a completed deep-tuning fusion degree."""
        record = {"kind": "degree", "key": key}
        record.update(payload)
        with self._lock:
            self._records[key] = record
        self._append(record)

    # -- lookup -----------------------------------------------------------------

    def records(self, kind: Optional[str] = None) -> list:
        """Snapshot of the non-failure records (optionally one ``kind``).

        A read-only view for offline consumers: transfer tuning mines a
        foreign journal's ``candidate``/``degree`` records for winners
        without replaying them into a live search.
        """
        with self._lock:
            items = list(self._records.values())
        if kind is not None:
            items = [item for item in items if item.get("kind") == kind]
        return items

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The journaled record for ``key``, or None.

        Failure records never satisfy lookups: a candidate that failed
        in the previous run is re-evaluated, since the failure may have
        been transient.
        """
        with self._lock:
            return self._records.get(key)

    def failure(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._failures.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        self.commit()
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "TuningJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
