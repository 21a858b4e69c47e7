"""Counting and tracing of the public taq calls that the benchmark makes.

Every public call runs inside ``Recorder.call``: it is counted as one
attempted call, and a ``TaqError`` it raises is counted as an error and
re-raised. ``Recorder.check`` counts correctness checks on outputs apart from
the calls. With ``tracing`` on, each call also leaves a span (name, start,
end, parent, run id, and its counts) in memory; the spans are written out
when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from taq.errors import TaqError


class Recorder:
    def __init__(self) -> None:
        self.calls = 0
        self.call_errors = 0
        self.checks = 0
        self.checks_failed = 0
        self.errors: list[str] = []
        self.spans: list[dict] = []
        self.tracing = False
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """A traced interval; a no-op while tracing is off."""
        if not self.tracing:
            yield
            return
        rec = {"name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **counts}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @property
    def attempted(self) -> int:
        return self.calls + self.checks

    @property
    def failed(self) -> int:
        return self.call_errors + self.checks_failed

    @contextmanager
    def call(self, name: str, calls: int = 1, **counts):
        """One attempted call into taq. A loop of ``calls`` calls (say, one
        ``offer`` per row) is still one attempt, since an error stops the
        loop; its span carries the loop's length as ``calls``."""
        self.calls += 1
        try:
            with self.span(name, calls=calls, **counts):
                yield
        except TaqError as exc:
            self.call_errors += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise

    def check(self, ok: bool, what: str) -> None:
        """A correctness check on an output."""
        self.checks += 1
        if not ok:
            self.checks_failed += 1
            self.errors.append(f"check failed: {what}")


def totals_by_name(spans: list[dict], run_id: str) -> dict[str, dict[str, float]]:
    """Per span name within one run: span count ``n``, summed duration ``s``,
    summed self time ``self_s`` (duration minus the direct children's), and
    every count the spans carry, summed."""
    child_s: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp["run"] == run_id and sp["parent"] is not None:
            child_s[sp["parent"]] += sp["end"] - sp["start"]
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, sp in enumerate(spans):
        if sp["run"] != run_id:
            continue
        dur = sp["end"] - sp["start"]
        t = out[sp["name"]]
        t["n"] += 1
        t["s"] += dur
        t["self_s"] += dur - child_s[i]
        for key, value in sp.items():
            if key not in ("name", "run", "parent", "start", "end"):
                t[key] += value
    return out
