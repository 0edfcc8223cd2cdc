"""Shared pieces of the repository benchmark.

Statistics, probes of a process's CPU time and peak memory, the span
tracer the traced runs use, and the result line every run ends with.
The benchmark imports the program only through ``src/`` and never edits
it: spans come from wrappers this directory installs around the program's
public functions (see ``layers.py``).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

#: Repository root (the benchmark's checkout) and the program's sources.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traces and other run leftovers go (ignored by git).
OUT = ROOT / ".bench_out"

WORKLOADS = ("serve-hot", "serve-cold", "widearea-cold", "supervise")

#: Fresh launches a run times its set-up on; ``setup_s`` is the fastest.
SETUP_LAUNCHES = 5

#: The metric declarations (names, units, bounds) live in BENCHMARK.json.
SPEC_FILE = ROOT / "BENCHMARK.json"


def declared(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(SPEC_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def all_layers(measured: dict) -> dict:
    """``measured`` plus a 0 for every per-layer metric this workload's
    layers did not report."""
    out = {name: metric(0.0, unit) for name, unit in declared("per_layer").items()}
    unknown = set(measured) - set(out)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    out.update(measured)
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- process probes -----------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        stat = fh.read()
    # Fields after the parenthesised command name; utime/stime are 14/15.
    fields = stat[stat.rindex(b")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def program_env() -> dict:
    """Environment for a child that runs the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def require_program() -> None:
    """Fail fast (non-zero exit, no result line) without the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"repobench: program sources not found under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- tracing ------------------------------------------------------------------

#: The open span of the running task/thread: ``(span id, request id)``.
CURRENT_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "repobench_span", default=None
)


class Tracer:
    """In-memory span recorder; spans are written out when the run ends.

    A span is ``(id, parent id, name, start s, end s, request id)``.  The
    parent is whatever span was open in the calling task when the call
    started (``contextvars``, so each asyncio task has its own chain).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def new_id(self) -> int:
        return next(self._ids)

    def record(self, sid, parent, name, t0, t1, rid=None) -> None:
        self.spans.append((sid, parent, name, t0, t1, rid))

    @contextlib.contextmanager
    def span(self, name: str, rid=None):
        """One span around the ``with`` body; ``rid`` defaults to the
        enclosing span's request id."""
        parent = CURRENT_SPAN.get()
        if rid is None and parent is not None:
            rid = parent[1]
        sid = next(self._ids)
        token = CURRENT_SPAN.set((sid, rid))
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            CURRENT_SPAN.reset(token)
            self.record(sid, parent[0] if parent else None, name, t0, t1, rid)

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None):
        """``fn`` recorded as one span per call; ``observe(result, args,
        kwargs)`` runs after the span closes, to take counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total ms, self ms, and durations (ms)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, _name, t0, t1, _rid in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        out: dict[str, dict] = {}
        for sid, _parent, name, t0, t1, _rid in self.spans:
            row = out.setdefault(
                name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "durations_ms": []}
            )
            dur = (t1 - t0) * 1e3
            row["calls"] += 1
            row["total_ms"] += dur
            row["durations_ms"].append(dur)
            row["self_ms"] += dur - _covered(children.get(sid, ()), t0, t1) * 1e3
        return out

    def dump(self, path: Path, meta: Optional[dict] = None) -> None:
        """Write every span as one NDJSON line (plus a header line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta or {}, "counts": self.counts}) + "\n")
            for sid, parent, name, t0, t1, rid in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name,
                         "start_s": t0, "end_s": t1, "rid": rid},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def span_stats(summary: dict, name: str) -> dict:
    """``summary`` row for ``name`` (zeros when the span never ran)."""
    return summary.get(
        name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "durations_ms": []}
    )


def ms_per_call(summary: dict, name: str) -> float:
    row = span_stats(summary, name)
    return row["total_ms"] / row["calls"] if row["calls"] else 0.0


def self_ms_per_call(summary: dict, name: str) -> float:
    row = span_stats(summary, name)
    return row["self_ms"] / row["calls"] if row["calls"] else 0.0


# -- result line ----------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def log(msg: str) -> None:
    """Diagnostics go to stderr; stdout's last line is the result."""
    sys.stderr.write(msg.rstrip() + "\n")
    sys.stderr.flush()
