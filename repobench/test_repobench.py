"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest repobench -q
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

benchlib.require_program()

import inproc  # noqa: E402
import serveload  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_metric_names_are_well_formed():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in SPEC["workloads"]} == set(benchlib.WORKLOADS)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", benchlib.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_end_to_end(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == _declared(kind)
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, value in result["metrics"].items():
        assert value["unit"] == units[name], name
        assert isinstance(value["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _digest(code: str, hashseed: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=HERE, env={**benchlib.program_env(), "PYTHONHASHSEED": hashseed},
    )
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "expr",
    [
        "serveload.encode_stream(serveload.hot_stream(5, 500), 'o')",
        "serveload.encode_stream(serveload.cold_stream(5, 500), 'c')",
        "repr([inproc.Supervise._schedule(5, k) for k in range(inproc.SUP_SCHEDULES)]).encode()",
        "repr(inproc.WideArea(5).pool_seeds).encode()",
    ],
)
def test_same_seed_gives_byte_identical_inputs(expr):
    code = (
        "import hashlib, serveload, inproc;"
        f"print(hashlib.sha256({expr}).hexdigest())"
    )
    assert _digest(code, "1") == _digest(code, "2")


def test_different_seeds_give_different_streams():
    a = serveload.encode_stream(serveload.cold_stream(1, 50), "c")
    b = serveload.encode_stream(serveload.cold_stream(2, 50), "c")
    assert hashlib.sha256(a).digest() != hashlib.sha256(b).digest()


def test_cold_stream_pools_are_distinct_and_in_range():
    reqs = serveload.cold_stream(7, 4000)
    keys = {(r.app, r.availability) for r in reqs}
    assert len(keys) == len(reqs)
    assert all(1 <= c <= 32 for r in reqs for _name, c in r.availability)


def _served_reply(req: serveload.Request) -> dict:
    """The reply the server would give, built from a direct search."""
    from repro.partition.heuristic import exhaustive_partition
    from repro.server.protocol import WorkloadSpec, restrict_pool

    checker = serveload.Checker()
    avail = dict(req.availability) if req.availability else None
    decision = exhaustive_partition(
        WorkloadSpec(*req.spec_key()).build(), restrict_pool(checker.base, avail),
        checker.db, engine="array",
    )
    return {"ok": True, "id": "x1", "counts": decision.counts_by_name(),
            "vector": list(decision.vector.counts), "t_cycle_ms": decision.t_cycle_ms}


@pytest.mark.parametrize("req", [serveload.hot_shapes()[4], serveload.cold_stream(3, 1)[0]])
def test_serve_check_catches_perturbed_counts(req):
    reply = _served_reply(req)
    assert serveload.Checker().check(req, reply)
    assert serveload.Checker().matches_direct(req, reply)
    counts = dict(reply["counts"])
    name = next(n for n, c in counts.items() if c > 1)
    counts[name] -= 1
    bad = {**reply, "counts": counts}
    checker = serveload.Checker()
    assert not checker.check(req, bad)
    assert not checker.matches_direct(req, bad)
    assert checker.mismatches
    # Counts no pool could hold are a mismatch too, not a crash.
    counts[name] += 1000
    assert not serveload.Checker().check(req, {**reply, "counts": counts})


def test_serve_check_counts_error_replies():
    checker = serveload.Checker()
    req = serveload.hot_shapes()[0]
    assert not checker.check(req, {"ok": False, "id": "x", "error": {"kind": "internal"}})


def test_widearea_check_catches_perturbed_decision():
    work = inproc.WideArea(2)
    pool_seed, counts, t_cycle = work.op(0)
    work.record((pool_seed, counts, t_cycle))
    assert work.check() == []
    bumped = list(counts)
    i = next(i for i, c in enumerate(bumped) if c > 0)
    bumped[i] -= 1
    work.record((pool_seed, tuple(bumped), t_cycle))
    assert any("different decisions" in p for p in work.check())
    alone = inproc.WideArea(2)
    alone.record((pool_seed, tuple(bumped), t_cycle))
    assert any("re-scores" in p for p in alone.check())


def test_covered_interval_union():
    assert benchlib._covered([(1, 2), (1.5, 3), (5, 6)], 0, 5.5) == pytest.approx(2.5)
    tracer = benchlib.Tracer(clock=iter([0.0, 1.0, 3.0, 10.0]).__next__)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    row = tracer.summary()["outer"]
    assert row["total_ms"] == pytest.approx(10_000)
    assert row["self_ms"] == pytest.approx(8_000)


def test_closed_round_times_whole_ticks():
    # A 1 s round from t=0; ticks reply at 0.5 s (10 lines), 0.9 s (20 lines)
    # and 1.2 s (30 lines, the tick in flight at the deadline); then the drain.
    res = serveload.PhaseResult(
        start=0.0, end=1.0, cpu_s=0.6,
        chunks=[[(0.5, b"x\n" * 10), (1.2, b"x\n" * 30)], [(0.9, b"x\n" * 20), (1.4, b"x\n")]],
    )
    assert serveload.closed_round(res) == (60, pytest.approx(1.2))
    rate, cpu_ms = serveload.closed_figures([res])
    assert rate == pytest.approx(50.0)
    assert cpu_ms == pytest.approx(12.0)
