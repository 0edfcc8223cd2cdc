"""The repository benchmark: one command, four workloads.

    python3 repobench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``serve-hot``     — the decision server under repeated shapes (memo/coalescing);
* ``serve-cold``    — the decision server under distinct pools (search + cache churn);
* ``widearea-cold`` — 256-site pools decided from scratch (lowering + collapse);
* ``supervise``     — adaptive supervised runs with fail-stop and load churn.

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is a separate run that records spans around each layer's public functions
and reports the per-layer metrics (plus the tracing overhead).  Inputs are
generated from ``--seed``; the program only sees the generated inputs.
Outputs are checked after the timed windows; the last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import benchlib
from benchlib import log, metric

HERE = Path(__file__).resolve().parent


def _launch_worker(workload: str, seed: int, seconds: float, mode: str):
    """Start an in-process worker; returns ``(process, seconds to READY)``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "inproc.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--mode", mode],
        cwd=benchlib.ROOT,
        env=benchlib.program_env(),
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError(f"{workload} worker failed during set-up (exit {proc.wait()})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, time.perf_counter() - t0


def run_inproc(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    setups = []
    if not trace:
        # Set-up is launch -> READY, timed on fresh workers; the last one runs.
        for _ in range(benchlib.SETUP_LAUNCHES - 1):
            proc, took = _launch_worker(workload, seed, seconds, "setup")
            proc.communicate(timeout=60)
            setups.append(took)
    proc, took = _launch_worker(workload, seed, seconds, "trace" if trace else "run")
    setups.append(took)
    try:
        stdout, _ = proc.communicate(timeout=seconds + 120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    out = json.loads(stdout.strip().splitlines()[-1])
    for msg in out["problems"]:
        log(f"[{workload}] check: {msg}")
    lat = out["latencies_ms"]
    if trace:
        metrics = out["layer"]
    else:
        metrics = {
            "setup_s": metric(min(setups), "s"),
            "throughput_ops_s": metric(out["ops"] / out["wall_s"], "ops/s"),
            "latency_p50_ms": metric(benchlib.percentile(lat, 50), "ms"),
            "latency_p90_ms": metric(benchlib.percentile(lat, 90), "ms"),
            "cpu_ms_per_op": metric(sum(out["cpu_ms"]) / out["ops"], "ms"),
            "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
        }
    diag = {
        "ops": out["ops"],
        "latency_p99_ms": benchlib.percentile(lat, 99),
        "setup_samples_s": setups,
    }
    return out["failed"] == 0, out["attempted"], out["failed"], metrics, diag


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    benchlib.require_program()

    trace = bool(args.trace)
    if args.workload.startswith("serve-"):
        import serveload

        correct, attempted, failed, metrics, diag = serveload.run(
            args.workload, args.seed, args.seconds, trace
        )
    else:
        correct, attempted, failed, metrics, diag = run_inproc(
            args.workload, args.seed, args.seconds, trace
        )
    failed = min(failed, attempted)
    if trace:
        metrics = benchlib.all_layers(metrics)
    # Every end-to-end figure by name and unit, plus the diagnostics that
    # are not gated (p99, generator lateness, failed share).
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_share": {"value": failed / max(1, attempted), "unit": "ratio"},
        "diagnostics": diag,
    }))
    print(benchlib.result_line(correct and failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
