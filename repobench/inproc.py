"""The two in-process workloads, run in a worker process of their own.

* ``widearea-cold`` — each op builds a fresh 256-site wide-area pool from
  its pool seed and decides it from scratch with
  ``exhaustive_partition(engine="array", collapse=True)``: network build,
  cost database, gather, lowering, equivalence detection, decision.
  Eight pool seeds come from the workload seed and are cycled, so every
  run with one seed does the same ops.
* ``supervise`` — each op is one adaptive ``PartitionRuntime`` run on the
  paper testbed under a seed-drawn fail-stop plus load-churn schedule,
  ending with a message-level ``validate_decomposition`` of the final
  decomposition in the default fast-forward mode.  Eight schedules come
  from the workload seed and are cycled.

The worker prints ``READY`` once set-up (imports, inputs, warm-up) is done,
so the parent can time set-up from launch; with ``--mode setup`` it exits
there.  Otherwise it measures a closed loop of ops for ``--seconds`` and
prints one JSON line with the raw figures and the checks' outcome.
``--mode trace`` splits the time into an untraced and a traced window.

    python3 repobench/inproc.py --workload supervise --seed 1 --seconds 5 --mode run
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time

import benchlib

WIDE_SITES = 256
WIDE_N = 6000
WIDE_POOLS = 8

SUP_N = 512
SUP_EPOCHS = 48
SUP_SCHEDULES = 8
SUP_VALIDATE_CYCLES = 50


# -- widearea-cold ------------------------------------------------------------------


class WideArea:
    cycle = WIDE_POOLS

    def __init__(self, seed: int) -> None:
        from repro.apps.stencil import stencil_computation

        rng = random.Random(f"widearea-cold:{seed}")
        self.pool_seeds = [rng.randrange(1 << 30) for _ in range(WIDE_POOLS)]
        self.comp = stencil_computation(WIDE_N, overlap=False)
        self.seen: dict[int, list] = {}

    def op(self, k: int):
        # Looked up through the modules on every call so that a traced run's
        # wrappers are the ones called.
        from repro.hardware import presets
        from repro.partition import available, heuristic

        pool_seed = self.pool_seeds[k % WIDE_POOLS]
        net = presets.wide_area_network(WIDE_SITES, seed=pool_seed)
        db = presets.wide_area_cost_database(net)
        resources = available.gather_available_resources(net)
        decision = heuristic.exhaustive_partition(
            self.comp, resources, db, engine="array", collapse=True
        )
        return pool_seed, tuple(decision.config.counts), decision.t_cycle_ms

    def record(self, outcome) -> None:
        pool_seed, counts, t_cycle = outcome
        self.seen.setdefault(pool_seed, []).append((counts, t_cycle))

    def check(self) -> list[str]:
        """Every repeat of a pool agrees, and its T_c re-scores bit for bit."""
        from repro.hardware.presets import wide_area_cost_database, wide_area_network
        from repro.partition.available import gather_available_resources
        from repro.partition.config import ProcessorConfiguration
        from repro.partition.estimator import CycleEstimator
        from repro.partition.heuristic import order_by_power

        problems = []
        for pool_seed, outcomes in self.seen.items():
            if len(set(outcomes)) != 1:
                problems.append(f"pool {pool_seed}: {len(set(outcomes))} different decisions")
            counts, t_cycle = outcomes[0]
            net = wide_area_network(WIDE_SITES, seed=pool_seed)
            db = wide_area_cost_database(net)
            est = CycleEstimator(self.comp, db)
            ordered = order_by_power(gather_available_resources(net), est.op_kind)
            rescored = est.estimate(ProcessorConfiguration(ordered, counts)).t_cycle_ms
            if rescored != t_cycle:
                problems.append(f"pool {pool_seed}: T_c {t_cycle!r} re-scores to {rescored!r}")
        return problems


# -- supervise --------------------------------------------------------------------


class Supervise:
    cycle = SUP_SCHEDULES

    def __init__(self, seed: int) -> None:
        from repro.apps.stencil import stencil_computation
        from repro.experiments.paper import paper_cost_database
        from repro.experiments.resilience import churn_transfer_ms_per_pdu
        from repro.hardware.presets import paper_testbed
        from repro.partition.runtime import PartitionRuntime, RuntimePolicy

        self.comp = stencil_computation(SUP_N, overlap=False, cycles=1)
        self.db = paper_cost_database()
        self.policy = RuntimePolicy(
            adaptive=True,
            transfer_ms_per_pdu=churn_transfer_ms_per_pdu(self.db, SUP_N),
            decide_cost_per_eval_ms=0.05,
        )
        self.schedules = [self._schedule(seed, k) for k in range(SUP_SCHEDULES)]
        clean = PartitionRuntime(paper_testbed(), self.comp, self.db, policy=self.policy)
        self.clean_answer = clean.run(SUP_EPOCHS).answer
        self.signatures: dict[int, tuple] = {}
        self.problems: list[str] = []
        #: Traced runs count MMPS traffic through the public ``telemetry=``.
        self.count_traffic = False
        #: Per-op counts summed over the traced window's ops.
        self.traced_counts: dict[str, float] = {}
        self.traced_ops = 0

    @staticmethod
    def _schedule(seed: int, k: int):
        """Two fail-stops and one churn shape for schedule ``k``.

        ``k`` fixes the shape and timing; the seed picks the nodes.  Nodes
        of one cluster are identical, so seeds give isomorphic worlds of
        near-equal cost.  Churn stops 12 epochs before the end, leaving
        the final decomposition a load-free world to settle in.
        """
        from repro.sim.failures import FailureSchedule, LoadSchedule, NodeFailure, NodeLoad

        rng = random.Random(f"supervise:{seed}:{k}")
        # Paper testbed ids: sparc2 0-5, ipc 6-11; each cluster's first
        # node hosts its manager and never fails.
        sparc = rng.sample(range(1, 6), 3)
        ipc = rng.sample(range(7, 10), 2)
        failures = FailureSchedule((
            NodeFailure(8 + k, sparc[0]),
            NodeFailure(24 + k, ipc[0]),
        ))
        horizon = SUP_EPOCHS - 12
        if k % 2 == 0:
            victims = [sparc[1], ipc[1]]
            loads = LoadSchedule.flapping(
                victims, load=0.3, period_epochs=6, burst_epochs=2,
                horizon_epochs=horizon, start_epoch=4,
            )
        else:
            victims = [sparc[1], ipc[1], sparc[2]]
            loads = LoadSchedule.rolling(
                victims, load=0.3, dwell_epochs=8, horizon_epochs=horizon, start_epoch=4,
            )
        clears = tuple(NodeLoad(horizon, pid, 0.0) for pid in victims)
        return failures, LoadSchedule(loads.events + clears)

    def op(self, k: int):
        from repro.experiments.resilience import validate_decomposition
        from repro.hardware.presets import paper_testbed
        from repro.partition.runtime import PartitionRuntime

        failures, loads = self.schedules[k % SUP_SCHEDULES]
        runtime = PartitionRuntime(
            paper_testbed(), self.comp, self.db, policy=self.policy,
            failures=failures, loads=loads,
        )
        result = runtime.run(SUP_EPOCHS)
        telemetry = None
        if self.count_traffic:
            from repro.telemetry import MetricsRegistry, Telemetry

            telemetry = Telemetry(metrics=MetricsRegistry())
        report = validate_decomposition(
            result.final_proc_ids, result.final_vector, SUP_N, SUP_VALIDATE_CYCLES,
            telemetry=telemetry,
        )
        return k % SUP_SCHEDULES, result, report, telemetry

    def record(self, outcome) -> None:
        k, result, report, telemetry = outcome
        if result.answer != self.clean_answer:
            self.problems.append(f"schedule {k}: answer {result.answer} != {self.clean_answer}")
        signature = report.parity_signature()
        want = self.signatures.setdefault(k, signature)
        if signature != want:
            self.problems.append(f"schedule {k}: validation signature changed")
        if telemetry is not None:
            values = telemetry.metrics.counter_values("sim")
            counts = {
                "partition.runtime.epochs": result.epochs,
                "partition.runtime.repartitions": result.repartitions,
                "mmps.system.messages": values.get("mmps.messages_sent", 0),
                "mmps.system.bytes": values.get("mmps.bytes_sent", 0),
                "partition.dynamic.fallbacks": result.adaptive_stats.get("full_fallbacks", 0),
            }
            for name in ("trips", "holds", "migrations", "vetoes"):
                counts[f"partition.dynamic.{name}"] = result.adaptive_stats.get(name, 0)
            for name, value in counts.items():
                self.traced_counts[name] = self.traced_counts.get(name, 0) + value
            self.traced_ops += 1

    def check(self) -> list[str]:
        return self.problems

    def layer_counts(self) -> dict:
        """Per-op means over the traced ops (whole passes, so exact per seed)."""
        return {name: total / self.traced_ops for name, total in self.traced_counts.items()}


WORKLOADS = {"widearea-cold": WideArea, "supervise": Supervise}


# -- measurement ----------------------------------------------------------------------


def window(work, seconds: float, start_k: int) -> dict:
    """Closed loop of ops for ``seconds``, run on to a whole number of
    passes over the cycled inputs, so every input ran equally often."""
    gc.collect()
    latencies, cpu_ms = [], []
    k = start_k
    t0 = time.perf_counter()
    deadline = t0 + seconds
    now = t0
    cpu = time.process_time()
    errors = []
    while now < deadline or (k - start_k) % work.cycle:
        try:
            outcome = work.op(k)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            errors.append(f"op {k}: {type(exc).__name__}: {exc}")
            outcome = None
        end, cpu_end = time.perf_counter(), time.process_time()
        latencies.append((end - now) * 1e3)
        cpu_ms.append((cpu_end - cpu) * 1e3)
        now, cpu = end, cpu_end
        if outcome is not None:
            work.record(outcome)
        k += 1
    return {
        "errors": errors,
        "ops": len(latencies),
        "wall_s": now - t0,
        "latencies_ms": latencies,
        "cpu_ms": cpu_ms,
        "next_k": k,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = parser.parse_args(argv)
    benchlib.require_program()

    work = WORKLOADS[args.workload](args.seed)
    # Warm-up before any window: lazy imports and first lowering, plus (for
    # supervise) one run per schedule, the references the checks compare to.
    n_warm = work.cycle if args.workload == "supervise" else 1
    for k in range(n_warm):
        work.record(work.op(k))
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    out: dict = {}
    plain = {"ops": 0, "errors": []}
    if args.mode == "run":
        measured = window(work, args.seconds, n_warm)
        out["peak_rss_mb"] = benchlib.self_peak_rss_mb()
    else:
        import layers

        plain = window(work, args.seconds * 0.5, n_warm)
        tracer = benchlib.Tracer()
        if args.workload == "widearea-cold":
            layers.install_widearea(tracer)
        else:
            layers.install_supervise(tracer)
            work.count_traffic = True

        def traced_op(k, _op=work.op):
            with tracer.span(f"{args.workload}.op", rid=k):
                return _op(k)

        work.op = traced_op
        # Whole passes over the inputs, so per-op counts are exact per seed.
        measured = window(work, args.seconds * 0.5, plain["next_k"])
        tracer.dump(
            benchlib.OUT / f"{args.workload}-trace.jsonl",
            meta={"workload": args.workload, "seed": args.seed},
        )
        if args.workload == "widearea-cold":
            layer = layers.widearea_layer_metrics(tracer, measured["ops"])
        else:
            layer = layers.supervise_layer_metrics(tracer, measured["ops"], work.layer_counts())
        ratio = (plain["ops"] / plain["wall_s"]) / (measured["ops"] / measured["wall_s"])
        layer["telemetry.trace_overhead_ratio"] = benchlib.metric(ratio, "ratio")
        out["layer"] = layer
    problems = plain["errors"] + measured["errors"] + work.check()
    out.update(
        attempted=plain["ops"] + measured["ops"],
        ops=measured["ops"],
        wall_s=measured["wall_s"],
        latencies_ms=measured["latencies_ms"],
        cpu_ms=measured["cpu_ms"],
        problems=problems[:20],
        failed=len(problems),
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
