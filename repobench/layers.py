"""Span wrappers around the program's public layer functions.

A traced run installs these before it starts, records one span per call
into each layer (with its parent span, and the request id for served
requests) and counts taken at the same boundaries, keeps everything in
memory, and writes it out when the run ends.  Untraced runs never import
this module's ``install_*`` functions, so they time the program as is.

Run as a script, it is the traced decision server::

    python3 repobench/layers.py serve TRACE.jsonl serve --port 0 ...

which installs the serve-path wrappers, runs ``repro serve`` with the
remaining arguments until SIGTERM, then writes ``TRACE.jsonl`` (spans)
and ``TRACE.summary.json`` (per-layer aggregates).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import benchlib
from benchlib import Tracer, metric, ms_per_call, percentile, self_ms_per_call, span_stats

# -- the serve path (runs inside the server process) --------------------------------


def install_serve(tracer: Tracer) -> dict:
    """Wrap decode, restrict, admission, encode, batch ticks and search.

    Returns the state the summary needs (coalescers and caches seen).
    """
    from repro.partition import arrayengine, engine, warmstart
    from repro.server import admission, batcher, service

    state = {"coalescers": [], "caches": {}, "roots": {}, "decode_end": {},
             "queue_wait_ms": [], "tick_items": []}
    clock = tracer.clock

    real_decode = service.decode_request

    def decode(line):
        # Opens the request's root span; it closes when its reply is encoded.
        t0 = clock()
        request = real_decode(line)
        t1 = clock()
        root = tracer.new_id()
        # Left set: this request's task is its own context, so the rest of
        # its layer calls become children of the request span.
        benchlib.CURRENT_SPAN.set((root, request.id))
        state["roots"][request.id] = (root, t0)
        tracer.record(tracer.new_id(), root, "server.protocol.decode", t0, t1, request.id)
        state["decode_end"][request.id] = t1
        return request

    real_encode = service.encode_line

    def encode(obj):
        t0 = clock()
        out = real_encode(obj)
        t1 = clock()
        rid = obj.get("id")
        root = state["roots"].pop(rid, None)
        if root is not None:
            tracer.record(tracer.new_id(), root[0], "server.protocol.encode", t0, t1, rid)
            tracer.record(root[0], None, "server.request", root[1], t1, rid)
        return out

    service.decode_request = decode
    service.encode_line = encode
    service.restrict_pool = tracer.wrap("server.protocol.restrict_pool", service.restrict_pool)

    def on_admit(rejection, _args, _kw):
        if rejection is not None:
            tracer.count("server.admission.rejected")

    admission.AdmissionController.try_admit = tracer.wrap(
        "server.admission.admit", admission.AdmissionController.try_admit, on_admit
    )

    real_run = batcher.Coalescer.run
    wrapped_run = tracer.wrap("server.batcher.tick", real_run)

    def tick(self, items):
        if not state["coalescers"] or state["coalescers"][-1] is not self:
            state["coalescers"].append(self)
        t0 = clock()
        for item in items:
            t_dec = state["decode_end"].pop(item.request.id, None)
            if t_dec is not None:
                state["queue_wait_ms"].append((t0 - t_dec) * 1e3)
        state["tick_items"].append(len(items))
        return wrapped_run(self, items)

    batcher.Coalescer.run = tick

    def on_engine(_result, _args, _kw):
        tracer.count("server.batcher.engines_built")

    engine.DecisionEngine.__init__ = tracer.wrap(
        "partition.engine.build", engine.DecisionEngine.__init__, on_engine
    )
    engine.DecisionEngine.decide_exact = tracer.wrap(
        "partition.engine.decide_exact", engine.DecisionEngine.decide_exact
    )

    def on_signature(_result, args, _kw):
        cache = args[0]
        state["caches"][id(cache)] = cache

    warmstart.SearchCache.availability_signature = tracer.wrap(
        "partition.warmstart.signature",
        warmstart.SearchCache.availability_signature,
        on_signature,
    )

    def on_search(result, _args, _kw):
        tracer.count("partition.arrayengine.evaluations", result.evaluations)
        if result.frontier_hit:
            tracer.count("partition.arrayengine.frontier_hits")

    arrayengine.array_exhaustive_search = tracer.wrap(
        "partition.arrayengine.search", arrayengine.array_exhaustive_search, on_search
    )
    return state


def serve_summary(tracer: Tracer, state: dict) -> dict:
    """What the benchmark reads back from a traced server."""
    spans = tracer.summary()
    for row in spans.values():
        durations = row.pop("durations_ms")
        row["p50_ms"] = percentile(durations, 50)
    stats = {"requests": 0, "searches": 0, "memo_hits": 0, "fanned_out": 0, "errors": 0}
    for coalescer in state["coalescers"]:
        for key in stats:
            stats[key] += getattr(coalescer.stats, key)
    caches = list(state["caches"].values())
    return {
        "spans": spans,
        "counts": tracer.counts,
        "batcher": stats,
        "queue_wait_ms_p50": percentile(state["queue_wait_ms"], 50),
        "items_per_tick": benchlib.mean(state["tick_items"]),
        "cache": {
            "entries": sum(c.entries for c in caches),
            "evictions": sum(c.evictions for c in caches),
            "decision_hits": sum(c.decision_hits for c in caches),
            "searches": sum(c.searches for c in caches),
        },
    }


def serve_layer_metrics(summary: dict) -> dict:
    spans, counts = summary["spans"], summary["counts"]

    def per_call(name):
        return ms_per_call(spans, name)

    def calls(name):
        return span_stats(spans, name)["calls"]

    def self_per_call(name):
        return self_ms_per_call(spans, name)

    b, cache = summary["batcher"], summary["cache"]
    served = b["requests"] - b["errors"]
    evaluations = counts.get("partition.arrayengine.evaluations", 0)
    search_ms = span_stats(spans, "partition.arrayengine.search")["total_ms"]
    lookups = cache["decision_hits"] + cache["searches"]
    out = {
        "server.protocol.decode_ms_per_call": metric(per_call("server.protocol.decode"), "ms"),
        "server.protocol.encode_ms_per_call": metric(per_call("server.protocol.encode"), "ms"),
        "server.protocol.restrict_pool_ms_per_call": metric(
            per_call("server.protocol.restrict_pool"), "ms"
        ),
        "server.admission.admit_ms_per_call": metric(per_call("server.admission.admit"), "ms"),
        "server.admission.rejected": metric(counts.get("server.admission.rejected", 0), "count"),
        "partition.warmstart.signature_ms_per_call": metric(
            per_call("partition.warmstart.signature"), "ms"
        ),
        "partition.warmstart.signature_calls": metric(
            calls("partition.warmstart.signature"), "count"
        ),
        "server.service.queue_wait_ms_p50": metric(summary["queue_wait_ms_p50"], "ms"),
        "server.request.self_ms_per_call": metric(self_per_call("server.request"), "ms"),
        "server.batcher.tick_ms_p50": metric(
            span_stats(spans, "server.batcher.tick").get("p50_ms", 0.0), "ms"
        ),
        "server.batcher.tick_self_ms_per_call": metric(self_per_call("server.batcher.tick"), "ms"),
        "server.batcher.items_per_tick": metric(summary["items_per_tick"], "count"),
        "server.batcher.searches": metric(b["searches"], "count"),
        "server.batcher.memo_hits": metric(b["memo_hits"], "count"),
        "server.batcher.fanned_out": metric(b["fanned_out"], "count"),
        "server.batcher.coalesce_ratio": metric(
            served / b["searches"] if b["searches"] else served, "ratio"
        ),
        "server.batcher.engines_built": metric(
            counts.get("server.batcher.engines_built", 0), "exact-count"
        ),
        "partition.engine.decide_exact_calls": metric(
            calls("partition.engine.decide_exact"), "count"
        ),
        "partition.engine.decide_exact_ms_per_call": metric(
            per_call("partition.engine.decide_exact"), "ms"
        ),
        "partition.arrayengine.evaluations_per_search": metric(
            evaluations / calls("partition.arrayengine.search")
            if calls("partition.arrayengine.search") else 0.0,
            "count",
        ),
        "partition.arrayengine.configs_per_s": metric(
            evaluations / (search_ms / 1e3) if search_ms else 0.0, "1/s"
        ),
        "partition.arrayengine.frontier_hits": metric(
            counts.get("partition.arrayengine.frontier_hits", 0), "count"
        ),
        "partition.warmstart.entries": metric(cache["entries"], "count"),
        "partition.warmstart.evictions": metric(cache["evictions"], "count"),
        "partition.warmstart.decision_hit_ratio": metric(
            cache["decision_hits"] / lookups if lookups else 0.0, "ratio"
        ),
    }
    return out


def _serve_main(trace_out: str, cli_args: list[str]) -> int:
    benchlib.require_program()
    from repro.cli import main

    tracer = Tracer()
    state = install_serve(tracer)
    code = main(cli_args)
    path = Path(trace_out)
    tracer.dump(path, meta={"layer": "serve"})
    path.with_suffix(".summary.json").write_text(json.dumps(serve_summary(tracer, state)))
    return code


# -- wide-area lowering and decision (in the worker process) -------------------------


def install_widearea(tracer: Tracer) -> None:
    """Wrap network/cost-DB build, gather, lowering, detection and decide."""
    from repro.hardware import presets
    from repro.partition import arrayengine, available, collapse, heuristic

    presets.wide_area_network = tracer.wrap("hardware.presets.network", presets.wide_area_network)
    presets.wide_area_cost_database = tracer.wrap(
        "benchmarking.database.cost_db", presets.wide_area_cost_database
    )
    available.gather_available_resources = tracer.wrap(
        "partition.available.gather", available.gather_available_resources
    )
    heuristic.exhaustive_partition = tracer.wrap(
        "partition.heuristic.exhaustive", heuristic.exhaustive_partition
    )
    arrayengine.ArrayCycleEstimator.__init__ = tracer.wrap(
        "partition.arrayengine.lowering", arrayengine.ArrayCycleEstimator.__init__
    )

    def on_detect(plan, _args, _kw):
        tracer.count("partition.collapse.classes", len(plan.classes) if plan else 0)

    collapse.detect_equivalence_classes = tracer.wrap(
        "partition.collapse.detect", collapse.detect_equivalence_classes, on_detect
    )

    def on_decide(result, _args, _kw):
        tracer.count("partition.collapse.evaluations", result.evaluations)

    collapse.CollapsedSearchEngine.decide_counts = tracer.wrap(
        "partition.collapse.decide", collapse.CollapsedSearchEngine.decide_counts, on_decide
    )


def widearea_layer_metrics(tracer: Tracer, ops: int) -> dict:
    s = tracer.summary()
    per_op = 1.0 / max(1, ops)
    return {
        "hardware.presets.network_ms": metric(ms_per_call(s, "hardware.presets.network"), "ms"),
        "benchmarking.database.cost_db_ms": metric(
            ms_per_call(s, "benchmarking.database.cost_db"), "ms"
        ),
        "partition.available.gather_ms": metric(ms_per_call(s, "partition.available.gather"), "ms"),
        "partition.arrayengine.lowering_ms": metric(
            ms_per_call(s, "partition.arrayengine.lowering"), "ms"
        ),
        "partition.collapse.detect_ms": metric(ms_per_call(s, "partition.collapse.detect"), "ms"),
        "partition.collapse.decide_ms": metric(ms_per_call(s, "partition.collapse.decide"), "ms"),
        "partition.heuristic.exhaustive_self_ms": metric(
            self_ms_per_call(s, "partition.heuristic.exhaustive"), "ms"
        ),
        "partition.collapse.classes": metric(
            tracer.counts.get("partition.collapse.classes", 0) * per_op, "exact-count"
        ),
        "partition.collapse.evaluations": metric(
            tracer.counts.get("partition.collapse.evaluations", 0) * per_op, "exact-count"
        ),
    }


# -- the supervised runtime (in the worker process) -----------------------------------


def install_supervise(tracer: Tracer) -> None:
    """Wrap the runtime's gather and §5 decisions and the fast-forward engine."""
    from repro.partition import engine, runtime
    from repro.sim import fastforward

    def on_decide(decision, _args, _kw):
        tracer.count("partition.heuristic.evaluations", decision.evaluations)

    engine.partition = tracer.wrap("partition.heuristic.decide", engine.partition, on_decide)
    runtime.gather_available_resources_resilient = tracer.wrap(
        "partition.available.gather_resilient", runtime.gather_available_resources_resilient
    )
    runtime.PartitionRuntime.run = tracer.wrap("partition.runtime.run", runtime.PartitionRuntime.run)

    def on_ff(report, _args, _kw):
        tracer.count("sim.fastforward.probed_cycles", report.probed_cycles)
        tracer.count("sim.fastforward.skipped_cycles", report.fast_forwarded_cycles)

    fastforward.FastForwardEngine.run = tracer.wrap(
        "sim.fastforward.run", fastforward.FastForwardEngine.run, on_ff
    )


def supervise_layer_metrics(tracer: Tracer, ops: int, per_op_counts: dict) -> dict:
    s = tracer.summary()
    decide = span_stats(s, "partition.heuristic.decide")
    per_op = 1.0 / max(1, ops)
    out = {
        "partition.heuristic.decide_ms_per_call": metric(
            ms_per_call(s, "partition.heuristic.decide"), "ms"
        ),
        "partition.heuristic.evaluations_per_decision": metric(
            tracer.counts.get("partition.heuristic.evaluations", 0) / decide["calls"]
            if decide["calls"] else 0.0,
            "exact-count",
        ),
        "partition.available.gather_resilient_ms_per_call": metric(
            ms_per_call(s, "partition.available.gather_resilient"), "ms"
        ),
        "partition.runtime.run_self_ms_per_call": metric(
            self_ms_per_call(s, "partition.runtime.run"), "ms"
        ),
        "sim.fastforward.run_ms_per_call": metric(ms_per_call(s, "sim.fastforward.run"), "ms"),
        "sim.fastforward.probed_cycles": metric(
            tracer.counts.get("sim.fastforward.probed_cycles", 0) * per_op, "exact-count"
        ),
        "sim.fastforward.skipped_cycles": metric(
            tracer.counts.get("sim.fastforward.skipped_cycles", 0) * per_op, "exact-count"
        ),
    }
    for name, value in per_op_counts.items():
        out[name] = metric(value, "exact-count")
    return out


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] != "serve":
        sys.stderr.write("usage: layers.py serve TRACE.jsonl serve [repro serve args]\n")
        raise SystemExit(2)
    raise SystemExit(_serve_main(sys.argv[2], sys.argv[3:]))
