"""The two serve workloads: request streams, the load generator, the checks.

The server under test is its own ``repro serve`` process with admission
limits opened wide, so the generator's JSON work is never billed to it and
its CPU time and peak memory measure the program alone.  One generator
process drives it over at most two connections, in two phases:

* **open loop** — requests sent on a fixed schedule at ``open_rate``
  (about half of what this 2-core machine serves), alternating between the
  connections; latency is timed from each request's *due* time, so a
  stall charges every request queued behind it;
* **closed loop** — a fixed number of requests in flight per connection;
  each reply releases the next request.  Ops/s over this window is the
  run's primary rate.

Every request line is built before either window; during a window the
generator only writes prepared bytes and timestamps what it reads.
Replies are parsed and checked after the windows.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import benchlib
from benchlib import log, metric

#: The pool every serve workload decides over (three clusters of 32).
POOL = "synthetic:32,32,32"
POOL_SIZES = (32, 32, 32)
CLUSTERS = tuple(f"c{i}" for i in range(len(POOL_SIZES)))
N = 600
TENANTS = 16
CONNECTIONS = 2
#: ``SearchCache`` bound per workload engine (``repro serve --cache-entries``).
CACHE_ENTRIES = 1024
#: Share of ``--seconds`` given to the open-loop phase.
OPEN_SHARE = 0.4
#: The two phases alternate over ``ROUNDS`` rounds, so both sample the whole
#: run.  Each latency percentile is its lowest over the open rounds: stalls
#: from load outside the benchmark only ever add to it.
ROUNDS = 10
#: The generator's clock, and how long a phase waits for its last replies.
CLOCK = time.perf_counter
DRAIN_S = 20.0


@dataclass(frozen=True)
class ServeSpec:
    #: Offered rate of the open-loop phase, requests/s.
    open_rate: float
    #: Requests in flight per connection in the closed loop: enough that a
    #: tick's work outlasts the 2 ms batch window, so the server never idles
    #: and the rate measures its capacity.
    closed_depth: int


SPECS = {
    "serve-hot": ServeSpec(open_rate=3000.0, closed_depth=256),
    "serve-cold": ServeSpec(open_rate=200.0, closed_depth=32),
}


@dataclass(frozen=True)
class Request:
    """One generated request; ``availability`` is ``None`` for the full pool."""

    tenant: str
    app: str
    n: int
    overlap: bool = False
    cycles: int = 10
    availability: Optional[tuple[tuple[str, int], ...]] = None

    def spec_key(self) -> tuple:
        return (self.app, self.n, self.overlap, self.cycles)

    def wire(self) -> tuple[bytes, bytes]:
        """The request line split around its id: ``head + id + tail``."""
        obj: dict = {
            "id": "@ID@",
            "tenant": self.tenant,
            "workload": {
                "app": self.app,
                "n": self.n,
                "overlap": self.overlap,
                "cycles": self.cycles,
            },
        }
        if self.availability is not None:
            obj["availability"] = dict(self.availability)
        head, tail = json.dumps(obj, separators=(",", ":")).split('"@ID@"')
        return (head + '"').encode(), ('"' + tail + "\n").encode()


def hot_shapes() -> list[Request]:
    """The committed six-shape mix (``default_patterns`` on the pool)."""
    from repro.server.loadgen import default_patterns

    patterns = default_patterns(list(zip(CLUSTERS, POOL_SIZES)), n=N)
    return [
        Request(
            tenant="",
            app=p.app,
            n=p.n,
            overlap=p.overlap,
            cycles=p.cycles,
            availability=(
                tuple(p.availability.items()) if p.availability is not None else None
            ),
        )
        for p in patterns
    ]


def hot_stream(seed: int, count: int) -> list[Request]:
    """``count`` requests: 16 tenants drawing from the six hot shapes."""
    rng = random.Random(f"serve-hot:{seed}")
    shapes = hot_shapes()
    out = []
    for _ in range(count):
        shape = shapes[rng.randrange(len(shapes))]
        out.append(_with_tenant(shape, f"tenant{rng.randrange(TENANTS)}"))
    return out


def _with_tenant(req: Request, tenant: str) -> Request:
    return Request(tenant, req.app, req.n, req.overlap, req.cycles, req.availability)


def cold_stream(seed: int, count: int) -> list[Request]:
    """``count`` requests, each with a distinct pool: every cluster gets
    1..32 processors, the app alternates stencil/SOR by draw."""
    space = 2 * 32 ** len(POOL_SIZES)
    if count > space:
        raise ValueError(f"at most {space} distinct cold requests, asked {count}")
    rng = random.Random(f"serve-cold:{seed}")
    out = []
    for code in rng.sample(range(space), count):
        app = ("stencil", "sor")[code & 1]
        code >>= 1
        avail = []
        for name in CLUSTERS:
            avail.append((name, 1 + code % 32))
            code //= 32
        out.append(
            Request(f"tenant{rng.randrange(TENANTS)}", app, N, availability=tuple(avail))
        )
    return out


def encode_stream(requests: Sequence[Request], prefix: str) -> bytes:
    """The exact bytes of a stream sent in order (ids ``prefix0``, ...)."""
    parts = []
    for i, req in enumerate(requests):
        head, tail = req.wire()
        parts.append(head + f"{prefix}{i}".encode() + tail)
    return b"".join(parts)


# -- the server process ----------------------------------------------------------


class ServerProcess:
    """A ``repro serve`` child (optionally under the span wrappers)."""

    def __init__(self, *, trace_out: Optional[Path] = None) -> None:
        args = [
            "serve",
            "--host", "127.0.0.1",
            "--port", "0",
            "--pool", POOL,
            "--max-inflight", "1000000",
            "--max-queue", "1000000",
            # serve-cold's distinct pools must outgrow the warm-start cache
            # within a run, so LRU eviction is part of what it measures.
            "--cache-entries", str(CACHE_ENTRIES),
        ]
        if trace_out is None:
            self.cmd = [sys.executable, "-m", "repro", *args]
        else:
            layers = str(Path(__file__).with_name("layers.py"))
            self.cmd = [sys.executable, layers, "serve", str(trace_out), *args]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout_s: float = 90.0) -> None:
        self.proc = subprocess.Popen(
            self.cmd,
            cwd=benchlib.ROOT,
            env=benchlib.program_env(),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + timeout_s
        buf = b""
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, left))
            if not ready:
                raise RuntimeError("server did not announce its port in time")
            chunk = self.proc.stdout.read1(4096)
            if not chunk:
                raise RuntimeError(f"server exited with {self.proc.wait()}")
            buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        # "[serve] listening on HOST:PORT (pool ..., N clusters)"
        self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def stop(self, timeout_s: float = 60.0) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.proc = None


# -- the load generator -----------------------------------------------------------


@dataclass
class PhaseResult:
    """Raw outcome of one phase; replies are parsed after the window."""

    #: Stream index of the phase's first request (ids are ``prefix + index``).
    first: int = 0
    sent: int = 0
    #: Closed loop: start and deadline of the window (generator clock).
    start: float = 0.0
    end: float = 0.0
    #: Per connection: ``(arrival time, bytes)`` chunks as read.
    chunks: list = field(default_factory=list)
    #: Open loop: due time of each request sent, and how late it went out.
    due: list = field(default_factory=list)
    lateness_s: list = field(default_factory=list)
    #: The server's CPU seconds over the window (closed loop: to its deadline).
    cpu_s: float = 0.0


async def _connect(port: int, count: int):
    conns = []
    for _ in range(count):
        conns.append(await asyncio.open_connection("127.0.0.1", port, limit=1 << 22))
    return conns


async def _close(conns) -> None:
    for _reader, writer in conns:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _read_until(reader, expected: int, sink: list, stop_at: float) -> int:
    """Read reply chunks until ``expected`` lines or ``stop_at``."""
    got = 0
    while got < expected:
        left = stop_at - CLOCK()
        if left <= 0:
            break
        try:
            data = await asyncio.wait_for(reader.read(1 << 16), left)
        except asyncio.TimeoutError:
            break
        if not data:
            break
        sink.append((CLOCK(), data))
        got += data.count(b"\n")
    return got


async def open_loop(
    port: int, wires: Sequence[tuple[bytes, bytes]], rate: float, duration_s: float,
    prefix: str, *, pid: int, first: int = 0,
) -> PhaseResult:
    """Send ``rate`` requests/s for ``duration_s`` on a fixed schedule,
    starting at stream index ``first``."""
    count = min(len(wires) - first, int(rate * duration_s))
    conns = await _connect(port, CONNECTIONS)
    res = PhaseResult(first=first, sent=count, chunks=[[] for _ in conns])
    per_conn = [len(range(c, count, CONNECTIONS)) for c in range(len(conns))]
    t0 = CLOCK() + 0.01
    res.due = [t0 + i / rate for i in range(count)]
    stop_at = t0 + duration_s + DRAIN_S
    readers = [
        asyncio.ensure_future(_read_until(r, per_conn[c], res.chunks[c], stop_at))
        for c, (r, _w) in enumerate(conns)
    ]
    cpu0 = benchlib.proc_cpu_s(pid)
    i = 0
    while i < count:
        now = CLOCK()
        batches: list[list[bytes]] = [[] for _ in conns]
        while i < count and res.due[i] <= now:
            head, tail = wires[first + i]
            batches[i % CONNECTIONS].append(head + f"{prefix}{first + i}".encode() + tail)
            res.lateness_s.append(now - res.due[i])
            i += 1
        for (_r, writer), batch in zip(conns, batches):
            if batch:
                writer.write(b"".join(batch))
        if i < count:
            await asyncio.sleep(max(0.0, res.due[i] - CLOCK()))
    await asyncio.gather(*readers)
    res.cpu_s = benchlib.proc_cpu_s(pid) - cpu0
    await _close(conns)
    return res


async def closed_loop(
    port: int, wires: Sequence[tuple[bytes, bytes]], duration_s: float, prefix: str,
    *, pid: int, depth: int, first: int = 0, cycle: bool = True,
) -> PhaseResult:
    """Keep ``depth`` requests in flight per connection for ``duration_s``.

    Request ``k`` (id ``prefix + k``, from ``k = first``) is
    ``wires[k % len(wires)]``; with ``cycle=False`` the generator stops
    sending when the stream ends.
    """
    conns = await _connect(port, CONNECTIONS)
    res = PhaseResult(first=first, chunks=[[] for _ in conns])
    limit = None if cycle else len(wires)
    seq = first
    total = len(wires)

    def take(k: int) -> bytes:
        nonlocal seq
        if limit is not None:
            k = min(k, limit - seq)
        out = []
        for _ in range(k):
            head, tail = wires[seq % total]
            out.append(head + f"{prefix}{seq}".encode() + tail)
            seq += 1
        return b"".join(out)

    cpu0 = benchlib.proc_cpu_s(pid)
    res.start = CLOCK()
    res.end = deadline = res.start + duration_s

    async def sample_cpu() -> None:
        await asyncio.sleep(max(0.0, deadline - CLOCK()))
        res.cpu_s = benchlib.proc_cpu_s(pid) - cpu0

    async def drive(c: int) -> None:
        reader, writer = conns[c]
        first_batch = take(depth)
        outstanding = first_batch.count(b"\n")
        writer.write(first_batch)
        stop_at = deadline + DRAIN_S
        while outstanding > 0:
            left = stop_at - CLOCK()
            if left <= 0:
                break
            try:
                data = await asyncio.wait_for(reader.read(1 << 16), left)
            except asyncio.TimeoutError:
                break
            if not data:
                break
            now = CLOCK()
            res.chunks[c].append((now, data))
            lines = data.count(b"\n")
            outstanding -= lines
            if now < deadline:
                more = take(lines)
                if more:
                    outstanding += more.count(b"\n")
                    writer.write(more)

    await asyncio.gather(sample_cpu(), *(drive(c) for c in range(len(conns))))
    res.sent = seq - first
    await _close(conns)
    return res


def closed_round(res: PhaseResult) -> tuple[int, float]:
    """Replies of a closed-loop round and the seconds they took.

    Replies of one batch tick arrive together, so the round runs from its
    start, when its first requests went out, to the first reply at or after
    its deadline: the tick in flight at the deadline completes and counts,
    and only whole ticks are timed, whatever the tick length.
    """
    arrivals = sorted(
        (t, data.count(b"\n")) for chunks in res.chunks for t, data in chunks
    )
    t_end = next((t for t, _n in arrivals if t >= res.end), arrivals[-1][0])
    return sum(n for t, n in arrivals if t <= t_end), t_end - res.start


def closed_figures(rounds: Sequence[PhaseResult]) -> tuple[float, float]:
    """Ops/s and the server's CPU ms per op over ``rounds`` taken together."""
    replies, seconds = map(sum, zip(*(closed_round(res) for res in rounds)))
    rate = replies / seconds
    window_s = sum(res.end - res.start for res in rounds)
    return rate, sum(res.cpu_s for res in rounds) * 1e3 / (rate * window_s)


async def warm_up(port: int, requests: Sequence[Request], prefix: str) -> list[dict]:
    """Send ``requests`` pipelined on one connection; wait for every reply."""
    ((reader, writer),) = await _connect(port, 1)
    body = encode_stream(requests, prefix)
    writer.write(body)
    replies = []
    while len(replies) < len(requests):
        line = await asyncio.wait_for(reader.readline(), 60.0)
        if not line:
            raise RuntimeError("server closed the connection during warm-up")
        replies.append(json.loads(line))
    await _close([(reader, writer)])
    return replies


def parse_replies(res: PhaseResult, *, with_times: bool) -> list:
    """Reply objects (with arrival times when asked), in arrival order."""
    out = []
    for chunks in res.chunks:
        partial = b""
        for t, data in chunks:
            data = partial + data
            *lines, partial = data.split(b"\n")
            for line in lines:
                obj = json.loads(line)
                out.append((t, obj) if with_times else obj)
    return out


# -- correctness ------------------------------------------------------------------


class Checker:
    """Scalar re-score of every reply plus direct-search comparisons."""

    def __init__(self) -> None:
        from repro.partition.available import gather_available_resources
        from repro.server.service import resolve_pool

        net, self.db = resolve_pool(POOL)
        self.base = gather_available_resources(net)
        self._est: dict = {}
        self._seen: dict = {}
        self.mismatches: list[str] = []

    def _estimator(self, req: Request):
        """The scalar estimator (and computation) for ``req``'s workload."""
        from repro.partition.estimator import CycleEstimator
        from repro.server.protocol import WorkloadSpec

        key = req.spec_key()
        if key not in self._est:
            comp = WorkloadSpec(*key).build()
            self._est[key] = (CycleEstimator(comp, self.db), comp)
        return self._est[key]

    def _ordered(self, req: Request, est):
        from repro.partition.heuristic import order_by_power
        from repro.server.protocol import restrict_pool

        avail = dict(req.availability) if req.availability is not None else None
        return order_by_power(restrict_pool(self.base, avail), est.op_kind)

    def check(self, req: Request, reply: dict) -> bool:
        """True when ``reply`` is a decision whose ``t_cycle_ms`` and vector
        equal the scalar re-score of its own counts, bit for bit."""
        if not reply.get("ok"):
            self.mismatches.append(f"error reply {reply.get('id')}: {reply.get('error')}")
            return False
        counts = reply["counts"]
        key = (req.spec_key(), req.availability, tuple(sorted(counts.items())))
        want = self._seen.get(key)
        if want is None:
            from repro.errors import ReproError
            from repro.partition.config import ProcessorConfiguration

            est, _comp = self._estimator(req)
            ordered = self._ordered(req, est)
            want = False
            if sorted(counts) == sorted(r.name for r in ordered):
                try:
                    config = ProcessorConfiguration(ordered, [counts[r.name] for r in ordered])
                    want = (
                        est.estimate(config).t_cycle_ms,
                        tuple(est.partition_vector(config).counts),
                    )
                except ReproError:  # counts the pool cannot hold
                    pass
            self._seen[key] = want
        ok = want is not False and (
            reply["t_cycle_ms"] == want[0] and tuple(reply["vector"]) == want[1]
        )
        if not ok:
            self.mismatches.append(
                f"reply {reply.get('id')} does not re-score: {reply.get('counts')} "
                f"@ {reply.get('t_cycle_ms')!r}"
            )
        return ok

    def matches_direct(self, req: Request, reply: dict) -> bool:
        """Served decision equals a direct ``exhaustive_partition(engine="array")``."""
        from repro.partition.heuristic import exhaustive_partition
        from repro.server.protocol import restrict_pool

        _est, comp = self._estimator(req)
        avail = dict(req.availability) if req.availability is not None else None
        direct = exhaustive_partition(
            comp, restrict_pool(self.base, avail), self.db, engine="array"
        )
        ok = reply.get("ok") and (
            reply["counts"] == direct.counts_by_name()
            and tuple(reply["vector"]) == tuple(direct.vector.counts)
            and reply["t_cycle_ms"] == direct.t_cycle_ms
        )
        if not ok:
            self.mismatches.append(
                f"reply {reply.get('id')} differs from the direct search: "
                f"{reply.get('counts')} != {direct.counts_by_name()}"
            )
        return bool(ok)


# -- the workload -------------------------------------------------------------------


@dataclass
class ServePlan:
    """Everything a run sends, built before any window."""

    warm: list[Request]
    open_reqs: list[Request]
    closed_reqs: list[Request]
    cycle_closed: bool

    @classmethod
    def build(cls, workload: str, seed: int, seconds: float) -> "ServePlan":
        spec = SPECS[workload]
        n_open = int(spec.open_rate * seconds * OPEN_SHARE) + 1
        if workload == "serve-hot":
            warm = []
            for i, shape in enumerate(hot_shapes()):
                warm.append(_with_tenant(shape, f"warm{i % 2}"))
            return cls(warm, hot_stream(seed, n_open), hot_stream(seed + 1_000_003, 8192), True)
        # Cold: one permutation; the warm-up pools come from its far end so
        # no timed request repeats a pool the server has already seen.
        reqs = cold_stream(seed, 2 * 32 ** 3)
        warm = [_with_tenant(r, "warm") for r in reqs[-32:]]
        return cls(warm, reqs[:n_open], reqs[n_open:-32], False)

    def wires(self):
        return [r.wire() for r in self.open_reqs], [r.wire() for r in self.closed_reqs]


def _start_warm(plan: ServePlan, trace_out: Optional[Path] = None):
    """Launch a server and warm it; returns ``(server, seconds taken)``."""
    t0 = time.perf_counter()
    server = ServerProcess(trace_out=trace_out)
    try:
        server.start()
        asyncio.run(warm_up(server.port, plan.warm, "w"))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def _check_phase(checker: Checker, res: PhaseResult, reqs: Sequence[Request],
                 prefix: str, first_of: dict) -> tuple[int, list[float]]:
    """Check every reply of a phase; returns ``(failed, open-loop latencies)``."""
    replies = parse_replies(res, with_times=True)
    failed = res.sent - len(replies)
    if failed:
        checker.mismatches.append(f"{failed} requests got no reply")
    latencies = []
    for t, reply in replies:
        idx = int(reply["id"][len(prefix):])
        req = reqs[idx % len(reqs)]
        if not checker.check(req, reply):
            failed += 1
        first_of.setdefault(req.spec_key() + (req.availability,), (req, reply))
        if res.due:
            latencies.append((t - res.due[idx - res.first]) * 1e3)
    return failed, latencies


def _rounds(server: "ServerProcess", spec: ServeSpec, plan: "ServePlan", wires,
            open_s: float, closed_s: float) -> tuple[list, list]:
    """Alternate open- and closed-loop windows, ``ROUNDS`` of each, so both
    phases sample the whole run rather than one stretch of it."""
    open_wires, closed_wires = wires
    opens, closeds = [], []
    o_next = c_next = 0
    for _ in range(ROUNDS):
        gc.collect()
        opened = asyncio.run(open_loop(
            server.port, open_wires, spec.open_rate, open_s / ROUNDS, "o",
            pid=server.pid, first=o_next,
        ))
        o_next += opened.sent
        gc.collect()
        closed = asyncio.run(closed_loop(
            server.port, closed_wires, closed_s / ROUNDS, "c", pid=server.pid,
            depth=spec.closed_depth, first=c_next, cycle=plan.cycle_closed,
        ))
        c_next += closed.sent
        opens.append(opened)
        closeds.append(closed)
    return opens, closeds


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One serve run; returns ``(correct, attempted, failed, metrics, diag)``."""
    spec = SPECS[workload]
    plan = ServePlan.build(workload, seed, seconds)
    wires = plan.wires()
    setups = []
    if not trace:
        # Set-up is launch -> warm server, timed on fresh servers; the last
        # one serves the run.
        for _ in range(benchlib.SETUP_LAUNCHES - 1):
            server, took = _start_warm(plan)
            server.stop()
            setups.append(took)
    server, took = _start_warm(plan)
    setups.append(took)
    base = []
    try:
        if trace:
            # An untraced reference window on this server, then a traced one.
            gc.collect()
            base = [asyncio.run(closed_loop(
                server.port, wires[1], seconds * 0.3, "u", pid=server.pid,
                depth=spec.closed_depth, cycle=plan.cycle_closed,
            ))]
            server.stop()
            trace_path = benchlib.OUT / f"{workload}-server-trace.jsonl"
            server, _ = _start_warm(plan, trace_out=trace_path)
            opens, closeds = _rounds(server, spec, plan, wires, seconds * 0.3, seconds * 0.4)
        else:
            opens, closeds = _rounds(
                server, spec, plan, wires, seconds * OPEN_SHARE, seconds * (1 - OPEN_SHARE)
            )
        peak_rss = benchlib.proc_peak_rss_mb(server.pid)
    finally:
        server.stop()

    checker = Checker()
    first_of: dict = {}
    failed = 0
    per_round_ms = []
    for res in opens:
        f, ms = _check_phase(checker, res, plan.open_reqs, "o", first_of)
        failed += f
        per_round_ms.append(ms)
    for res, prefix in [(r, "c") for r in closeds] + [(r, "u") for r in base]:
        failed += _check_phase(checker, res, plan.closed_reqs, prefix, first_of)[0]
    # Direct-search parity: every hot shape; a seeded sample of cold pools.
    firsts = list(first_of.values())
    if workload == "serve-cold":
        firsts = random.Random(f"sample:{seed}").sample(firsts, min(16, len(firsts)))
    failed += sum(not checker.matches_direct(req, reply) for req, reply in firsts)
    if workload == "serve-hot" and len(firsts) != len(hot_shapes()):
        checker.mismatches.append(f"only {len(firsts)} of the hot shapes were served")
    attempted = sum(res.sent for res in opens + closeds + base)
    correct = not checker.mismatches
    for msg in checker.mismatches[:10]:
        log(f"[{workload}] check: {msg}")

    throughput, cpu_ms = closed_figures(closeds)
    if trace:
        from layers import serve_layer_metrics

        summary = json.loads(trace_path.with_suffix(".summary.json").read_text())
        metrics = serve_layer_metrics(summary)
        ratio = closed_figures(base)[0] / throughput
        metrics["telemetry.trace_overhead_ratio"] = metric(ratio, "ratio")
    else:
        # Each latency percentile is its lowest over the open rounds.
        metrics = {
            "setup_s": metric(min(setups), "s"),
            "throughput_ops_s": metric(throughput, "ops/s"),
            "latency_p50_ms": metric(
                min(benchlib.percentile(ms, 50) for ms in per_round_ms), "ms"
            ),
            "latency_p90_ms": metric(
                min(benchlib.percentile(ms, 90) for ms in per_round_ms), "ms"
            ),
            "cpu_ms_per_op": metric(cpu_ms, "ms"),
            "peak_rss_mb": metric(peak_rss, "MB"),
        }
    all_ms = [ms for round_ms in per_round_ms for ms in round_ms]
    lateness = [late for res in opens for late in res.lateness_s]
    diag = {
        "open_rate_per_s": spec.open_rate,
        "open_requests": sum(res.sent for res in opens),
        "latency_p99_ms": benchlib.percentile(all_ms, 99),
        "generator_late_ms_p50": benchlib.percentile(lateness, 50) * 1e3,
        "generator_late_ms_max": max(lateness, default=0.0) * 1e3,
        # The open-loop percentiles over every round rather than the lowest.
        "latency_p50_all_rounds_ms": benchlib.percentile(all_ms, 50),
        "latency_p90_all_rounds_ms": benchlib.percentile(all_ms, 90),
        "closed_ops_s_per_round": [round(closed_figures([r])[0], 1) for r in closeds],
        "closed_requests": sum(res.sent for res in closeds),
        "open_cpu_ms_per_op": sum(r.cpu_s for r in opens) * 1e3 / max(1, len(all_ms)),
        "setup_samples_s": setups,
    }
    return correct, attempted, failed, metrics, diag
