"""One repetition: build the served stack, replay the flood, check it.

A repetition runs in a fresh forked process (see ``run.py``).  The load is a
closed loop with one client on one connection: each request is sent only
after the previous reply arrived, which models draining a flood that has
already reached the monitors.  The client submits every source's alerts
through ``GatewayIngestSession`` with explicit per-source seqs, in the
gateway's total order; once per simulated second every live source sends
an ``advance`` heartbeat up to the current stream time (never past its
own next alert, which the merge order guarantees); sources absent from
the flood send ``eof`` up front; the stream closes with per-source
``eof`` and ``finish``.  Operator queries are interleaved at a fixed
submit interval.

On ``loopback`` the client, transport and service share this process.
On ``socket`` this process hosts the service and a ``GatewaySocketServer``
and the client runs in a forked child over one TCP connection.
"""

from __future__ import annotations

import array
import dataclasses
import gc
import itertools
import math
import multiprocessing
import os
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import PRODUCTION_CONFIG
from repro.gateway import (
    SOURCE_PRIORITY,
    GatewayClient,
    GatewayIngestSession,
    GatewayParams,
    GatewayService,
    GatewaySocketServer,
    LoopbackTransport,
    encode_frame,
)
from repro.monitors.base import RawAlert
from repro.runtime.checkpoint import pipeline_state_dict, set_incident_counter
from repro.topology.builder import TopologySpec, build_topology

import flood as floods
from layers import ServerProbe
from tracer import Tracer, percentile

SUBMIT, ADVANCE, EOF, QUERY, FINISH = range(5)
Step = Tuple[int, Any]

#: a dashboard: a light poll of the totals and the open incidents
DASHBOARD = ("stats", "active")
#: an operator working the incidents: reports, new history, open incidents
#: and source health, in turn
OPERATOR = ("reports", "history", "active", "health")

#: per-workload traffic: carrier, persistence, and the operator queries.
#: ``queries`` is the repeating poll cycle and ``query_count`` the polls
#: per repetition (>= 200, so p95 has >= 10 samples beyond it).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "wave": {
        "flood": "wave",
        "transport": "loopback",
        "persist": False,
        "queries": DASHBOARD,
        "query_count": 200,
    },
    "storm": {
        "flood": "storm",
        "transport": "socket",
        "persist": True,
        "queries": DASHBOARD,
        "query_count": 200,
    },
    "storm_reads": {
        "flood": "storm",
        "transport": "loopback",
        "persist": False,
        "queries": OPERATOR,
        "query_count": 800,
    },
}

TOPOLOGIES = {"benchmark": TopologySpec.benchmark, "tiny": TopologySpec.tiny}

FORK = multiprocessing.get_context("fork")

#: every transport.bytes_per_req sample is one request in this many
BYTES_SAMPLE_EVERY = 8


def build_plan(
    split: Dict[str, List[RawAlert]], queries: Sequence[str], query_count: int
) -> List[Step]:
    """The client's whole request sequence, fixed before the clock starts.

    One query goes out after every ``len(alerts) // query_count`` submits.
    """
    ordered = floods.merge(split)
    poll_every = max(1, len(ordered) // query_count)
    live = sorted(split)
    plan: List[Step] = [(EOF, tool) for tool in sorted(SOURCE_PRIORITY) if tool not in split]
    next_beat = math.floor(ordered[0].timestamp) + 1 if ordered else 0
    polls = 0
    for submitted, raw in enumerate(ordered, start=1):
        while raw.timestamp >= next_beat:
            plan.extend((ADVANCE, (tool, float(next_beat))) for tool in live)
            next_beat += 1
        plan.append((SUBMIT, raw))
        if submitted % poll_every == 0:
            plan.append((QUERY, queries[polls % len(queries)]))
            polls += 1
    plan.extend((EOF, tool) for tool in live)
    plan.append((FINISH, None))
    return plan


class Drive:
    """What the client saw: latencies and failed requests."""

    def __init__(self) -> None:
        self.submit_ns = array.array("q")
        self.query_ns = array.array("q")
        self.attempted = 0
        self.failed = 0
        self.serve_ns = 0


def drive(
    transport: Any,
    plan: Sequence[Step],
    tracer: Optional[Tracer] = None,
) -> Drive:
    """Replay ``plan`` closed-loop; with a tracer every request is a root span."""
    session = GatewayIngestSession(transport)
    submit, advance, eof = session.submit, session.advance, session.eof
    finish, query = session.finish, transport.request
    if tracer is not None:
        submit = tracer.wrap("client.submit", submit)
        advance = tracer.wrap("client.advance", advance)
        eof = tracer.wrap("client.eof", eof)
        finish = tracer.wrap("client.finish", finish)
        query = tracer.wrap("client.query", query)
    out = Drive()
    clock = time.perf_counter_ns
    submit_ns, query_ns = out.submit_ns, out.query_ns
    cursor = 0
    failed = 0
    began = clock()
    for kind, arg in plan:
        if kind == SUBMIT:
            start = clock()
            reply = submit(arg)
            submit_ns.append(clock() - start)
            if not reply.get("admitted"):
                failed += 1  # a shed or an error reply
                continue
        elif kind == ADVANCE:
            reply = advance(arg[0], arg[1])
        elif kind == QUERY:
            message: Dict[str, object] = {"op": arg}
            if arg == "history":
                message["cursor"] = cursor
            start = clock()
            reply = query(message)
            query_ns.append(clock() - start)
            if arg == "history" and reply.get("ok"):
                cursor = int(reply["cursor"])
        elif kind == EOF:
            reply = eof(arg)
        else:
            reply = finish()
        if not reply.get("ok"):
            failed += 1
    out.serve_ns = clock() - began
    out.attempted = len(plan)
    out.failed = failed
    return out


def install_transport(tracer: Tracer, transport: Any, samples: List[Tuple[Any, Any]]) -> None:
    """Trace ``transport.request``; keep every ``BYTES_SAMPLE_EVERY``-th exchange.

    Only references are kept while the clock runs; the frames are
    re-encoded for their size after the run (:func:`sampled_bytes`).
    """
    traced = tracer.wrap("transport.request", transport.request)
    calls = itertools.count()

    def request(message: Dict[str, object]) -> Dict[str, object]:
        reply = traced(message)
        if next(calls) % BYTES_SAMPLE_EVERY == 0:
            samples.append((message, reply))
        return reply

    transport.request = request


def sampled_bytes(samples: Sequence[Tuple[Any, Any]]) -> float:
    """Mean request-plus-reply frame bytes over the kept exchanges."""
    sizes = [len(encode_frame(m)) + len(encode_frame(r)) for m, r in samples]
    return sum(sizes) / len(sizes) if sizes else 0.0


def rss_bytes() -> int:
    """Current resident set size of this process (Linux ``/proc``)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def served_check(
    transport: Any, reference: floods.Reference
) -> Tuple[bool, Dict[str, int]]:
    """Fetch the served stream and counts; compare with the offline replay."""
    reports = transport.request({"op": "reports"})
    metrics = transport.request({"op": "metrics"})
    pairs = tuple((r["incident_id"], r["render"]) for r in reports["reports"])
    counts = floods.counts_from_metrics(metrics["metrics"])
    counts["incidents"] = len(pairs)
    return pairs == reference.pairs, counts


def _latency_figures(out: Drive) -> Dict[str, Any]:
    submit = list(out.submit_ns)
    query = list(out.query_ns)
    return {
        "serve_s": out.serve_ns / 1e9,
        "submits": len(submit),
        "queries": len(query),
        "submit_p50_us": percentile(submit, 50) / 1e3,
        "submit_p99_us": percentile(submit, 99) / 1e3,
        "query_p50_us": percentile(query, 50) / 1e3,
        "query_p95_us": percentile(query, 95) / 1e3,
        "attempted": out.attempted,
        "failed": out.failed,
        "submit_ns": out.submit_ns,
        "query_ns": out.query_ns,
    }


@dataclasses.dataclass
class Context:
    """Everything one repetition needs, built in the parent before forking."""

    workload: str
    topology: str
    #: the flood, written by :func:`flood.save`; each process that needs
    #: the alerts loads them itself (see :func:`flood.load`)
    flood_path: pathlib.Path
    raw_alerts: int
    reference: floods.Reference
    work_dir: pathlib.Path
    timeout_s: float
    trace: bool = False
    dump_path: Optional[pathlib.Path] = None

    @property
    def params(self) -> GatewayParams:
        # deployment setting: a per-source queue as deep as the whole
        # flood, so nothing sheds (at the default limit the sequencer's
        # equal-timestamp hold sheds; see README.md)
        return GatewayParams(queue_limit=max(GatewayParams.queue_limit, self.raw_alerts))

    def plan(self) -> List[Step]:
        """Load the flood and build the client's plan, then freeze both out
        of the cyclic collector: the serving process should not pay for
        traversing the benchmark's own objects."""
        traffic = WORKLOADS[self.workload]
        flood = floods.load(self.flood_path)
        plan = build_plan(floods.substreams(flood.raws), traffic["queries"], traffic["query_count"])
        gc.collect()
        gc.freeze()
        return plan


def _service(ctx: Context, topo: Any) -> GatewayService:
    directory = ctx.work_dir / "state" if WORKLOADS[ctx.workload]["persist"] else None
    set_incident_counter(1)
    return GatewayService(topo, config=PRODUCTION_CONFIG, directory=directory, params=ctx.params)


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _server_layer_figures(service: GatewayService) -> Dict[str, float]:
    """End-of-run layer state that spans cannot give."""
    runtime = service.runtime
    state = pipeline_state_dict(runtime.pipeline)
    figures: Dict[str, float] = {
        "preprocess.state_keys": float(len(state["preprocessor"]["aggregates"])),  # type: ignore[index]
        "admission.sheds": float(sum(runtime.admission.sheds.values())),
        "journal.bytes": 0.0,
        "checkpoint.bytes": 0.0,
    }
    if runtime.journal is not None:
        figures["journal.bytes"] = float(_dir_bytes(runtime.journal.directory))
    if runtime.checkpoints is not None:
        listing = runtime.checkpoints.list()
        if listing:
            figures["checkpoint.bytes"] = float(listing[-1].path.stat().st_size)
    return figures


def _setup_figures(
    t0: float, t1: float, t2: float, t3: float, t4: float, rss_before: int, rss_after: int
) -> Dict[str, float]:
    """Set-up time excludes ``t2..t3``: installing the tracer's wrappers."""
    return {
        "setup_s": (t1 - t0) + (t2 - t1) + (t4 - t3),
        "setup.topology_s": t1 - t0,
        "setup.service_s": t2 - t1,
        "setup.server_s": t4 - t3,
        "rss_growth_mb": (rss_after - rss_before) / 2**20,
    }


def run_repetition(ctx: Context) -> Dict[str, Any]:
    """One full repetition in this (fresh, forked) process.

    The repetition -- on ``socket`` the server and its forked client too --
    runs on one CPU.  The closed loop never has the client and the server
    runnable at once, so this costs no parallelism; it spares every request
    a cross-CPU wakeup, which on a virtualised host can wait for the
    hypervisor to reschedule an idle vCPU and then dominates the tail.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if WORKLOADS[ctx.workload]["transport"] == "socket":
        return _socket_repetition(ctx)
    plan = ctx.plan()
    gc.collect()
    rss_before = rss_bytes()
    t0 = time.perf_counter()
    topo = build_topology(TOPOLOGIES[ctx.topology]())
    t1 = time.perf_counter()
    service = _service(ctx, topo)
    t2 = time.perf_counter()
    tracer = probe = None
    if ctx.trace:
        tracer = Tracer()
        probe = ServerProbe(tracer, service)  # before the transport captures handle
    t3 = time.perf_counter()
    transport = LoopbackTransport(service.handle)
    exchanges: List[Tuple[Any, Any]] = []
    if tracer is not None:
        install_transport(tracer, transport, exchanges)
    t4 = time.perf_counter()
    out = drive(transport, plan, tracer)
    gc.collect()
    rss_after = rss_bytes()
    result = _latency_figures(out)
    result.update(_setup_figures(t0, t1, t2, t3, t4, rss_before, rss_after))
    result["raw_alerts"] = ctx.raw_alerts
    if tracer is not None and probe is not None:
        summary = probe.summary()
        summary.extra.update(_server_layer_figures(service))
        summary.extra["transport.bytes_per_req"] = sampled_bytes(exchanges)
        result["trace"] = summary
        if ctx.dump_path is not None:
            tracer.dump(ctx.dump_path)
    result["identical"], result["counts"] = served_check(
        LoopbackTransport(service.handle), ctx.reference
    )
    service.shutdown()
    return result


def _expect(conn: Any, word: str, timeout_s: float) -> None:
    """Wait for the peer's next handshake message, which must be ``word``."""
    if not conn.poll(timeout_s):
        raise TimeoutError(f"benchmark peer sent nothing for {timeout_s} s, expected {word!r}")
    got = conn.recv()
    if got != word:
        raise RuntimeError(f"benchmark peer sent {got!r}, expected {word!r}")


def _socket_repetition(ctx: Context) -> Dict[str, Any]:
    """Service + socket server here, the client in a forked child.

    Handshake over a pipe: ``ready`` (the client loaded the flood and
    built its plan; set-up starts) -> the server sends its address -> the
    client connects and answers ``connected`` (set-up ends) -> ``finished``
    (the ``finish`` reply arrived; memory and the server trace are read
    here, before the identity fetch adds requests) -> ``check`` -> the
    client fetches the served stream and sends back its result.
    """
    conn, client_conn = FORK.Pipe()
    client = FORK.Process(target=run_client, args=(ctx, client_conn), name="e2ebench-client")
    client.start()
    client_conn.close()
    server: Optional[GatewaySocketServer] = None
    service: Optional[GatewayService] = None
    try:
        _expect(conn, "ready", ctx.timeout_s)
        gc.collect()
        rss_before = rss_bytes()
        t0 = time.perf_counter()
        topo = build_topology(TOPOLOGIES[ctx.topology]())
        t1 = time.perf_counter()
        service = _service(ctx, topo)
        t2 = time.perf_counter()
        tracer = probe = None
        if ctx.trace:
            tracer = Tracer()
            probe = ServerProbe(tracer, service)  # before the server captures handle
        t3 = time.perf_counter()
        server = GatewaySocketServer(service.handle, ctx.params)
        server.start()
        conn.send(server.address)
        _expect(conn, "connected", ctx.timeout_s)
        t4 = time.perf_counter()
        _expect(conn, "finished", ctx.timeout_s)
        gc.collect()
        rss_after = rss_bytes()
        result: Dict[str, Any] = _setup_figures(t0, t1, t2, t3, t4, rss_before, rss_after)
        if tracer is not None and probe is not None:
            summary = probe.summary()
            summary.extra.update(_server_layer_figures(service))
            result["trace"] = summary
            if ctx.dump_path is not None:
                tracer.dump(ctx.dump_path)
        conn.send("check")
        if not conn.poll(ctx.timeout_s):
            raise TimeoutError(f"benchmark client sent no result within {ctx.timeout_s} s")
        result.update(conn.recv())
        return result
    finally:
        conn.close()  # a client still waiting on the pipe sees EOF and exits
        if server is not None:
            server.stop()
        client.join(ctx.timeout_s)
        if client.exitcode is None:
            client.kill()
            client.join()
        if service is not None:
            service.shutdown()


def run_client(ctx: Context, conn: Any) -> None:
    """The socket workload's client (see :func:`_socket_repetition`)."""
    plan = ctx.plan()
    conn.send("ready")
    host, port = conn.recv()
    client = GatewayClient(host, int(port), timeout_s=ctx.timeout_s)
    try:
        tracer = None
        exchanges: List[Tuple[Any, Any]] = []
        if ctx.trace:
            tracer = Tracer()
            install_transport(tracer, client, exchanges)
        conn.send("connected")
        out = drive(client, plan, tracer)
        conn.send("finished")
        result = _latency_figures(out)
        result["raw_alerts"] = ctx.raw_alerts
        if tracer is not None:
            summary = tracer.summary()
            summary.extra["transport.bytes_per_req"] = sampled_bytes(exchanges)
            result["client_trace"] = summary
            if ctx.dump_path is not None:
                tracer.dump(ctx.dump_path.with_name(ctx.dump_path.name.replace(".tsv", "-client.tsv")))
        _expect(conn, "check", ctx.timeout_s)
        result["identical"], result["counts"] = served_check(client, ctx.reference)
        conn.send(result)
    finally:
        client.close()
        conn.close()
