"""Served-path flood benchmark: one command, every metric with its unit.

Usage, from the repository root::

    python3 e2ebench/run.py --workload wave --seed 1 --seconds 15 --trace 0

A run generates the workload's flood from ``--seed`` (timed, but not
counted), replays it offline through a bare ``RuntimeService`` for the
reference incident stream, then repeats the served replay -- each
repetition in a fresh process -- until ``--seconds`` are spent.  Every
repetition's served ``(incident_id, render)`` pairs and counts must equal
the reference, or the run is marked incorrect.

``--trace 0`` reports the end-to-end metrics over the untraced
repetitions (see :func:`end_to_end`).  ``--trace 1`` alternates traced
and untraced repetitions and reports the per-layer metrics from the
first traced one, plus the tracer's own overhead and coverage.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``e2ebench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch (per-run, removed) and span dumps (kept), inside the checkout
WORK_ROOT = ROOT / ".e2ebench"

if not (SRC / "repro").is_dir():
    sys.stderr.write(f"e2ebench: no program sources under {SRC}\n")
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

import flood as floods  # noqa: E402
import serve  # noqa: E402
from tracer import TraceSummary, per, percentile  # noqa: E402

#: fewest repetitions a run makes, whatever ``--seconds`` says
MIN_REPS = 3
#: a run stops starting repetitions once this much wall time is gone
RUN_BUDGET_S = 150.0
REP_TIMEOUT_S = 120.0

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ingest_alerts_per_s": ("1/s", "higher"),
    "submit_p50_us": ("us", "lower"),
    "submit_p99_us": ("us", "lower"),
    "query_p50_us": ("us", "lower"),
    "query_p95_us": ("us", "lower"),
    "serve_rss_mb": ("MB", "lower"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "client.self_us_per_req": ("us", "lower"),
    "transport.codec_us_per_req": ("us", "lower"),
    "transport.bytes_per_req": ("B", "lower"),
    "transport.wire_us_per_req": ("us", "lower"),
    "gateway.self_us_per_req": ("us", "lower"),
    "gateway.requests": ("count", "lower"),
    "sequencer.us_per_call": ("us", "lower"),
    "sequencer.hold_us_p50": ("us", "lower"),
    "sequencer.hold_us_p99": ("us", "lower"),
    "sequencer.pending_max": ("count", "lower"),
    "runtime.ingest_self_us_per_alert": ("us", "lower"),
    "admission.us_per_alert": ("us", "lower"),
    "admission.sheds": ("count", "lower"),
    "metrics.us_per_alert": ("us", "lower"),
    "journal.us_per_append": ("us", "lower"),
    "journal.bytes_per_alert": ("B", "lower"),
    "checkpoint.ms_per_save": ("ms", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "checkpoint.saves": ("count", "lower"),
    "preprocess.us_per_raw": ("us", "lower"),
    "preprocess.emitted_per_raw": ("ratio", "lower"),
    "preprocess.state_keys": ("count", "lower"),
    "classify.us_per_line": ("us", "lower"),
    "classify.lines": ("count", "lower"),
    "pipeline.sweep_ms_p50": ("ms", "lower"),
    "pipeline.sweep_ms_max": ("ms", "lower"),
    "locate.feed_us_per_alert": ("us", "lower"),
    "locate.sweep_ms_p50": ("ms", "lower"),
    "locate.sweep_ms_max": ("ms", "lower"),
    "locate.sweeps": ("count", "lower"),
    "locate.live_locations_mean": ("count", "lower"),
    "evaluate.us_per_call": ("us", "lower"),
    "evaluate.calls": ("count", "lower"),
    "zoom.observe_us_per_raw": ("us", "lower"),
    "zoom.refine_ms_per_call": ("ms", "lower"),
    "query.reports_us_p50": ("us", "lower"),
    "query.history_us_p50": ("us", "lower"),
    "query.active_us_p50": ("us", "lower"),
    "query.health_us_p50": ("us", "lower"),
    "query.stats_us_p50": ("us", "lower"),
    "query.flush_us_per_query": ("us", "lower"),
    "query.rank_us_per_query": ("us", "lower"),
    "query.render_us_per_query": ("us", "lower"),
    "submit_p999_us": ("us", "lower"),
    "failed_op_ratio": ("frac", "lower"),
    "setup.topology_s": ("s", "lower"),
    "setup.service_s": ("s", "lower"),
    "setup.server_s": ("s", "lower"),
    "gen.flood_s": ("s", "lower"),
    "gen.raw_alerts": ("count", "higher"),
    "gen.sim_span_s": ("s", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.coverage_frac": ("frac", "higher"),
}


# -- tags ------------------------------------------------------------------


def source_revision() -> str:
    """The git commit when there is one, else a digest of ``src/``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        proc = None
    if proc is not None and proc.returncode == 0 and proc.stdout.strip():
        return proc.stdout.strip()
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return f"src-sha1-{digest.hexdigest()[:12]}"


# -- repetitions -------------------------------------------------------------


class Prepared(NamedTuple):
    reference: floods.Reference
    gen_s: float
    raw_alerts: int
    sim_span_s: float


def in_child(fn: Callable[..., Any], *args: Any, timeout_s: float) -> Any:
    """``fn(*args)`` in a forked child process; its result comes back over a pipe.

    The child is waited for (and killed once ``timeout_s`` is spent) before
    this returns.
    """
    receiver, sender = serve.FORK.Pipe(duplex=False)
    child = serve.FORK.Process(
        target=_reply, args=(sender, fn, args), name=f"e2ebench-{fn.__name__}"
    )
    child.start()
    sender.close()
    try:
        if not receiver.poll(timeout_s):
            child.kill()
            raise TimeoutError(f"{fn.__name__} ran longer than {timeout_s} s")
        try:
            return receiver.recv()
        except EOFError:  # the child died before replying; it printed why
            child.join()
            raise RuntimeError(
                f"{fn.__name__} failed in a child process (exit {child.exitcode})"
            ) from None
    finally:
        receiver.close()
        child.join(timeout_s)
        if child.exitcode is None:
            child.kill()
            child.join()


def _reply(conn: Any, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
    conn.send(fn(*args))
    conn.close()


def prepare(args: argparse.Namespace, topology: str, flood_path: pathlib.Path) -> Prepared:
    """Generate and save the flood, and replay it offline for the reference."""
    from repro.topology.builder import build_topology

    topo = build_topology(serve.TOPOLOGIES[topology]())
    began = time.perf_counter()
    flood = floods.generate(topo, serve.WORKLOADS[args.workload]["flood"], args.seed)
    gen_s = time.perf_counter() - began
    floods.save(flood, flood_path)
    reference = floods.offline_reference(topo, floods.merge(floods.substreams(flood.raws)))
    return Prepared(reference, gen_s, len(flood.raws), flood.sim_span_s)


def run_repetitions(
    args: argparse.Namespace, topology: str, started: float
) -> Tuple[Prepared, List[Tuple[bool, Dict[str, Any]]]]:
    """Fresh-process repetitions until ``--seconds`` are spent.

    Generation and the offline replay run in a child, so the parent every
    repetition forks from holds only the imported modules and the
    reference: no heap left over from them for a repetition's
    resident-memory baseline to hide allocations in.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        flood_path = tmp / "flood.pkl"
        prepared: Prepared = in_child(prepare, args, topology, flood_path, timeout_s=RUN_BUDGET_S)
        gc.collect()
        pattern = (True, False) if args.trace else (False,)
        dump_path = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.tsv.gz"
        reps: List[Tuple[bool, Dict[str, Any]]] = []
        measure_start = time.perf_counter()
        while True:
            traced = pattern[len(reps) % len(pattern)]
            rep_dir = tmp / f"rep{len(reps)}"
            rep_dir.mkdir()
            ctx = serve.Context(
                workload=args.workload,
                topology=topology,
                flood_path=flood_path,
                raw_alerts=prepared.raw_alerts,
                reference=prepared.reference,
                work_dir=rep_dir,
                timeout_s=REP_TIMEOUT_S,
                trace=traced,
                dump_path=dump_path if traced and not any(t for t, _ in reps) else None,
            )
            began = time.perf_counter()
            result = in_child(serve.run_repetition, ctx, timeout_s=REP_TIMEOUT_S)
            now = time.perf_counter()
            result["wall_s"] = now - began
            reps.append((traced, result))
            if len(reps) < max(MIN_REPS, len(pattern)):
                continue
            typical = statistics.median(r["wall_s"] for _, r in reps)
            if now - measure_start + typical > args.seconds:
                break
            if now - started + typical > RUN_BUDGET_S:
                break
        return prepared, reps
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# -- metrics -------------------------------------------------------------------


def end_to_end(reps: Sequence[Dict[str, Any]]) -> Dict[str, Tuple[float, int]]:
    """The run's figures from its untraced repetitions: name -> (value, samples).

    Throughput is the run's raw alerts over its summed serve time; a p50 is
    the mean of the repetitions' own p50s; a tail percentile is taken over
    every request of every repetition (pooled); set-up and memory are
    medians over repetitions.  The host's speed flips between a fast and
    a slow mode from one repetition to the next.  A p50 over the pooled
    requests then jumps across the gap between the modes whenever about
    half of the repetitions ran slow, while the mean of the repetitions'
    p50s moves smoothly with the share that did; a pooled tail is fed by
    the slow repetitions either way.
    """
    submits = [ns for r in reps for ns in r["submit_ns"]]
    queries = [ns for r in reps for ns in r["query_ns"]]
    n = len(reps)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), n),
        "ingest_alerts_per_s": (
            sum(r["raw_alerts"] for r in reps) / sum(r["serve_s"] for r in reps),
            n,
        ),
        "submit_p50_us": (statistics.fmean(r["submit_p50_us"] for r in reps), len(submits)),
        "submit_p99_us": (percentile(submits, 99) / 1e3, len(submits)),
        "query_p50_us": (statistics.fmean(r["query_p50_us"] for r in reps), len(queries)),
        "query_p95_us": (percentile(queries, 95) / 1e3, len(queries)),
        "serve_rss_mb": (statistics.median(r["rss_growth_mb"] for r in reps), n),
    }


def per_layer(
    traced: Dict[str, Any],
    untraced: Sequence[Dict[str, Any]],
    all_traced: Sequence[Dict[str, Any]],
    prepared: Prepared,
) -> Dict[str, float]:
    """Per-layer figures from one traced repetition (see README.md)."""
    server: TraceSummary = traced["trace"]
    socket = "client_trace" in traced
    client: TraceSummary = traced["client_trace"] if socket else server
    us = 1e-3  # ns -> us
    requests = server.count("gateway.handle")
    ingests = server.count("runtime.ingest")
    raw_feeds = server.count("preprocess.feed")
    reports = server.count("query.reports")
    sequencer = ("sequencer.submit", "sequencer.advance", "sequencer.eof", "sequencer.flush")
    client_roots = ("client.submit", "client.advance", "client.eof", "client.finish", "client.query")
    journal_appends = server.count("journal.append")
    saves = server.count("checkpoint.save")
    counts = traced["counts"]

    def p50_us(name: str) -> float:
        return percentile(server.durations_ns(name), 50) * us

    def ms_stats(name: str) -> Tuple[float, float]:
        durations = server.durations_ns(name)
        return percentile(durations, 50) / 1e6, (max(durations) / 1e6 if durations else 0.0)

    sweep_p50, sweep_max = ms_stats("pipeline.sweep")
    locate_p50, locate_max = ms_stats("locate.sweep")
    untraced_rate = statistics.median(r["raw_alerts"] / r["serve_s"] for r in untraced)
    traced_rate = statistics.median(r["raw_alerts"] / r["serve_s"] for r in all_traced)
    every = list(untraced) + list(all_traced)
    attempted = sum(int(r["attempted"]) for r in every)
    failed = sum(int(r["failed"]) for r in every)
    return {
        "client.self_us_per_req": per(client.self_ns(*client_roots), client.count(*client_roots)) * us,
        "transport.codec_us_per_req": 0.0
        if socket
        else per(server.self_ns("transport.request"), server.count("transport.request")) * us,
        "transport.bytes_per_req": client.extra.get("transport.bytes_per_req", 0.0),
        "transport.wire_us_per_req": per(
            client.total_ns("transport.request") - server.total_ns("gateway.handle"), requests
        )
        * us
        if socket
        else 0.0,
        "gateway.self_us_per_req": per(server.self_ns("gateway.handle", "gateway.tap"), requests) * us,
        "gateway.requests": float(requests),
        "sequencer.us_per_call": per(server.self_ns(*sequencer), server.count(*sequencer)) * us,
        "sequencer.hold_us_p50": server.extra["sequencer.hold_us_p50"],
        "sequencer.hold_us_p99": server.extra["sequencer.hold_us_p99"],
        "sequencer.pending_max": server.extra["sequencer.pending_max"],
        "runtime.ingest_self_us_per_alert": per(server.self_ns("runtime.ingest"), ingests) * us,
        "admission.us_per_alert": per(
            server.self_ns("admission.decide", "admission.apply", "admission.count_shed"), ingests
        )
        * us,
        "admission.sheds": server.extra["admission.sheds"],
        "metrics.us_per_alert": per(server.self_ns("metrics.gauges", "metrics.observer"), ingests)
        * us,
        "journal.us_per_append": per(server.total_ns("journal.append"), journal_appends) * us,
        "journal.bytes_per_alert": per(server.extra["journal.bytes"], journal_appends),
        "checkpoint.ms_per_save": per(server.total_ns("checkpoint.save"), saves) / 1e6,
        "checkpoint.bytes": server.extra["checkpoint.bytes"],
        "checkpoint.saves": float(saves),
        "preprocess.us_per_raw": per(server.self_ns("preprocess.feed"), raw_feeds) * us,
        "preprocess.emitted_per_raw": per(counts["structured"], counts["raw"]),
        "preprocess.state_keys": server.extra["preprocess.state_keys"],
        "classify.us_per_line": per(server.total_ns("classify"), server.count("classify")) * us,
        "classify.lines": float(server.count("classify")),
        "pipeline.sweep_ms_p50": sweep_p50,
        "pipeline.sweep_ms_max": sweep_max,
        "locate.feed_us_per_alert": per(server.total_ns("locate.feed"), server.count("locate.feed"))
        * us,
        "locate.sweep_ms_p50": locate_p50,
        "locate.sweep_ms_max": locate_max,
        "locate.sweeps": float(server.count("locate.sweep")),
        "locate.live_locations_mean": server.extra["locate.live_locations_mean"],
        "evaluate.us_per_call": per(server.total_ns("evaluate"), server.count("evaluate")) * us,
        "evaluate.calls": float(server.count("evaluate")),
        "zoom.observe_us_per_raw": per(server.total_ns("zoom.observe"), server.count("zoom.observe"))
        * us,
        "zoom.refine_ms_per_call": per(server.total_ns("zoom.refine"), server.count("zoom.refine"))
        / 1e6,
        "query.reports_us_p50": p50_us("query.reports"),
        "query.history_us_p50": p50_us("query.history"),
        "query.active_us_p50": p50_us("query.active"),
        "query.health_us_p50": p50_us("query.health"),
        "query.stats_us_p50": p50_us("query.stats"),
        "query.flush_us_per_query": per(server.scoped_ns("reports", "locate.flush"), reports) * us,
        "query.rank_us_per_query": per(server.scoped_ns("reports", "evaluate.rank"), reports) * us,
        "query.render_us_per_query": per(server.self_ns("query.reports"), reports) * us,
        "submit_p999_us": percentile([ns for r in untraced for ns in r["submit_ns"]], 99.9) / 1e3,
        "failed_op_ratio": per(failed, attempted),
        "setup.topology_s": statistics.median(float(r["setup.topology_s"]) for r in every),
        "setup.service_s": statistics.median(float(r["setup.service_s"]) for r in every),
        "setup.server_s": statistics.median(float(r["setup.server_s"]) for r in every),
        "gen.flood_s": prepared.gen_s,
        "gen.raw_alerts": float(prepared.raw_alerts),
        "gen.sim_span_s": prepared.sim_span_s,
        "trace.overhead_frac": 1.0 - per(traced_rate, untraced_rate),
        "trace.coverage_frac": per(client.root_ns, traced["serve_s"] * 1e9),
    }


def check(
    reps: Sequence[Tuple[bool, Dict[str, Any]]], reference: floods.Reference
) -> List[str]:
    """Identity-gate failures over every repetition (empty when correct)."""
    problems = []
    for index, (_traced, rep) in enumerate(reps):
        if not rep["identical"]:
            problems.append(f"repetition {index}: served incident stream differs from offline replay")
        if rep["counts"] != reference.counts:
            problems.append(
                f"repetition {index}: counts {rep['counts']} != reference {reference.counts}"
            )
    return problems


# -- entry points ----------------------------------------------------------------


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(serve.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def orchestrate(args: argparse.Namespace, topology: str = "benchmark") -> int:
    """One run; ``topology`` names the fabric (the benchmark's tests use ``tiny``)."""
    started = time.perf_counter()
    prepared, reps = run_repetitions(args, topology, started)
    reference = prepared.reference
    problems = check(reps, reference)
    untraced = [rep for traced, rep in reps if not traced]
    traced_reps = [rep for traced, rep in reps if traced]
    measured = traced_reps + untraced if args.trace else untraced

    tags = {
        "workload": args.workload,
        "seed": args.seed,
        "topology": topology,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "revision": source_revision(),
        "repetitions": len(reps),
        "traced_repetitions": len(traced_reps),
        "raw_alerts": prepared.raw_alerts,
        "reference_counts": reference.counts,
    }
    print("# e2ebench " + json.dumps(tags, sort_keys=True))
    for index, (traced, rep) in enumerate(reps):
        print(
            f"# repetition {index}{' (traced)' if traced else ''}: "
            f"{rep['raw_alerts'] / rep['serve_s']:.1f} alerts/s, setup {rep['setup_s']:.4f} s, "
            f"submit p50/p99 {rep['submit_p50_us']:.1f}/{rep['submit_p99_us']:.1f} us, "
            f"query p50/p95 {rep['query_p50_us']:.1f}/{rep['query_p95_us']:.1f} us, "
            f"rss +{rep['rss_growth_mb']:.2f} MB, wall {rep['wall_s']:.2f} s"
        )
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        layer = per_layer(traced_reps[0], untraced, traced_reps, prepared)
        for name, (unit, _better) in PER_LAYER.items():
            metrics[name] = {"value": layer[name], "unit": unit}
            print(f"{name:36s} {layer[name]:16.6f} {unit}")
    else:
        figures = end_to_end(untraced)
        for name, (unit, _better) in END_TO_END.items():
            value, samples = figures[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:24s} {value:16.6f} {unit:6s} (n={samples})")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(int(r["attempted"]) for r in measured),
                "failed": sum(int(r["failed"]) for r in measured),
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return orchestrate(parse(argv))


if __name__ == "__main__":
    sys.exit(main())
