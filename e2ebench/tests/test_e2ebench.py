"""Tests of the served-path benchmark itself (not of the program).

Run from the repository root::

    PYTHONPATH=src python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import collections
import json
import math
import pathlib
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import flood as floods  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from tracer import Tracer, percentile  # noqa: E402

from repro.core.config import PRODUCTION_CONFIG  # noqa: E402
from repro.gateway import SOURCE_PRIORITY  # noqa: E402
from repro.topology.builder import TopologySpec, build_topology  # noqa: E402

RUN_TIMEOUT_S = 240


@pytest.fixture(scope="module")
def tiny():
    return build_topology(TopologySpec.tiny())


def _run(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )


# -- end to end, every workload on the tiny fabric ---------------------------------


@pytest.mark.parametrize("workload", sorted(serve.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_end_to_end_tiny(workload, trace, capsys):
    args = run.parse(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    code = run.orchestrate(args, topology="tiny")
    out = capsys.readouterr().out
    assert code == 0, out[-3000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
        assert math.isfinite(metric["value"])
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["trace.coverage_frac"] >= 0.9
        assert metrics["failed_op_ratio"] == 0
        assert metrics["admission.sheds"] == 0
        persisted = serve.WORKLOADS[workload]["persist"]
        assert (metrics["journal.us_per_append"] > 0) == persisted
        assert (metrics["checkpoint.saves"] > 0) == persisted
        socket = serve.WORKLOADS[workload]["transport"] == "socket"
        assert (metrics["transport.wire_us_per_req"] != 0) == socket
        assert (metrics["transport.codec_us_per_req"] > 0) == (not socket)
        reads = "reports" in serve.WORKLOADS[workload]["queries"]
        assert (metrics["query.reports_us_p50"] > 0) == reads
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_program_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "wave", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- tracer arithmetic ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    root = tracer.add("root", 0, 100, request=1)
    child = tracer.add("child", 10, 60, parent=root, request=1)
    tracer.add("grandchild", 20, 30, parent=child, request=1)
    tracer.add("child", 70, 90, parent=root, request=1)
    other = tracer.add("root", 200, 210, request=2)
    tracer.add("leaf", 201, 202, parent=other, request=2)
    assert tracer.self_times().tolist() == [30, 40, 10, 20, 9, 1]
    summary = tracer.summary(keep_durations=["child"], scopes={"deep": "grandchild"})
    assert summary.count("root") == 2 and summary.count("child") == 2
    assert summary.total_ns("root") == 110
    assert summary.self_ns("root") == 39
    assert summary.self_ns("child") == 60
    assert summary.durations_ns("child") == [50, 20]
    assert summary.root_ns == 110
    # only request 1 holds a grandchild, so request 2's spans are excluded
    assert summary.scoped_ns("deep", "root", "leaf") == 100
    assert sum(summary.self_ns(n) for n in ("root", "child", "grandchild", "leaf")) == 110


def test_wrapped_calls_nest_and_share_request_ids():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: next(ticks))

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer(1) == 4
    assert traced_outer(2) == 6
    assert list(tracer.parent) == [-1, 0, -1, 2]
    assert list(tracer.request) == [1, 1, 2, 2]
    assert tracer.names() == ["inner", "outer"]
    assert all(d > 0 for d in tracer.durations().tolist())


def test_wrapper_records_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert len(tracer) == 1 and tracer.end[0] >= tracer.start[0] > 0


def test_percentile_interpolates():
    assert percentile([], 50) == 0.0
    assert percentile([5], 99) == 5
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile(range(101), 95) == 95


# -- generation and the request plan -----------------------------------------------------


@pytest.mark.parametrize("kind", floods.KINDS)
def test_generation_is_deterministic_per_seed(tiny, kind):
    first = floods.generate(tiny, kind, 5)
    again = floods.generate(tiny, kind, 5)
    other = floods.generate(tiny, kind, 6)
    assert first.raws and first == again
    assert other.raws != first.raws
    assert first.sim_span_s == again.sim_span_s


def test_storm_outages_are_local_and_close_before_the_end():
    topo = build_topology(TopologySpec.benchmark())
    conditions, horizon = floods._storm(topo, random.Random(5), PRODUCTION_CONFIG)
    failed = collections.defaultdict(set)  # (start, cluster) -> its failed switches
    for condition in conditions:
        device = topo.devices[condition.target]
        assert device.role.value == "CSW"
        failed[condition.start, device.location.parent].add(device.name)
    clusters = [cluster for _, cluster in failed]
    assert len({start for start, _ in failed}) == len(failed) == floods.STORM_OUTAGES
    assert len({cluster.parent for cluster in clusters}) == len(clusters)  # distinct sites
    switches = collections.Counter(
        d.location.parent for d in topo.devices.values() if d.role.value == "CSW"
    )
    assert all(len(names) == switches[cluster] for (_, cluster), names in failed.items())
    assert horizon - max(c.end for c in conditions) > PRODUCTION_CONFIG.incident_timeout_s


def test_flood_shape_does_not_depend_on_seed():
    topo = build_topology(TopologySpec.benchmark())

    def wave_roles(seed):
        conditions, _ = floods._wave(topo, random.Random(seed))
        return collections.Counter(topo.devices[c.target].role for c in conditions)

    def storm_shape(seed):
        conditions, horizon = floods._storm(topo, random.Random(seed), PRODUCTION_CONFIG)
        return sorted(c.end - c.start for c in conditions), [c.start for c in conditions], horizon

    assert wave_roles(1) == wave_roles(2)
    failed = sum(wave_roles(1).values())
    assert failed == pytest.approx(len(topo.devices) * floods.WAVE_FRACTION, abs=6)
    lengths, starts, horizon = storm_shape(1)
    assert storm_shape(2) == (pytest.approx(lengths), starts, horizon)


def test_plan_heartbeats_never_pass_a_source_or_regress(tiny):
    flood = floods.generate(tiny, "wave", 5)
    split = floods.substreams(flood.raws)
    query_count = len(flood.raws) // 10
    plan = serve.build_plan(split, ("stats", "active"), query_count)
    remaining = {tool: [raw.timestamp for raw in stream] for tool, stream in split.items()}
    last = {tool: float("-inf") for tool in SOURCE_PRIORITY}
    closed = set()
    submits = queries = 0
    for kind, arg in plan:
        if kind == serve.SUBMIT:
            assert arg.tool not in closed and arg.timestamp >= last[arg.tool]
            assert remaining[arg.tool].pop(0) == arg.timestamp
            last[arg.tool] = arg.timestamp
            submits += 1
        elif kind == serve.ADVANCE:
            tool, stamp = arg
            assert tool not in closed and stamp >= last[tool]
            if remaining[tool]:
                assert stamp <= remaining[tool][0]
            last[tool] = stamp
        elif kind == serve.EOF:
            closed.add(arg)
        elif kind == serve.QUERY:
            queries += 1
    assert plan[-1] == (serve.FINISH, None)
    assert closed == set(SOURCE_PRIORITY)
    assert submits == len(flood.raws)
    assert queries == submits // (submits // query_count) >= query_count
    assert all(not stamps for stamps in remaining.values())


def test_offline_reference_is_repeatable(tiny):
    flood = floods.generate(tiny, "storm", 5)
    ordered = floods.merge(floods.substreams(flood.raws))
    assert floods.offline_reference(tiny, ordered) == floods.offline_reference(tiny, ordered)


# -- BENCHMARK.json ----------------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "e2ebench/run.py"]
    assert doc["paths"] == ["e2ebench"]
    assert [w["name"] for w in doc["workloads"]] == list(serve.WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [w["name"] for w in doc["workloads"]] + list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [u for u, _ in run.END_TO_END.values()] + [u for u, _ in run.PER_LAYER.values()]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert 1 <= doc["run_seconds"] <= 60
