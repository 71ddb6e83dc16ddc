"""Seeded severe floods and their offline reference for the served-path bench.

Two input families, both on a topology the caller builds (the benchmark
uses ``TopologySpec.benchmark()``, the tests ``TopologySpec.tiny()``):

* ``wave`` -- a fifth of the devices of every role fail inside one
  minute and stay down.  Ping repeats dominate the raw volume, so this is the case
  where the per-raw-alert layers (codec, sequencer, admission,
  preprocess) carry the cost.
* ``storm`` -- clusters in different sites lose all their switches and
  recover, one after another over five minutes, followed by a quiet tail longer than
  the incident idle timeout, so incidents close and tree nodes expire while the stream is
  still being served.

Generation is bounded by simulated horizon, never by alert count: an
alert-count cap on an open-ended ``AlertStream.run`` spends most of its
time polling a quiet tail.  The program only ever sees the generated raw
alerts; the simulated network state is not handed to the service.
"""

from __future__ import annotations

import dataclasses
import heapq
import pathlib
import pickle
import random
from typing import Dict, List, Sequence, Tuple

from repro.core.config import PRODUCTION_CONFIG, SkyNetConfig
from repro.gateway import SOURCE_PRIORITY
from repro.monitors import build_monitors
from repro.monitors.base import RawAlert
from repro.monitors.stream import AlertStream
from repro.runtime.checkpoint import set_incident_counter
from repro.runtime.service import RuntimeService
from repro.simulation.conditions import Condition, ConditionKind
from repro.simulation.state import NetworkState
from repro.topology.network import DeviceRole, Topology

KINDS = ("wave", "storm")

# Both floods keep their shape fixed and let the seed choose only where
# the failures land (and the monitors' own randomness): the wave fails the
# same number of devices of every role, the storm runs the same schedule
# of cluster outages, so a flood's volume and incident structure -- and
# with them its cost -- do not swing from seed to seed.  With a uniform
# draw over all devices a storm opened 1 to 9 incidents and its offline
# replay took 0.4 to 1.0 s depending on the seed.

#: wave: failures start inside [WAVE_START_S, WAVE_START_S + WAVE_SPREAD_S)
WAVE_START_S = 10.0
WAVE_SPREAD_S = 50.0
#: share of the devices of every role that fail
WAVE_FRACTION = 0.2
WAVE_HORIZON_S = 80.0

#: storm: one cluster outage starts every STORM_EVERY_S seconds,
#: STORM_OUTAGES of them, each in a different site, so outages stay local
#: and each opens (and later closes) an incident of its own.  All switches
#: of the cluster fail together, so an outage cuts every probe path of the
#: cluster whichever of its servers the monitors probe from (one switch's
#: share of the ping mesh ranges from none to many paths, which made the
#: raw volume of a single-switch storm swing by +-25% with the seed)
STORM_START_S = 30.0
STORM_EVERY_S = 20.0
STORM_OUTAGES = 15
#: outage lengths, spread evenly over this range and dealt out by the seed
STORM_OUTAGE_S = (60.0, 180.0)
#: quiet tail past the last recovery: the incident idle timeout plus a
#: margin, so every incident closes while the stream is still served
STORM_TAIL_MARGIN_S = 60.0


@dataclasses.dataclass(frozen=True)
class Flood:
    """One generated input: raw alerts in delivery order, plus its span."""

    kind: str
    seed: int
    raws: Tuple[RawAlert, ...]
    sim_span_s: float


@dataclasses.dataclass(frozen=True)
class Reference:
    """What an offline replay of the flood produces (the identity gate)."""

    pairs: Tuple[Tuple[str, str], ...]  # (incident_id, render), ranked
    counts: Dict[str, int]


def _down(name: str, start: float, end: float) -> Condition:
    return Condition(kind=ConditionKind.DEVICE_DOWN, target=name, start=start, end=end)


def _wave(topo: Topology, rng: random.Random) -> Tuple[List[Condition], float]:
    by_role: Dict[DeviceRole, List[str]] = {}
    for name in sorted(topo.devices):
        by_role.setdefault(topo.devices[name].role, []).append(name)
    conditions = []
    for role in sorted(by_role, key=lambda r: r.value):
        names = by_role[role]
        for name in rng.sample(names, max(1, round(len(names) * WAVE_FRACTION))):
            start = WAVE_START_S + rng.uniform(0.0, WAVE_SPREAD_S)
            conditions.append(_down(name, start, start + 86_400.0))
    return conditions, WAVE_HORIZON_S


def _storm(
    topo: Topology, rng: random.Random, config: SkyNetConfig
) -> Tuple[List[Condition], float]:
    sites: Dict[str, Dict[str, List[str]]] = {}  # site -> cluster -> its switches
    for name in sorted(topo.devices):
        device = topo.devices[name]
        if device.role is DeviceRole.CLUSTER_SWITCH:
            cluster = device.location.parent
            sites.setdefault(str(cluster.parent), {}).setdefault(str(cluster), []).append(name)
    chosen = rng.sample(sorted(sites), min(STORM_OUTAGES, len(sites)))
    low, high = STORM_OUTAGE_S
    lengths = [low + (high - low) * i / max(1, len(chosen) - 1) for i in range(len(chosen))]
    rng.shuffle(lengths)
    conditions = []
    for index, (site, length) in enumerate(zip(chosen, lengths)):
        # the cluster's place in its site is fixed per slot, so every seed
        # fails the same mix of first, second, ... clusters
        clusters = sorted(sites[site])
        start = STORM_START_S + index * STORM_EVERY_S
        for name in sites[site][clusters[index % len(clusters)]]:
            conditions.append(_down(name, start, start + length))
    latest_recovery = STORM_START_S + (len(chosen) - 1) * STORM_EVERY_S + high
    horizon = latest_recovery + config.incident_timeout_s + STORM_TAIL_MARGIN_S
    return conditions, horizon


def generate(
    topo: Topology, kind: str, seed: int, config: SkyNetConfig = PRODUCTION_CONFIG
) -> Flood:
    """Simulate one flood; the same (topology, kind, seed) gives the same alerts."""
    rng = random.Random(f"e2ebench:{kind}:{seed}")
    if kind == "wave":
        conditions, horizon = _wave(topo, rng)
    elif kind == "storm":
        conditions, horizon = _storm(topo, rng, config)
    else:
        raise ValueError(f"unknown flood kind {kind!r} (want one of {KINDS})")
    state = NetworkState(topo)
    for condition in conditions:
        state.add_condition(condition)
    stream = AlertStream(state, build_monitors(state, seed=seed))
    return Flood(kind=kind, seed=seed, raws=tuple(stream.run(horizon)), sim_span_s=horizon)


#: alerts per pickled chunk of a saved flood
SAVE_CHUNK = 256


def save(flood: Flood, path: pathlib.Path) -> None:
    """Write a flood as a header plus small pickled chunks (see :func:`load`)."""
    with open(path, "wb") as fh:
        chunks = range(0, len(flood.raws), SAVE_CHUNK)
        pickle.dump((flood.kind, flood.seed, flood.sim_span_s, len(chunks)), fh)
        for start in chunks:
            pickle.dump(
                flood.raws[start : start + SAVE_CHUNK], fh, protocol=pickle.HIGHEST_PROTOCOL
            )


def load(path: pathlib.Path) -> Flood:
    """Read a flood back one chunk at a time.

    Each chunk's unpickling temporaries are freed before the next chunk is
    read, so loading leaves almost no freed-but-resident heap behind for a
    later resident-memory baseline to hide allocations in.
    """
    raws: List[RawAlert] = []
    with open(path, "rb") as fh:
        kind, seed, sim_span_s, chunks = pickle.load(fh)
        for _ in range(chunks):
            raws.extend(pickle.load(fh))
    return Flood(kind=kind, seed=seed, raws=tuple(raws), sim_span_s=sim_span_s)


def substreams(raws: Sequence[RawAlert]) -> Dict[str, List[RawAlert]]:
    """Split a delivery-ordered flood into per-source substreams.

    A live monitor submits in its own observation-clock order, so each
    substream is stably sorted by ``timestamp`` (delivery jitter can
    reorder one tool's alerts in the collector's global stream).
    """
    split: Dict[str, List[RawAlert]] = {}
    for raw in raws:
        split.setdefault(raw.tool, []).append(raw)
    for substream in split.values():
        substream.sort(key=lambda r: r.timestamp)
    return split


def merge(split: Dict[str, List[RawAlert]]) -> List[RawAlert]:
    """The gateway's total order ``(timestamp, source priority, seq)``."""
    return list(
        heapq.merge(
            *(split[tool] for tool in sorted(split)),
            key=lambda r: (r.timestamp, SOURCE_PRIORITY[r.tool]),
        )
    )


def counts_from_metrics(metrics: Dict[str, object]) -> Dict[str, int]:
    """The run-invariant counts the identity gate pins, from a metrics dict."""
    counters = metrics["counters"]
    if not isinstance(counters, dict):
        raise ValueError("metrics dict has no counters map")
    return {
        "raw": int(counters.get("runtime_raw_alerts_total", 0)),
        "structured": int(counters.get("runtime_structured_alerts_total", 0)),
        "sweeps": int(counters.get("runtime_sweeps_total", 0)),
        "opened": int(counters.get("runtime_incidents_opened_total", 0)),
        "closed": int(counters.get("runtime_incidents_closed_total", 0)),
        "expired": int(counters.get("runtime_records_expired_total", 0)),
    }


def offline_reference(
    topo: Topology, ordered: Sequence[RawAlert], config: SkyNetConfig = PRODUCTION_CONFIG
) -> Reference:
    """Replay the gateway's total order through a bare ``RuntimeService``."""
    set_incident_counter(1)
    runtime = RuntimeService(topo, config=config)
    for raw in ordered:
        runtime.ingest(raw)
    runtime.pipeline.finish()
    pairs = tuple((r.incident.incident_id, r.render()) for r in runtime.reports())
    counts = counts_from_metrics(runtime.metrics.as_dict())
    counts["incidents"] = len(pairs)
    return Reference(pairs=pairs, counts=counts)
