"""Span wrappers around the live layer objects of one served stack.

Everything here wraps *public* methods on the objects a running
``GatewayService`` already holds, by replacing the instance attribute;
no program code changes and no class is patched.  Wrappers must be
installed before the transport is built, because ``LoopbackTransport``
and ``GatewaySocketServer`` capture ``service.handle`` when constructed.

Span names, by layer (the module each wraps):

==================  ====================================================
``gateway.*``       ``GatewayService.handle`` and the incident tap
``query.<op>``      ``GatewayService.reports/history/active/health/stats``
``sequencer.*``     ``DeterministicSequencer.submit/advance/eof/flush``
``runtime.*``       ``RuntimeService.ingest`` and ``checkpoint``
``admission.*``     ``AdmissionController.decide/apply/count_shed``
``metrics.*``       ``RuntimeObserver`` hooks, ``RuntimeService._update_gauges``
``journal.*``       ``AlertJournal.append/sync``
``checkpoint.save`` ``CheckpointStore.save``
``pipeline.*``      ``SkyNet.feed/sweep/reports``
``preprocess.feed`` ``Preprocessor.feed``; ``classify``: the syslog
                    ``TemplateClassifier.classify``
``locate.*``        ``Locator.feed/sweep/flush`` (the sharded locator)
``evaluate*``       ``Evaluator.evaluate/rank``
``zoom.*``          ``LocationZoomIn.observe/refine``
==================  ====================================================
"""

from __future__ import annotations

import array
import time
from typing import Any, Dict, List

from repro.gateway import GatewayService

from tracer import Tracer, TraceSummary, percentile

QUERY_OPS = ("reports", "history", "active", "health", "stats")

#: spans whose individual durations the summary keeps (percentiles)
KEEP_DURATIONS = (
    "pipeline.sweep",
    "locate.sweep",
) + tuple(f"query.{op}" for op in QUERY_OPS)

#: requests containing a ``query.reports`` span: the read path's cost
SCOPES = {"reports": "query.reports"}


class ServerProbe:
    """Traces one service's layers plus the figures spans cannot give."""

    def __init__(self, tracer: Tracer, service: GatewayService) -> None:
        self.tracer = tracer
        self.service = service
        self._clock = time.perf_counter_ns
        self._entered: Dict[int, int] = {}
        self.holds = array.array("q")
        self.pending_max = 0
        self.live_locations: List[int] = []
        self._install()

    def _install(self) -> None:
        tracer, service = self.tracer, self.service
        runtime = service.runtime
        pipeline = runtime.pipeline
        tracer.install(service, "handle", "gateway.handle")
        for op in QUERY_OPS:
            tracer.install(service, op, f"query.{op}")
        if runtime.tap is not None:
            tracer.install(runtime.tap, "on_sweep", "gateway.tap")

        sequencer = service.sequencer
        for op in ("advance", "eof", "flush"):
            self._sequencer_call(op)
        submit = tracer.wrap("sequencer.submit", sequencer.submit)
        entered, clock = self._entered, self._clock

        def sequencer_submit(source: str, timestamp: float, seq: int, payload: Any) -> Any:
            entered[id(payload)] = clock()
            try:
                return submit(source, timestamp, seq, payload)
            finally:
                self.pending_max = max(self.pending_max, sequencer.pending())

        sequencer.submit = sequencer_submit  # type: ignore[method-assign]

        ingest = tracer.wrap("runtime.ingest", runtime.ingest)
        holds = self.holds

        def runtime_ingest(raw: Any) -> Any:
            began = entered.pop(id(raw), None)
            if began is not None:
                holds.append(clock() - began)
            return ingest(raw)

        runtime.ingest = runtime_ingest  # type: ignore[method-assign]
        tracer.install(runtime, "checkpoint", "runtime.checkpoint")

        for op in ("decide", "apply", "count_shed"):
            tracer.install(runtime.admission, op, f"admission.{op}")
        # the registry itself rides every checkpoint pickle, so it cannot
        # carry wrappers; its per-alert cost is the observer hooks plus
        # the service's gauge refresh (the one private method wrapped)
        tracer.install(runtime, "_update_gauges", "metrics.gauges")
        for op in ("on_raw", "on_sweep"):
            tracer.install(runtime.observer, op, "metrics.observer")
        if runtime.journal is not None:
            tracer.install(runtime.journal, "append", "journal.append")
            tracer.install(runtime.journal, "sync", "journal.sync")
        if runtime.checkpoints is not None:
            tracer.install(runtime.checkpoints, "save", "checkpoint.save")

        for op in ("feed", "sweep", "reports"):
            tracer.install(pipeline, op, f"pipeline.{op}")
        tracer.install(pipeline.preprocessor, "feed", "preprocess.feed")
        tracer.install(pipeline.preprocessor.classifier, "classify", "classify")
        locator = pipeline.locator
        tracer.install(locator, "feed", "locate.feed")
        tracer.install(locator, "flush", "locate.flush")
        sweep = tracer.wrap("locate.sweep", locator.sweep)
        live = self.live_locations

        def locate_sweep(now: float) -> Any:
            result = sweep(now)
            live.append(len(locator.main_tree))
            return result

        locator.sweep = locate_sweep  # type: ignore[method-assign]
        tracer.install(pipeline.evaluator, "evaluate", "evaluate")
        tracer.install(pipeline.evaluator, "rank", "evaluate.rank")
        tracer.install(pipeline.zoom, "observe", "zoom.observe")
        tracer.install(pipeline.zoom, "refine", "zoom.refine")

    def _sequencer_call(self, op: str) -> None:
        sequencer = self.service.sequencer
        call = self.tracer.wrap(f"sequencer.{op}", getattr(sequencer, op))

        def traced(*args: Any) -> Any:
            try:
                return call(*args)
            finally:
                self.pending_max = max(self.pending_max, sequencer.pending())

        setattr(sequencer, op, traced)

    def summary(self) -> TraceSummary:
        summary = self.tracer.summary(keep_durations=KEEP_DURATIONS, scopes=SCOPES)
        holds = list(self.holds)
        live = self.live_locations
        summary.extra.update(
            {
                "sequencer.hold_us_p50": percentile(holds, 50) / 1e3,
                "sequencer.hold_us_p99": percentile(holds, 99) / 1e3,
                "sequencer.pending_max": float(self.pending_max),
                "locate.live_locations_mean": sum(live) / len(live) if live else 0.0,
            }
        )
        return summary
