"""In-memory span tracer for the served-path benchmark.

Spans are recorded by wrapping the public methods of live layer objects
(see ``layers.py``): the wrapper notes name, start, end, parent span and
request id into flat arrays, so a flood-sized run keeps tens of bytes per
span rather than an object each.  Nothing is written until the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  The bookkeeping a wrapper does outside its own clock reads
(the call itself, the array appends) lands in the parent's self time;
``trace.overhead_frac`` in the benchmark output reports the total cost.

With tracing off the benchmark never constructs a :class:`Tracer`, so no
wrapper is installed anywhere.
"""

from __future__ import annotations

import array
import gzip
import pathlib
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional

if TYPE_CHECKING:
    import numpy as np

Clock = Callable[[], int]


class Tracer:
    """Records nested spans; one request id per root span."""

    def __init__(self, clock: Clock = time.perf_counter_ns) -> None:
        self._clock = clock
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array.array("H")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.request = array.array("q")
        self._stack: List[int] = []
        self._requests = 0

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return ident

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so every call records one span called ``name``."""
        ident = self._intern(name)
        clock = self._clock
        stack = self._stack
        names, starts, ends = self.name_id, self.start, self.end
        parents, requests = self.parent, self.request

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            if stack:
                parents.append(stack[-1])
            else:
                parents.append(-1)
                self._requests += 1
            names.append(ident)
            requests.append(self._requests)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                finish = clock()
                stack.pop()
                starts[index] = begin
                ends[index] = finish

        return traced

    def install(self, obj: object, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (a bound method) with its traced wrapper."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def add(self, name: str, start: int, end: int, parent: int = -1, request: int = 0) -> int:
        """Append one finished span directly (tests and synthetic traces)."""
        self.name_id.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.request.append(request)
        return len(self.start) - 1

    # -- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def names(self) -> List[str]:
        return list(self._names)

    def durations(self) -> "np.ndarray":
        import numpy as np  # only a traced (forked) repetition pays the import

        return np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )

    def self_times(self) -> "np.ndarray":
        """Per-span duration minus the summed durations of its children."""
        import numpy as np

        duration = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        return duration - children

    def summary(
        self,
        keep_durations: Iterable[str] = (),
        scopes: Optional[Dict[str, str]] = None,
    ) -> "TraceSummary":
        """Per-name call counts and inclusive/self totals.

        ``keep_durations`` names the spans whose individual durations are
        kept (for percentiles).  ``scopes`` maps a label to a span name;
        for each, the inclusive totals per name are also summed over just
        the requests that contain such a span (e.g. every span serving a
        ``reports`` query).
        """
        import numpy as np

        duration = self.durations()
        self_time = self.self_times()
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        requests = np.frombuffer(self.request, dtype=np.int64)
        keep = set(keep_durations)
        masks = {name: ids == ident for ident, name in enumerate(self._names)}
        spans: Dict[str, Dict[str, Any]] = {}
        for name, mask in masks.items():
            entry: Dict[str, Any] = {
                "count": int(mask.sum()),
                "total_ns": int(duration[mask].sum()),
                "self_ns": int(self_time[mask].sum()),
            }
            if name in keep:
                entry["durations_ns"] = duration[mask].tolist()
            spans[name] = entry
        scoped: Dict[str, Dict[str, int]] = {}
        for label, marker in (scopes or {}).items():
            if marker not in masks:
                continue
            inside = np.isin(requests, requests[masks[marker]])
            scoped[label] = {
                name: int(duration[mask & inside].sum())
                for name, mask in masks.items()
            }
        return TraceSummary(
            spans=spans, root_ns=int(duration[parent < 0].sum()), scoped=scoped
        )

    def dump(self, path: pathlib.Path) -> None:
        """Write every span as tab-separated text (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for index, (ident, begin, finish, parent, request) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent, self.request)
            ):
                out.write(
                    f"{index}\t{self._names[ident]}\t{begin}\t{finish}\t{parent}\t{request}\n"
                )


class TraceSummary:
    """Aggregates of one process's trace, small enough to return from a repetition."""

    def __init__(
        self,
        spans: Dict[str, Dict[str, Any]],
        root_ns: int,
        scoped: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> None:
        self.spans = spans
        #: summed duration of root spans (what the trace accounts for)
        self.root_ns = root_ns
        #: label -> span name -> inclusive ns within that label's requests
        self.scoped = scoped or {}
        #: derived figures the layer hooks add (holds, gauges sampled live)
        self.extra: Dict[str, float] = {}

    def count(self, *names: str) -> int:
        return sum(self.spans.get(name, {}).get("count", 0) for name in names)

    def total_ns(self, *names: str) -> int:
        return sum(self.spans.get(name, {}).get("total_ns", 0) for name in names)

    def self_ns(self, *names: str) -> int:
        return sum(self.spans.get(name, {}).get("self_ns", 0) for name in names)

    def scoped_ns(self, label: str, *names: str) -> int:
        inside = self.scoped.get(label, {})
        return sum(inside.get(name, 0) for name in names)

    def durations_ns(self, *names: str) -> List[int]:
        out: List[int] = []
        for name in names:
            out.extend(self.spans.get(name, {}).get("durations_ns", []))
        return out


def per(total: float, count: float) -> float:
    """``total / count``, or 0 when nothing was counted."""
    return total / count if count else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile; 0 for an empty sample."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = (len(data) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)
