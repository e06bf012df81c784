"""Outside-in span recorder for the program's modules.

The recorder wraps public functions of the `inclined` package from outside:
every attribute of every loaded `inclined` module that binds one of the
functions in WRAPPED is replaced by one recording wrapper, and restored by
`uninstall`.  Nothing under src/ is edited.  Hot helpers called once per
vector or per entry (as_vector, vector_to_obj inside vectors_to_obj,
blocks_matrix inside apply_axis) stay unwrapped.

A span has a name, a layer, start and end times, its parent span and the
run id of the command that caused it.  Spans stay in memory; the caller
writes them out when it ends.  A span's self time is its duration minus the
time its child spans cover, so the self times of one command's spans add up
to the command's traced wall time.

Private steps of the family build (level masses, block extraction) cannot be
wrapped; they are timed by probes, which call the public equivalents on the
same inputs right after the wrapped call returns.  Probe spans are labelled
as probes; spans under a probe go to the "probe.other" bucket, so they never
count as the program's own work.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

CLI_LAYER = "cli.other"
PROBE_OTHER = "probe.other"


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    run_id: str
    parent: int | None
    probe: bool
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "layer": self.layer, "run_id": self.run_id,
                "parent": self.parent, "probe": self.probe, "start": self.start,
                "end": self.end, "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.run_id = ""

    # ------------------------------------------------------------ spans

    def open(self, name: str, layer: str, probe: bool = False) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, self.run_id,
                    None if parent is None else parent.sid,
                    probe or (parent is not None and parent.probe))
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    # --------------------------------------------------------- wrapping

    def wrap(self, name: str, fn, layer, count=None, after=None):
        """A function that records a span around each call of fn."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer(args) if callable(layer) else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.counts.update(count(args, result))
            if after is not None and not span.probe:
                after(tracer, args, kwargs)
            return result

        return wrapper

    def patch(self, owner, attr: str, value) -> None:
        """Set owner.attr to value until uninstall."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, wrapped: list[dict]) -> None:
        """Wrap each entry's function at every module attribute binding it
        (or only in the named modules), one wrapper per function."""
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "inclined" or n.startswith("inclined."))}
        for entry in wrapped:
            home = modules[entry["home"]]
            fn = getattr(home, entry["name"])
            wrapper = self.wrap(f"{entry['home'].split('.')[-1]}.{entry['name']}", fn,
                                entry["layer"], entry.get("count"), entry.get("after"))
            owners = [modules[n] for n in entry["only"]] if "only" in entry else modules.values()
            for module in owners:
                if getattr(module, entry["name"], None) is fn:
                    self.patch(module, entry["name"], wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------ aggregation

    def buckets(self, root: Span) -> tuple[dict[str, float], dict[str, float]]:
        """Self time per layer and summed counts for the spans under root."""
        members = {root.sid}
        times: dict[str, float] = {}
        counts: dict[str, float] = {}
        child_time: dict[int, float] = {}
        for span in self.spans[root.sid + 1:]:
            if span.parent not in members:
                continue
            members.add(span.sid)
            child_time[span.parent] = child_time.get(span.parent, 0.0) + (span.end - span.start)
        for sid in members:
            span = self.spans[sid]
            self_time = span.end - span.start - child_time.get(sid, 0.0)
            parent_probe = span.parent is not None and self.spans[span.parent].probe
            layer = PROBE_OTHER if parent_probe else span.layer
            times[layer] = times.get(layer, 0.0) + self_time
            for key, value in span.counts.items():
                counts[key] = counts.get(key, 0) + value
        return times, counts


class ModuleProxy:
    """Stands in for a module attribute such as `inclined.cli.json`, with some
    functions replaced and every other attribute passed through."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)
