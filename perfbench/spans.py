"""Layer spans for the owfsim benchmark, recorded from outside the package.

Each layer's public entry points are wrapped where callers look the name up,
so the package itself is unchanged.  A span keeps (name, start, end, parent)
in memory; the hot leaf calls (plant right-hand side, energy audit,
controller step) run hundreds of thousands of times per scenario, so they are
accumulated as (calls, seconds) on the span that encloses them instead of one
span per call.  A layer's self time is its spans' durations minus the time
their child spans and leaves cover.
"""
from __future__ import annotations

import json
from contextlib import contextmanager

import owfsim.cli
import owfsim.controller
import owfsim.plant
import owfsim.record
import owfsim.scenario
import owfsim.sim

# (owner, attribute, span name, kind); kind is "span", "leaf" or "classmethod".
# owfsim.cli imports run_sim and compute_metrics by value, so those are
# patched there as well as at their definitions.
SIM_POINTS = (
    (owfsim.sim, "run", "sim.run", "span"),
    (owfsim.cli, "run_sim", "sim.run", "span"),
)
ALL_POINTS = SIM_POINTS + (
    (owfsim.plant, "derivatives", "plant.rhs", "leaf"),
    (owfsim.plant, "stored_energy", "plant.audit", "leaf"),
    (owfsim.plant, "power_flows", "plant.audit", "leaf"),
    (owfsim.controller.Controller, "step", "controller.step", "leaf"),
    (owfsim.scenario.ScenarioSpec, "from_json", "scenario.load", "classmethod"),
    (owfsim.scenario, "compute_metrics", "scenario.metrics", "span"),
    (owfsim.cli, "compute_metrics", "scenario.metrics", "span"),
    (owfsim.scenario, "detect_los", "scenario.los", "span"),
    (owfsim.record.RunRecord, "to_csv", "record.write", "span"),
    (owfsim.record.RunRecord, "from_csv", "record.read", "classmethod"),
    (owfsim.cli, "main", "cli.main", "span"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "leaves")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.leaves: dict[str, list] = {}  # leaf name -> [calls, seconds]


class Tracer:
    """Records spans for the wrapped entry points while installed."""

    def __init__(self, clock, points=SIM_POINTS):
        self.clock = clock  # durations are read on this clock
        self.points = points
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list = []

    def _span(self, name, fn):
        spans, open_, clock = self.spans, self._open, self.clock

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), open_[-1] if open_ else None)
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
        return wrapper

    def _leaf(self, name, fn):
        spans, open_, clock = self.spans, self._open, self.clock

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            acc = spans[open_[-1]].leaves.get(name)
            if acc is None:
                acc = spans[open_[-1]].leaves[name] = [0, 0.0]
            acc[0] += 1
            acc[1] += dt
            return out
        return wrapper

    @contextmanager
    def root(self, name: str):
        """Open the span of one benchmark operation; every span and leaf
        recorded inside it descends from it."""
        span = Span(name, self.clock(), None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._open.pop()

    def __enter__(self):
        wrapped = {}  # one wrapper per original, shared by every alias of it
        for owner, attr, name, kind in self.points:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            fn = raw.__func__ if kind == "classmethod" else raw
            if id(fn) not in wrapped:
                make = self._leaf if kind == "leaf" else self._span
                wrapped[id(fn)] = make(name, fn)
            new = wrapped[id(fn)]
            setattr(owner, attr, classmethod(new) if kind == "classmethod" else new)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def layer_totals(self) -> dict:
        """Per span or leaf name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict] = {}

        def add(name, calls, total, self_s):
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            acc["calls"] += calls
            acc["s"] += total
            acc["self_s"] += self_s

        for i, s in enumerate(self.spans):
            total = s.end - s.start
            leaf_s = sum(v[1] for v in s.leaves.values())
            add(s.name, 1, total, total - child_time[i] - leaf_s)
            for name, (calls, secs) in s.leaves.items():
                add(name, calls, secs, secs)
        return out

    def dump(self, path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "leaves": {k: {"calls": v[0], "s": v[1]} for k, v in s.leaves.items()}}
                for s in self.spans]
        with open(path, "w") as f:
            json.dump({"spans": rows}, f)
