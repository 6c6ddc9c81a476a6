"""Outside-in tracing for the benchmark's traced run.

`Tracer.install()` wraps the public functions of every paneldid layer. A
wrapper replaces the name in every paneldid module that holds it (and in
module-level dispatch tables), so calls from one layer into another are
caught too: `wls_fit` inside `staggered` and `simulate`, `demean_two_way`
inside `engine`, `balance_report` inside `bacon`. Spans stay in memory and
are written once, when the run ends.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
Self time is a span's duration minus the durations of its direct children
that ran on the same thread.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    workload: str
    pass_index: int
    thread: int
    end: float = float("nan")
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "workload": self.workload, "pass": self.pass_index,
            "thread": self.thread, "failed": self.failed, "counts": self.counts,
        }


# Counters read from a traced call's arguments and result.
def _rows(result) -> dict:
    return {"rows": result.n_obs}


def _columns(result) -> dict:
    return {"columns": result.x.shape[1]}


def _wls_counts(args, kwargs, result) -> dict:
    design = args[0] if args else kwargs["design"]
    return {"cells": design.x.size, "dropped": len(result.dropped_collinear)}


def _cs_counts(result) -> dict:
    boot = result.boot
    if boot is None:
        return {"draws": 0}
    return {
        "draws": result.bootstrap_draws,
        "boot_cells": int(boot.size),
        "boot_finite": int(np.isfinite(boot).sum()),
    }


def _race_counts(result) -> dict:
    return {"failed_cells": sum(row.n_failed for row in result.rows())}


def _on_result(count: Callable) -> Callable:
    return lambda args, kwargs, result: count(result)


# (span name, module, attribute, counter). A dotted attribute names a method
# or property on a class in that module.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("panel.ingest_panel", "panel", "ingest_panel", _on_result(_rows)),
    ("panel.serialize_panel", "panel", "serialize_panel", None),
    ("panel.log_outcome", "panel", "log_outcome", None),
    ("panel.balance_report", "panel", "balance_report", None),
    ("panel.drop_covariates", "panel", "PanelDataset.drop_covariates", None),
    ("panel.arrays", "panel", "PanelDataset.arrays", None),
    ("bite.read_csv", "bite", "WageMicrodata.read_csv",
     _on_result(lambda r: {"rows": len(r.records)})),
    ("bite.read_csv", "bite", "TreatmentDesign.read_csv",
     _on_result(lambda r: {"rows": len(r.regions)})),
    ("bite.wage_gap", "bite", "wage_gap", None),
    ("bite.build_treatment_design", "bite", "build_treatment_design", None),
    ("designs.build_design", "designs", "build_design", _on_result(_columns)),
    ("designs.build_staggered_twfe", "designs", "build_staggered_twfe",
     _on_result(_columns)),
    ("designs.expand_covariates", "designs", "expand_covariates",
     _on_result(lambda r: {"columns": r[1].shape[1]})),
    ("engine.wls_fit", "engine", "wls_fit", _wls_counts),
    ("engine.demean_two_way", "engine", "demean_two_way", None),
    ("engine.cluster_vcov", "engine", "cluster_vcov", None),
    ("staggered.cs_att", "staggered", "cs_att", _on_result(_cs_counts)),
    ("staggered.cs_aggregate", "staggered", "cs_aggregate", None),
    ("staggered.sa_event_study", "staggered", "sa_event_study", None),
    ("staggered.impute_att", "staggered", "impute_att",
     _on_result(lambda r: {"draws": r.bootstrap_draws})),
    ("bacon.bacon_decompose", "bacon", "bacon_decompose",
     _on_result(lambda r: {"components": len(r)})),
    ("simulate.generate", "simulate", "generate", _on_result(lambda r: _rows(r[0]))),
    ("simulate.race", "simulate", "estimator_race", _on_result(_race_counts)),
    ("cli.simulate", "cli", "cmd_simulate", None),
    ("cli.estimate", "cli", "cmd_estimate", None),
    ("cli.bite", "cli", "cmd_bite", None),
    ("cli.race", "cli", "cmd_race", None),
)


class Tracer:
    """Records spans: its own via `open`/`close`, the program's while installed."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.pass_index = -1
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._restore: list[Callable[[], None]] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # A worker thread's first span belongs to whatever the main thread
        # was running when it started the pool.
        outer = stack or self._main_stack
        with self._lock:
            span = Span(
                id=len(self.spans), name=name, start=time.perf_counter(),
                parent=outer[-1].id if outer else None, workload=self.workload,
                pass_index=self.pass_index, thread=threading.get_ident(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span, failed: bool = False, counts: dict | None = None) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        if counts:
            span.counts.update(counts)
        self._stack().pop()

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, failed=True)
                raise
            self.close(span)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        return traced

    # -- installing wrappers -----------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "paneldid" or n.startswith("paneldid."))]
        for name, module_name, attr, count in TARGETS:
            module = sys.modules[f"paneldid.{module_name}"]
            if "." in attr:
                cls_name, member = attr.split(".")
                self._wrap_member(getattr(module, cls_name), member, name, count)
            else:
                original = getattr(module, attr)
                self._replace_everywhere(modules, original, self._wrap(name, original, count))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._restore.append(functools.partial(namespace.__setitem__, key, value))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._restore.append(functools.partial(value.__setitem__, k, v))

    def _wrap_member(self, cls, member: str, name: str, count) -> None:
        raw = cls.__dict__[member]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, count))
        elif isinstance(raw, functools.cached_property):
            new = functools.cached_property(self._wrap(name, raw.func, count))
            new.__set_name__(cls, member)
        else:
            new = self._wrap(name, raw, count)
        setattr(cls, member, new)
        self._restore.append(functools.partial(setattr, cls, member, raw))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(span.to_json()) + "\n")


# -- per-layer metrics --------------------------------------------------------


def _total(name: str):
    return lambda v: sum(s.duration for s in v.named(name))


def _self(name: str):
    return lambda v: sum(v.self_time(s) for s in v.named(name))


def _count(name: str, key: str):
    return lambda v: sum(s.counts.get(key, 0) for s in v.named(name))


def _calls(name: str):
    return lambda v: len(v.named(name))


def _failed(name: str):
    return lambda v: sum(1 for s in v.named(name) if s.failed)


def _design_columns(v: "PassView") -> int:
    # Count each design once: builders call each other and expand_covariates.
    return sum(
        s.counts.get("columns", 0) for s in v.spans
        if s.name.startswith("designs.")
        and not v.parent_name(s).startswith("designs.")
    )


def _finite_draw_ratio(v: "PassView") -> float:
    cells = _count("staggered.cs_att", "boot_cells")(v)
    return _count("staggered.cs_att", "boot_finite")(v) / cells if cells else 0.0


def _unspanned_ratio(v: "PassView") -> float:
    root = v.root
    covered = sum(s.duration for s in v.children(root))
    return (root.duration - covered) / root.duration


# (metric, unit, value from one traced pass). A layer that does not run in a
# workload reports 0 for its metrics there.
LAYER_METRICS: tuple[tuple[str, str, Callable], ...] = (
    ("panel.ingest_panel.s", "s", _total("panel.ingest_panel")),
    ("panel.ingest_panel.rows", "count", _count("panel.ingest_panel", "rows")),
    ("panel.serialize_panel.s", "s", _total("panel.serialize_panel")),
    ("panel.log_outcome.s", "s", _total("panel.log_outcome")),
    ("panel.arrays.s", "s", _total("panel.arrays")),
    ("panel.drop_covariates.s", "s", _total("panel.drop_covariates")),
    ("panel.balance_report.s", "s", _total("panel.balance_report")),
    ("bite.read_csv.s", "s", _total("bite.read_csv")),
    ("bite.read_csv.rows", "count", _count("bite.read_csv", "rows")),
    ("bite.wage_gap.s", "s", _total("bite.wage_gap")),
    ("bite.build_treatment_design.s", "s", _total("bite.build_treatment_design")),
    ("designs.build_design.s", "s", _total("designs.build_design")),
    ("designs.build_staggered_twfe.s", "s", _total("designs.build_staggered_twfe")),
    ("designs.expand_covariates.s", "s", _total("designs.expand_covariates")),
    ("designs.columns", "count", _design_columns),
    ("engine.wls_fit.calls", "count", _calls("engine.wls_fit")),
    ("engine.wls_fit.self_s", "s", _self("engine.wls_fit")),
    ("engine.demean_two_way.s", "s", _total("engine.demean_two_way")),
    ("engine.cluster_vcov.s", "s", _total("engine.cluster_vcov")),
    ("engine.design_cells", "count", _count("engine.wls_fit", "cells")),
    ("engine.columns_dropped", "count", _count("engine.wls_fit", "dropped")),
    ("engine.wls_fit.failed", "count", _failed("engine.wls_fit")),
    ("staggered.sa_event_study.self_s", "s", _self("staggered.sa_event_study")),
    ("staggered.cs_att.self_s", "s", _self("staggered.cs_att")),
    ("staggered.impute_att.self_s", "s", _self("staggered.impute_att")),
    ("staggered.cs_aggregate.s", "s", _total("staggered.cs_aggregate")),
    ("staggered.bootstrap_draws", "count",
     lambda v: _count("staggered.cs_att", "draws")(v)
     + _count("staggered.impute_att", "draws")(v)),
    ("staggered.cs_att.finite_draw_ratio", "ratio", _finite_draw_ratio),
    ("bacon.bacon_decompose.self_s", "s", _self("bacon.bacon_decompose")),
    ("bacon.components", "count", _count("bacon.bacon_decompose", "components")),
    ("simulate.generate.s", "s", _total("simulate.generate")),
    ("simulate.generate.rows", "count", _count("simulate.generate", "rows")),
    ("simulate.race.failed_cells", "count", _count("simulate.race", "failed_cells")),
    ("cli.simulate.self_s", "s", _self("cli.simulate")),
    ("cli.estimate.self_s", "s", _self("cli.estimate")),
    ("cli.bite.self_s", "s", _self("cli.bite")),
    ("cli.race.self_s", "s", _self("cli.race")),
    ("cli.bytes_written", "bytes", lambda v: sum(s.counts.get("bytes_written", 0)
                                                 for s in v.children(v.root))),
    ("trace.unspanned_ratio", "ratio", _unspanned_ratio),
)

# Measured by the runner rather than read from one pass's spans.
RUN_METRICS: tuple[tuple[str, str], ...] = (
    ("simulate.race.scaling_efficiency", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


class PassView:
    """The spans of one traced pass, indexed for the metric functions."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.root = next(s for s in spans if s.parent not in self.by_id)
        self._children: dict[int, list[Span]] = {}
        self._named: dict[str, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self._children.setdefault(s.parent, []).append(s)
            self._named.setdefault(s.name, []).append(s)

    def named(self, name: str) -> list[Span]:
        return self._named.get(name, [])

    def children(self, span: Span) -> list[Span]:
        return self._children.get(span.id, [])

    def parent_name(self, span: Span) -> str:
        parent = self.by_id.get(span.parent)
        return parent.name if parent is not None else ""

    def self_time(self, span: Span) -> float:
        return span.duration - sum(
            c.duration for c in self.children(span) if c.thread == span.thread
        )


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    view = PassView(spans)
    return {name: float(fn(view)) for name, _, fn in LAYER_METRICS}
