"""Spans around the calls into wavedg's modules, kept in memory.

A traced run replaces public functions of the `wavedg` modules by wrappers
that record one span per call: its name, start, end, the span it was called
from and the operation it belongs to.  The wrappers live here, in the
benchmark; the program itself is not changed.  `layer_metrics` turns the
spans into the per-layer figures named in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; `install` patches wavedg, `restore` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, attrs=None):
        """fn wrapped to record a span; attrs(args, kwargs, result) adds fields.

        A span's op is the id of the outermost span it runs under, so the
        spans of one operation share it.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._open[-1] if self._open else None
            op = self.spans[parent].op if parent is not None else sid
            span = Span(sid, parent, op, name, time.perf_counter())
            self.spans.append(span)
            self._open.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, out))
            return out
        return traced

    def patch_everywhere(self, fn, name, attrs=None) -> None:
        """Replace fn by one traced wrapper in every wavedg module naming it.

        Modules that imported fn by name hold their own reference, so each
        one is patched.
        """
        wrapper = self.wrap(name, fn, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wavedg" or mod_name.startswith("wavedg.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def patch_classmethod(self, cls, attr, name) -> None:
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, classmethod(self.wrap(name, orig.__func__)))

    def install(self) -> None:
        """Trace the layer boundaries of wavedg listed in the README."""
        from wavedg import basis, cli, diagnostics, field, reference, scheme1d, scheme2d, timeint

        def csv_attrs(args, kwargs, _out):
            path = args[0] if args else kwargs["path"]
            columns = args[1] if len(args) > 1 else kwargs["columns"]
            rows = len(next(iter(columns.values()))) if columns else 0
            return {"rows": rows, "bytes": os.path.getsize(path)}

        def steps_attr(args, kwargs, _out):
            return {"steps": int(args[4] if len(args) > 4 else kwargs["steps"])}

        targets = [
            (scheme2d.rhs_arrays_2d, "scheme2d.rhs", None),
            (scheme2d.damping_coeffs_2d, "scheme2d.damping", None),
            (scheme1d.rhs_arrays_1d, "scheme1d.rhs", None),
            (scheme1d.damping_weights, "scheme1d.damping", None),
            (basis.gauss_rule, "basis.gauss_rule", None),
            (basis.vandermonde, "basis.vandermonde", None),
            (timeint.ssp_rk3_step, "timeint.rk_step", None),
            (timeint.integrate, "timeint.integrate", None),
            (diagnostics.energy, "diagnostics.energy", None),
            (diagnostics.compare_front_positions, "diagnostics.front_compare", None),
            (diagnostics.bin_average, "diagnostics.bin_average", None),
            (reference.ctcs_solve_1d, "reference.ctcs", steps_attr),
            (reference.ctcs_solve_2d, "reference.ctcs", steps_attr),
            (field.write_columns_csv, "field.csv", csv_attrs),
            (cli.run_compare, "cli.run", None),
            (cli.run_shock, "cli.run", None),
        ]
        for fn, name, attrs in targets:
            self.patch_everywhere(fn, name, attrs)
        self.patch_classmethod(field.DGField1D, "project", "field.project")
        self.patch_classmethod(field.DGField2D, "project", "field.project")

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.sid, []), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.sid] = span.duration - covered
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span], subnormal_coeffs: int) -> dict:
    """Per-layer figures as {name: (value, unit)}; the run adds trace.overhead_s."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durs(name):
        return [s.duration for s in by_name.get(name, [])]

    selfs = self_times(spans)

    def self_of(name):
        return [selfs[s.sid] for s in by_name.get(name, [])]

    ctcs = by_name.get("reference.ctcs", [])
    ctcs_steps = sum(s.attrs["steps"] for s in ctcs)
    ctcs_s = sum(durs("reference.ctcs"))
    csv = by_name.get("field.csv", [])
    return {
        "scheme2d.rhs_calls": (len(durs("scheme2d.rhs")), "count"),
        "scheme2d.rhs_ms": (1e3 * _median(durs("scheme2d.rhs")), "ms"),
        "scheme2d.rhs_s": (sum(durs("scheme2d.rhs")), "s"),
        "scheme2d.damping_ms": (1e3 * _median(durs("scheme2d.damping")), "ms"),
        "scheme2d.subnormal_coeffs": (subnormal_coeffs, "count"),
        "scheme1d.rhs_calls": (len(durs("scheme1d.rhs")), "count"),
        "scheme1d.rhs_us": (1e6 * _median(durs("scheme1d.rhs")), "us"),
        "scheme1d.damping_us": (1e6 * _median(durs("scheme1d.damping")), "us"),
        "basis.gauss_rule_calls": (len(durs("basis.gauss_rule")), "count"),
        "basis.vandermonde_calls": (len(durs("basis.vandermonde")), "count"),
        "timeint.steps": (len(durs("timeint.rk_step")), "count"),
        "timeint.rk_self_ms": (1e3 * _median(self_of("timeint.rk_step")), "ms"),
        "timeint.integrate_s": (sum(durs("timeint.integrate")), "s"),
        "diagnostics.energy_calls": (len(durs("diagnostics.energy")), "count"),
        "diagnostics.energy_ms": (1e3 * _median(durs("diagnostics.energy")), "ms"),
        "diagnostics.energy_s": (sum(durs("diagnostics.energy")), "s"),
        "diagnostics.front_compare_ms": (1e3 * _median(durs("diagnostics.front_compare")), "ms"),
        "diagnostics.bin_average_ms": (1e3 * _median(durs("diagnostics.bin_average")), "ms"),
        "reference.ctcs_steps": (ctcs_steps, "count"),
        "reference.ctcs_step_ms": (1e3 * ctcs_s / ctcs_steps if ctcs_steps else 0.0, "ms"),
        "reference.ctcs_s": (ctcs_s, "s"),
        "field.project_s": (sum(durs("field.project")), "s"),
        "field.csv_rows": (sum(s.attrs["rows"] for s in csv), "count"),
        "field.csv_mb": (sum(s.attrs["bytes"] for s in csv) / 1e6, "MB"),
        "field.csv_write_s": (sum(durs("field.csv")), "s"),
        "cli.self_s": (sum(self_of("cli.run")), "s"),
    }
