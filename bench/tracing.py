"""Span tracer for the traced benchmark run.

The tracer replaces public orthospin functions with timing wrappers.  A
function is rebound in every orthospin module that holds it, because
``from .x import f`` copies the name into the consumer module at import
time: wrapping only ``partitions.transpose`` would miss the calls made
through ``branching.transpose``.  ``numpy.linalg`` routines are wrapped on
the ``numpy.linalg`` module, which is where orthospin looks them up.

Every wrapped call updates per-name aggregates (calls, total and self time).
Calls of names not marked hot are also kept as spans (name, start, end,
parent span, operation id) in memory and written out when the run ends.
Self time is a call's duration minus the time covered by its child calls.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

# (defining module, attribute, layer, hot).  The layer a call's self time is
# charged to; None means the call inherits its parent's layer (a shared
# helper).  Hot names are called thousands of times per operation, so only
# their aggregates are kept.
TARGETS = [
    ("spectra", "z_direct", "dense", False),
    ("spectra", "sum_pair_ops", "dense", False),
    ("brauer", "embed_pair", "dense", True),
    ("spectra", "sum_field_op", "dense", False),
    ("branching", "spectral_extract_branching", "dense", False),
    ("branching", "enumerate_Pn", "enumeration", False),
    ("partitions", "enumerate_lambda_rho", "enumeration", False),
    ("branching", "b_coefficient", "enumeration", True),
    ("tableaux", "cell_branching", "enumeration", True),
    ("partitions", "transpose", None, True),
    ("spectra", "z_decomposed", "line_sum", False),
    ("tableaux", "dim_sn", "line_sum", True),
    ("group_chars", "dim_o", "line_sum", True),
    ("group_chars", "char_o_field", "line_sum", True),
    ("free_energy", "classify_phase", "variational", False),
    ("free_energy", "maximize_phi", "variational", False),
    ("free_energy", "trace_curve_C", "variational", False),
    ("free_energy", "in_disordered_region", "variational", False),
]
EIGENSOLVE = "spectra.eigensolve"
NEWTON = "free_energy.newton_solve"
LAYERS = ("dense", "enumeration", "line_sum", "variational")
MAX_SPANS = 500_000


@dataclass
class _Frame:
    name: str
    layer: Optional[str]
    start: float
    span_id: int
    child_s: float = 0.0


@dataclass
class _Agg:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Collects spans and counters for one traced run."""

    spans: List[tuple] = field(default_factory=list)
    agg: Dict[str, _Agg] = field(default_factory=dict)
    layer_self_s: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    dropped_spans: int = 0
    _stack: List[_Frame] = field(default_factory=list)
    _next_id: int = 0
    _op_id: int = -1
    _active: bool = False
    _restore: List[tuple] = field(default_factory=list)

    # -- span bookkeeping -------------------------------------------------

    def push(self, name: str, layer: Optional[str]) -> _Frame:
        if layer is None and self._stack:
            layer = self._stack[-1].layer
        self._next_id += 1
        frame = _Frame(name, layer, time.perf_counter(), self._next_id)
        self._stack.append(frame)
        return frame

    def pop(self, frame: _Frame, keep_span: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        self_s = dur - frame.child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += dur
        a = self.agg.setdefault(frame.name, _Agg())
        a.calls += 1
        a.total_s += dur
        a.self_s += self_s
        key = frame.layer or "other"
        self.layer_self_s[key] = self.layer_self_s.get(key, 0.0) + self_s
        if keep_span:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((
                    frame.span_id, frame.name, frame.start, end,
                    parent.span_id if parent else None, self._op_id,
                ))
            else:
                self.dropped_spans += 1

    def caller(self) -> Optional[str]:
        """Name of the innermost open span (the caller, inside a post hook)."""
        return self._stack[-1].name if self._stack else None

    def within(self, prefix: str) -> bool:
        return any(f.name.startswith(prefix) for f in self._stack)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def op(self, op_id: int, kind: str):
        """One benchmark operation: a root span, with tracing on inside it."""
        self._op_id = op_id
        self._active = True
        frame = self.push("op." + kind, "other")
        try:
            yield
        finally:
            self.pop(frame, keep_span=True)
            self._active = False

    # -- instrumentation ----------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, layer, hot in TARGETS:
            name = f"{mod_name}.{attr}"
            original = getattr(sys.modules["orthospin." + mod_name], attr)
            wrapper = self._wrap(original, name, layer, hot)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("orthospin"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for attr in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, attr)
            self._restore.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap(original, EIGENSOLVE, "dense", False))
        solve = np.linalg.solve
        self._restore.append((np.linalg, "solve", solve))
        setattr(np.linalg, "solve", self._wrap(solve, NEWTON, None, True))

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def _wrap(self, fn: Callable, name: str, layer: Optional[str], hot: bool) -> Callable:
        post = _POST_HOOKS.get(name)
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:  # output checks run untraced
                return fn(*args, **kwargs)
            misses = fn.cache_info().misses if cached else 0
            frame = self.push(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.pop(frame, keep_span=not hot)
            # Counted per call: cache_clear between sweeps resets cache_info.
            missed = cached and fn.cache_info().misses > misses
            if missed:
                self.count(name + ".misses")
            if post is not None:
                post(self, args, kwargs, out, missed)
            return out

        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self, op_time_s: float) -> Dict[str, float]:
        """Per-layer metrics over the traced operations."""

        def calls(name):
            return self.agg.get(name, _Agg()).calls

        def self_s(name):
            return self.agg.get(name, _Agg()).self_s

        c = self.counters
        out = {
            "spectra.sum_pair_ops.self_s": self_s("spectra.sum_pair_ops"),
            "spectra.sum_pair_ops.misses": c.get("spectra.sum_pair_ops.misses", 0),
            "brauer.embed_pair.calls": calls("brauer.embed_pair"),
            "spectra.sum_field_op.self_s": self_s("spectra.sum_field_op"),
            "spectra.eigensolve.self_s": self_s(EIGENSOLVE),
            "spectra.eigensolve.n3_sum": c.get("eigensolve.n3", 0),
            "spectra.dense_mb": c.get("dense.bytes", 0) / 2**20,
            "branching.spectral_extract_branching.self_s":
                self_s("branching.spectral_extract_branching"),
            "branching.enumerate_Pn.self_s": self_s("branching.enumerate_Pn"),
            "branching.enumerate_Pn.misses": c.get("branching.enumerate_Pn.misses", 0),
            "partitions.enumerate_lambda_rho.self_s":
                self_s("partitions.enumerate_lambda_rho"),
            "branching.candidates": c.get("candidates", 0),
            "branching.lines": c.get("lines", 0),
            "branching.useful_ratio":
                c.get("lines", 0) / c["candidates"] if c.get("candidates") else 0.0,
            "branching.b_coefficient.calls": calls("branching.b_coefficient"),
            "branching.b_coefficient.self_s": self_s("branching.b_coefficient"),
            "partitions.transpose.calls": calls("partitions.transpose"),
            "tableaux.cell_branching.self_s": self_s("tableaux.cell_branching"),
            "spectra.z_decomposed.self_s": self_s("spectra.z_decomposed"),
            "spectra.lines_summed": c.get("lines_summed", 0),
            "tableaux.dim_sn.calls": calls("tableaux.dim_sn"),
            "tableaux.dim_sn.self_s": self_s("tableaux.dim_sn"),
            "group_chars.dim_o.calls": calls("group_chars.dim_o"),
            "group_chars.dim_o.self_s": self_s("group_chars.dim_o"),
            "group_chars.char_o_field.calls": calls("group_chars.char_o_field"),
            "group_chars.char_o_field.self_s": self_s("group_chars.char_o_field"),
            "free_energy.maximize_phi.calls": calls("free_energy.maximize_phi"),
            "free_energy.maximize_phi.self_s": self_s("free_energy.maximize_phi"),
            "free_energy.classify_phase.self_s": self_s("free_energy.classify_phase"),
            "free_energy.trace_curve_C.self_s": self_s("free_energy.trace_curve_C"),
            "free_energy.in_disordered_region.calls":
                calls("free_energy.in_disordered_region"),
            "free_energy.newton_solves": c.get("newton_solves", 0),
        }
        for layer in LAYERS + ("other",):
            share = self.layer_self_s.get(layer, 0.0) / op_time_s if op_time_s else 0.0
            out[f"layer.{layer}.self_frac"] = share
        return out

    def dump(self) -> dict:
        return {
            "spans_columns": ["id", "name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "aggregates": {
                k: {"calls": a.calls, "total_s": a.total_s, "self_s": a.self_s}
                for k, a in sorted(self.agg.items())
            },
            "counters": self.counters,
        }


# -- counters recorded where the work happens -----------------------------------
# Hooks run after the wrapped call's span has closed.  dense.bytes counts the
# computed size of the theta^n x theta^n operators built (embedded pair
# operators, field sums) and of each matrix handed to the eigensolver.

def _dense_bytes(tr: Tracer, args, kwargs, out, missed) -> None:
    tr.count("dense.bytes", out.nbytes)


def _eigensolve(tr: Tracer, args, kwargs, out, missed) -> None:
    a = args[0]
    tr.count("eigensolve.n3", a.shape[0] ** 3)
    tr.count("dense.bytes", a.nbytes)


def _enumerate_pn(tr: Tracer, args, kwargs, out, missed) -> None:
    oracle = kwargs.get("oracle", args[2] if len(args) > 2 else False)
    if missed and not oracle:
        tr.count("lines", len(out))
    if tr.caller() == "spectra.z_decomposed":
        tr.count("lines_summed", len(out))


def _enumerate_lambda_rho(tr: Tracer, args, kwargs, out, missed) -> None:
    if tr.caller() == "branching.enumerate_Pn":
        tr.count("candidates", len(out))


def _newton(tr: Tracer, args, kwargs, out, missed) -> None:
    if tr.within("free_energy."):
        tr.count("newton_solves")


_POST_HOOKS = {
    "brauer.embed_pair": _dense_bytes,
    "spectra.sum_field_op": _dense_bytes,
    EIGENSOLVE: _eigensolve,
    "branching.enumerate_Pn": _enumerate_pn,
    "partitions.enumerate_lambda_rho": _enumerate_lambda_rho,
    NEWTON: _newton,
}
