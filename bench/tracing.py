"""Spans around the package's layer boundaries, recorded from outside the package.

``install`` replaces each traced public function with a wrapper in every
``psdcomplete`` module namespace that bound it (``completion`` and ``cli``
import names from ``graphs``, ``linalg`` and ``rays`` with ``from ...
import``), and gives ``linalg`` a NumPy stand-in whose ``linalg.eigh`` and
``linalg.eigvalsh`` are wrapped the same way. Spans are kept in memory and
only recorded inside an operation, so input generation and output checks
leave no trace. ``layer_metrics`` turns them into per-operation counts and
self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

# Public functions per layer (module). Private helpers are not wrapped; their
# time lands in the self time of the public function that called them.
LAYERS = {
    "graphs": ("is_chordal", "maximal_cliques", "clique_number", "clique_tree",
               "rooted_clique_order", "shortest_induced_cycle",
               "induced_cycles_of_length", "green_lazarsfeld_index", "hankel_index"),
    "linalg": ("affine_psd_feasibility", "gram_factor", "align_gram", "psd_min_eig",
               "numeric_rank", "check_symmetric"),
    "completion": ("complete_or_certify", "chordal_complete", "pd_completion_exists",
                   "completion_residual"),
    "rays": ("cycle_extreme_ray", "embed_certificate", "pair"),
    "serialize": ("load_json_file", "load_graph", "load_partial", "load_polygon",
                  "load_moment_operator", "dump_matrix", "dump_certificate",
                  "canonical_dumps"),
    "moments": ("boundary_lattice_points", "toric_hankel_lower_bound",
                "moment_representable"),
    "cli": ("main",),
}
NUMPY_ENTRY_POINTS = ("eigh", "eigvalsh")

OP = "op"
AFFINE = "linalg.affine_psd_feasibility"
PD = "completion.pd_completion_exists"
COMPLETE = "completion.complete_or_certify"
PAIR = "rays.pair"


def _outcome(name: str, out):
    """The part of a result the ratio metrics need, or None."""
    if name == AFFINE:
        return out is not None
    if name == COMPLETE:
        return out.certificate is not None
    if name == PD:
        return out.failed_condition == "rank_bound"
    return None


class Tracer:
    """In-memory span store: ``[name, start, end, parent, outcome]`` per span."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None, self.stack[-1], None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = time.perf_counter()
            span[4] = _outcome(name, out)
            return out
        return traced

    def run_op(self, call):
        """Run one operation under a root span; returns (output, seconds)."""
        span = [OP, time.perf_counter(), None, -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = call()
        finally:
            self.stack.pop()
            span[2] = time.perf_counter()
        return out, span[2] - span[1]

    def write(self, path) -> None:
        """One JSON line per span: name, start and end (seconds), parent index (-1 for an op)."""
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


class _Namespace:
    """Attribute proxy: the overrides first, then the wrapped object."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that undoes it."""
    mods = [importlib.import_module("psdcomplete")]
    mods += [importlib.import_module(f"psdcomplete.{m}") for m in LAYERS]
    undo = []
    for layer, names in LAYERS.items():
        home = importlib.import_module(f"psdcomplete.{layer}")
        for fname in names:
            fn = getattr(home, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", fn)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, fn))
    linalg = importlib.import_module("psdcomplete.linalg")
    wrapped = {f: tracer.wrap(f"linalg.{f}", getattr(np.linalg, f)) for f in NUMPY_ENTRY_POINTS}
    undo.append((linalg, "np", linalg.np))
    linalg.np = _Namespace(np, linalg=_Namespace(np.linalg, **wrapped))

    def uninstall():
        for mod, attr, val in reversed(undo):
            setattr(mod, attr, val)
    return uninstall


def traced_names() -> list:
    names = [f"{layer}.{f}" for layer, fs in LAYERS.items() for f in fs]
    return names + [f"linalg.{f}" for f in NUMPY_ENTRY_POINTS]


def layer_metrics(spans: list) -> dict:
    """Per-operation calls and self times per traced function, plus ratios.

    A span's self time is its duration minus the durations of its direct
    children; children of one span run one after another, so they never
    overlap.
    """
    ops = sum(1 for s in spans if s[0] == OP) or 1
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    calls = dict.fromkeys(traced_names(), 0)
    self_s = dict.fromkeys(traced_names(), 0.0)
    for k, s in enumerate(spans):
        if s[0] != OP:
            calls[s[0]] += 1
            self_s[s[0]] += (s[2] - s[1]) - child[k]

    def under(k: int, name: str) -> bool:
        k = spans[k][3]
        while k >= 0:
            if spans[k][0] == name:
                return True
            k = spans[k][3]
        return False

    affine = [k for k, s in enumerate(spans) if s[0] == AFFINE]
    witnesses = sum(1 for k in affine if spans[k][4])
    certificates = sum(1 for s in spans if s[0] in (COMPLETE, PD) and s[4])
    out = {}
    for name in traced_names():
        out[f"{name}.calls_per_op"] = (calls[name] / ops, "count")
        out[f"{name}.self_ms_per_op"] = (1e3 * self_s[name] / ops, "ms")
    out["linalg.affine_psd_feasibility.witness_ratio"] = (
        witnesses / len(affine) if affine else 0.0, "ratio")
    out["completion.pd.searches_per_op"] = (
        sum(1 for k in affine if under(k, PD)) / ops, "count")
    out["rays.pairings_per_certificate"] = (
        calls[PAIR] / certificates if certificates else 0.0, "count")
    out["trace.spans_per_op"] = ((len(spans) - ops) / ops, "count")
    return out
