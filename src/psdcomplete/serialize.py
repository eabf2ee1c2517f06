"""JSON schemas for graphs, matrices, partial data, certificates, polygons, moments.

Loaders check the JSON shape and leave value constraints to the
constructors they call; every failure is an InputError with a location
breadcrumb. Dumpers emit plain dicts. canonical_dumps renders
deterministic, byte-stable JSON (sorted keys, two-space indent, shortest
round-trip floats) and is the only place NumPy arrays and scalars, and
certificates nested in a report, become JSON values.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .completion import PartialSymmetricMatrix
from .errors import InputError, PsdCompleteError
from .graphs import Graph
from .linalg import check_symmetric
from .moments import LatticePolygon, MomentOperator
from .rays import ExtremeRayCertificate

__all__ = [
    "load_json_file",
    "canonical_dumps",
    "load_graph",
    "dump_graph",
    "load_matrix",
    "dump_matrix",
    "load_partial",
    "dump_partial",
    "load_certificate",
    "dump_certificate",
    "load_polygon",
    "load_moment_operator",
    "render_index",
]


def load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(str(exc), location=path, code="io") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}", location=path, code="bad-json") from exc


def _plain(obj):
    """json's ``default`` hook: the one place NumPy values and certificates become JSON."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, ExtremeRayCertificate):
        return dump_certificate(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_plain) + "\n"


def render_index(value):
    """Finite indices stay integers; infinite ones render as the string "infinity"."""
    if value == math.inf:
        return "infinity"
    return int(value)


def _build(make, location, *args, **kwargs):
    """make(*args, **kwargs), with its validation errors re-raised as InputError at location."""
    try:
        return make(*args, **kwargs)
    except InputError as exc:
        raise InputError(exc.message, location=location, code=exc.code) from exc
    except PsdCompleteError as exc:
        raise InputError(str(exc), location=location, code="value") from exc


def _require(obj, key, location):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"missing key {key!r}", location=location, code="schema")
    return obj[key]


def _int_value(x, what, location):
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be an integer, got {x!r}", location=location,
                         code="schema")
    return x


def _float_value(x, what, location):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InputError(f"{what} must be a number, got {x!r}", location=location,
                         code="schema")
    x = float(x)
    if not math.isfinite(x):
        raise InputError(f"{what} must be finite", location=location, code="value")
    return x


def _float_list(xs, what, location):
    if not isinstance(xs, list):
        raise InputError(f"{what} must be a list", location=location, code="schema")
    return [_float_value(x, f"{what}[{i}]", location) for i, x in enumerate(xs)]


def _float_rows(rows, what, location):
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{what} must be a non-empty list of rows", location=location,
                         code="schema")
    out = [_float_list(r, f"{what}[{i}]", location) for i, r in enumerate(rows)]
    width = len(out[0])
    if any(len(r) != width for r in out):
        raise InputError(f"{what} rows have unequal lengths", location=location,
                         code="schema")
    return np.array(out, dtype=float)


def _int_pairs(pairs, what, location):
    """A JSON list of integer pairs as a list of tuples."""
    if not isinstance(pairs, list):
        raise InputError(f"{what} must be a list of pairs", location=location,
                         code="schema")
    out = []
    for t, p in enumerate(pairs):
        if not isinstance(p, list) or len(p) != 2:
            raise InputError(f"{what}[{t}] must be a pair", location=location,
                             code="schema")
        out.append((_int_value(p[0], f"{what}[{t}][0]", location),
                    _int_value(p[1], f"{what}[{t}][1]", location)))
    return out


def load_graph(obj, location="graph") -> Graph:
    n = _int_value(_require(obj, "n", location), "n", location)
    edges = _int_pairs(_require(obj, "edges", location), "edges", location)
    return _build(Graph.from_edges, location, n, edges)


def dump_graph(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def load_matrix(obj, location="matrix") -> np.ndarray:
    n = _int_value(_require(obj, "n", location), "n", location)
    rows = _float_rows(_require(obj, "rows", location), "rows", location)
    if rows.shape != (n, n):
        raise InputError(f"rows shape {rows.shape} != ({n},{n})", location=location,
                         code="value")
    return _build(check_symmetric, location, rows)


def dump_matrix(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=float)
    return {"n": int(a.shape[0]), "rows": a.tolist()}


def load_partial(obj, location="partial") -> PartialSymmetricMatrix:
    n = _int_value(_require(obj, "n", location), "n", location)
    diag = _float_list(_require(obj, "diag", location), "diag", location)
    raw = _require(obj, "entries", location)
    if not isinstance(raw, list):
        raise InputError("entries must be a list of [i, j, value] triples",
                         location=location, code="schema")
    entries = {}
    for t, e in enumerate(raw):
        if not isinstance(e, list) or len(e) != 3:
            raise InputError(f"entries[{t}] must be an [i, j, value] triple",
                             location=location, code="schema")
        i = _int_value(e[0], f"entries[{t}][0]", location)
        j = _int_value(e[1], f"entries[{t}][1]", location)
        v = _float_value(e[2], f"entries[{t}][2]", location)
        key = (min(i, j), max(i, j))
        if key in entries:
            raise InputError(f"duplicate entry for pair {key}", location=location,
                             code="value")
        entries[key] = v
    return _build(PartialSymmetricMatrix, location, n, np.array(diag), entries)


def dump_partial(n: int, diag, entries) -> dict:
    return {
        "n": int(n),
        "diag": np.asarray(diag).tolist(),
        "entries": [[int(i), int(j), float(v)] for (i, j), v in sorted(entries.items())],
    }


def load_certificate(obj, location="certificate") -> ExtremeRayCertificate:
    n = _int_value(_require(obj, "n", location), "n", location)
    tau = _float_rows(_require(obj, "tau", location), "tau", location)
    points = _float_rows(_require(obj, "points", location), "points", location)
    relation = _float_list(_require(obj, "relation", location), "relation", location)
    weights = _float_list(_require(obj, "weights", location), "weights", location)
    kernel = _float_list(_require(obj, "kernel_form", location), "kernel_form", location)
    rank = _int_value(_require(obj, "rank", location), "rank", location)
    if tau.shape != (n, n):
        raise InputError(f"tau shape {tau.shape} != ({n},{n})", location=location,
                         code="value")
    s = points.shape[0]
    if points.shape[1] != n or len(relation) != s or len(weights) != s or len(kernel) != n:
        raise InputError("certificate field shapes are inconsistent",
                         location=location, code="value")
    return ExtremeRayCertificate(
        tau=tau,
        points=points,
        relation=np.array(relation),
        weights=np.array(weights),
        kernel_form=np.array(kernel),
        rank=rank,
    )


def dump_certificate(cert: ExtremeRayCertificate) -> dict:
    return {
        "n": int(cert.n),
        "tau": cert.tau.tolist(),
        "points": cert.points.tolist(),
        "relation": cert.relation.tolist(),
        "weights": cert.weights.tolist(),
        "kernel_form": cert.kernel_form.tolist(),
        "rank": int(cert.rank),
    }


def load_polygon(obj, location="polygon") -> LatticePolygon:
    vs = _int_pairs(_require(obj, "vertices", location), "vertices", location)
    return _build(LatticePolygon, location, tuple(vs))


def load_moment_operator(obj, location="moment") -> MomentOperator:
    num_vars = _int_value(_require(obj, "num_vars", location), "num_vars", location)
    degree = _int_value(_require(obj, "degree", location), "degree", location)
    basis = _require(obj, "basis", location)
    if basis != "grlex":
        raise InputError(f"basis must be \"grlex\", got {basis!r}", location=location,
                         code="schema")
    rows = _float_rows(_require(obj, "rows", location), "rows", location)
    return _build(MomentOperator, location, matrix=rows, num_vars=num_vars, degree=degree,
                  basis=basis)
