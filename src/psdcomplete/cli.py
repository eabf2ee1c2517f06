"""Command-line interface.

Subcommands: analyze-graph, complete, pd-exists, extreme-ray, toric,
moment-check. Inputs and outputs are JSON; output is canonical (sorted keys,
two-space indent), so repeated runs on the same inputs are byte-identical.
A report's keys are the library result's fields plus "tolerance"; NumPy
values are converted only in serialize.canonical_dumps.

Exit status: 0 on success, 1 when the verdict is negative (infeasible / no /
not_psd), 2 on malformed input or an unwritable --out file, 3 when a
completion fails the CLI's own re-validation against the input or Gram
propagation finds clique blocks that do not fit together (an internal fault,
not the input's: data that passed the block scan on a chordal pattern always
has a completion). Errors are reported as {"code", "message", "location"}.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import completion, graphs, moments, rays, serialize
from .errors import GramMismatch, InputError, PsdCompleteError
from .linalg import DEFAULT_TOL, numeric_rank, psd_min_eig


class _InternalError(Exception):
    """A result failed the CLI's re-validation: a fault of the program."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdcomplete",
        description="PSD completion of graph-patterned matrices, extreme-ray "
                    "certificates, and lattice-polygon index bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help=f"relative tolerance; every threshold is a fixed "
                            f"multiple of it (default {DEFAULT_TOL})")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the JSON report here instead of stdout")

    p = sub.add_parser("analyze-graph", help="chordality, cliques and index bounds")
    p.add_argument("--graph", required=True, metavar="FILE")
    add_common(p)

    p = sub.add_parser("complete", help="complete partial data or certify failure")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--partial", required=True, metavar="FILE")
    add_common(p)

    p = sub.add_parser("pd-exists", help="decide positive definite completability")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--partial", required=True, metavar="FILE")
    add_common(p)

    p = sub.add_parser("extreme-ray", help="emit the m-cycle extreme-ray certificate")
    p.add_argument("--cycle", required=True, type=int, metavar="M")
    add_common(p)

    p = sub.add_parser("toric", help="boundary lattice points and index bounds")
    p.add_argument("--polygon", required=True, metavar="FILE")
    add_common(p)

    p = sub.add_parser("moment-check", help="representability of a moment operator")
    p.add_argument("--moment", required=True, metavar="FILE")
    p.add_argument("--polygon", required=True, metavar="FILE",
                   help="polygon supplying the rank bound")
    add_common(p)

    return parser


def _load_graph(path: str) -> graphs.Graph:
    return serialize.load_graph(serialize.load_json_file(path), location=path)


def _load_partial(path: str) -> completion.PartialSymmetricMatrix:
    return serialize.load_partial(serialize.load_json_file(path), location=path)


def _run_analyze_graph(args, tol: float):
    g = _load_graph(args.graph)
    chordal, _ = graphs.is_chordal(g)
    cyc = graphs.shortest_induced_cycle(g)
    return {
        "chordal": chordal,
        "clique_number": graphs.clique_number(g),
        "shortest_induced_cycle": list(cyc.vertices) if cyc is not None else None,
        "gl_index": serialize.render_index(graphs.green_lazarsfeld_index(g)),
        "hankel_index": serialize.render_index(graphs.hankel_index(g)),
    }, False


def _run_complete(args, tol: float):
    g = _load_graph(args.graph)
    part = _load_partial(args.partial)
    rep = completion.complete_or_certify(g, part, tol=tol)
    if rep.completion is not None:
        # Re-validate before emitting: the completion must still match the
        # data and be PSD at ten times the search's tolerance of 10 * tol.
        slack = 10.0 * (10 * tol) * (1.0 + part.max_abs())
        if completion.completion_residual(part, rep.completion) > slack or \
                psd_min_eig(rep.completion, tol) < -slack:
            raise _InternalError("completion failed re-validation against the input")
    return vars(rep), rep.verdict == "infeasible"


def _run_pd_exists(args, tol: float):
    g = _load_graph(args.graph)
    part = _load_partial(args.partial)
    verdict = completion.pd_completion_exists(g, part, tol=tol)
    return vars(verdict), verdict.answer == "no"


def _run_extreme_ray(args, tol: float):
    return serialize.dump_certificate(rays.cycle_extreme_ray(args.cycle)), False


def _run_toric(args, tol: float):
    poly = serialize.load_polygon(serialize.load_json_file(args.polygon),
                                  location=args.polygon)
    b = moments.boundary_lattice_points(poly)
    return {
        "boundary_lattice_points": b,
        "gl_index": b - 3 if b >= 4 else None,
        "hankel_lower_bound": b - 2 if b >= 4 else None,
    }, False


def _run_moment_check(args, tol: float):
    op = serialize.load_moment_operator(serialize.load_json_file(args.moment),
                                        location=args.moment)
    poly = serialize.load_polygon(serialize.load_json_file(args.polygon),
                                  location=args.polygon)
    bound = moments.toric_hankel_lower_bound(poly)
    verdict = moments.moment_representable(op, bound, tol=tol)
    return {
        "verdict": verdict,
        "rank": numeric_rank(op.matrix, tol),
        "hankel_lower_bound": bound,
    }, verdict == "not_psd"


_RUNNERS = {
    "analyze-graph": _run_analyze_graph,
    "complete": _run_complete,
    "pd-exists": _run_pd_exists,
    "extreme-ray": _run_extreme_ray,
    "toric": _run_toric,
    "moment-check": _run_moment_check,
}


def _fail(status: int, code: str, message: str, location) -> int:
    sys.stdout.write(serialize.canonical_dumps(
        {"code": code, "message": message, "location": location}
    ))
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tol = args.tol
    try:
        if not math.isfinite(tol) or tol <= 0:
            raise InputError(f"tolerance must be a finite positive number, got {tol}",
                             location="--tol", code="value")
        report, negative = _RUNNERS[args.command](args, tol)
    except InputError as exc:
        return _fail(2, exc.code, exc.message, exc.location)
    except (GramMismatch, _InternalError) as exc:
        return _fail(3, "internal", str(exc), args.command)
    except PsdCompleteError as exc:
        return _fail(2, "value", str(exc), args.command)

    text = serialize.canonical_dumps({**report, "tolerance": tol})
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(2, "io", str(exc), args.out)
    else:
        sys.stdout.write(text)
    return 1 if negative else 0


if __name__ == "__main__":
    sys.exit(main())
