import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psdcomplete
from psdcomplete import (
    canonical_dumps,
    cycle_extreme_ray,
    cycle_graph,
    dump_certificate,
    dump_graph,
    dump_partial,
    load_certificate,
    verify_certificate,
)
from psdcomplete import completion
from psdcomplete.cli import main

from helpers import hard_cycle_instance, path_graph


def write_json(path, obj):
    path.write_text(canonical_dumps(obj))
    return str(path)


@pytest.fixture
def c4_files(tmp_path):
    g = cycle_graph(4)
    graph = write_json(tmp_path / "graph.json", dump_graph(g))
    hard = hard_cycle_instance(g)
    hard_path = write_json(tmp_path / "hard.json",
                           dump_partial(hard.n, hard.diag, hard.entries))
    easy_path = write_json(
        tmp_path / "easy.json",
        {"n": 4, "diag": [1, 1, 1, 1],
         "entries": [[0, 1, 0], [1, 2, 0], [2, 3, 0], [0, 3, 0]]},
    )
    return graph, hard_path, easy_path


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_analyze_graph(capsys, c4_files):
    graph, _, _ = c4_files
    code, report, _ = run(capsys, ["analyze-graph", "--graph", graph])
    assert code == 0
    assert report["chordal"] is False
    assert report["clique_number"] == 2
    assert report["shortest_induced_cycle"] == [0, 1, 2, 3]
    assert report["gl_index"] == 1
    assert report["hankel_index"] == 2
    assert report["tolerance"] == 1e-9
    code, report, _ = run(capsys, ["analyze-graph", "--graph", graph, "--tol", "1e-8"])
    assert code == 0
    assert report["tolerance"] == 1e-8


def test_analyze_graph_chordal_renders_infinity(capsys, tmp_path):
    graph = write_json(tmp_path / "path.json", dump_graph(path_graph(4)))
    code, report, _ = run(capsys, ["analyze-graph", "--graph", graph])
    assert code == 0
    assert report["chordal"] is True
    assert report["shortest_induced_cycle"] is None
    assert report["gl_index"] == "infinity"
    assert report["hankel_index"] == "infinity"


def test_complete_hard_c4(capsys, c4_files):
    graph, hard, _ = c4_files
    code, report, _ = run(capsys, ["complete", "--graph", graph, "--partial", hard])
    assert code == 1
    assert report["verdict"] == "infeasible"
    assert report["completion"] is None
    assert report["separating_value"] == pytest.approx(-4.0 / 3.0, abs=1e-9)
    cert = load_certificate(report["certificate"])
    assert verify_certificate(cert, cycle_graph(4))


def test_complete_easy_c4(capsys, c4_files):
    graph, _, easy = c4_files
    code, report, _ = run(capsys, ["complete", "--graph", graph, "--partial", easy])
    assert code == 0
    assert report["verdict"] == "completed"
    assert report["rank"] == 4
    a = np.array(report["completion"])
    assert np.max(np.abs(a - np.eye(4))) <= 1e-6


def test_pd_exists(capsys, c4_files):
    graph, hard, easy = c4_files
    code, report, _ = run(capsys, ["pd-exists", "--graph", graph, "--partial", easy])
    assert code == 0
    assert report["answer"] == "yes"
    assert np.array(report["witness"]).shape == (4, 4)
    code, report, _ = run(capsys, ["pd-exists", "--graph", graph, "--partial", hard])
    assert code == 1
    assert report["answer"] == "no"
    assert report["failed_condition"] == "clique_block"
    assert report["witness"] is None


def test_extreme_ray_matches_library(capsys):
    code, report, _ = run(capsys, ["extreme-ray", "--cycle", "5"])
    assert code == 0
    cert = load_certificate(report)
    ref = cycle_extreme_ray(5)
    assert np.max(np.abs(cert.tau - ref.tau)) == 0.0
    assert cert.rank == 3
    assert "seed" not in report
    code, _, _ = run(capsys, ["extreme-ray", "--cycle", "3"])
    assert code == 2


def test_toric(capsys, tmp_path):
    poly = write_json(tmp_path / "poly.json",
                      {"vertices": [[0, 0], [2, 0], [0, 2]]})
    code, report, _ = run(capsys, ["toric", "--polygon", poly])
    assert code == 0
    assert report["boundary_lattice_points"] == 6
    assert report["gl_index"] == 3
    assert report["hankel_lower_bound"] == 4

    tiny = write_json(tmp_path / "tiny.json",
                      {"vertices": [[0, 0], [1, 0], [0, 1]]})
    code, report, _ = run(capsys, ["toric", "--polygon", tiny])
    assert code == 0
    assert report["boundary_lattice_points"] == 3
    assert report["gl_index"] is None
    assert report["hankel_lower_bound"] is None


def moment_files(tmp_path, matrix):
    mom = write_json(tmp_path / "moment.json",
                     {"num_vars": 3, "degree": 2, "basis": "grlex",
                      "rows": np.asarray(matrix).tolist()})
    poly = write_json(tmp_path / "poly.json",
                      {"vertices": [[0, 0], [2, 0], [0, 2]]})
    return mom, poly


def test_moment_check(capsys, tmp_path):
    v = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 9.0])  # atom at (1, 2, 3)
    mom, poly = moment_files(tmp_path, np.outer(v, v))
    code, report, _ = run(capsys, ["moment-check", "--moment", mom, "--polygon", poly])
    assert code == 0
    assert report["verdict"] == "representable"
    assert report["rank"] == 1
    assert report["hankel_lower_bound"] == 4

    mom, poly = moment_files(tmp_path, np.diag([1, 1, 1, 1, 1, -1.0]))
    code, report, _ = run(capsys, ["moment-check", "--moment", mom, "--polygon", poly])
    assert code == 1
    assert report["verdict"] == "not_psd"

    mom, poly = moment_files(tmp_path, np.eye(6))
    code, report, _ = run(capsys, ["moment-check", "--moment", mom, "--polygon", poly])
    assert code == 0
    assert report["verdict"] == "indeterminate"


def test_loader_errors_name_their_file(capsys, tmp_path):
    # A 5x5 matrix for 3 variables at degree 2 (basis size 6), an asymmetric
    # moment matrix, an out-of-range partial entry and a degenerate polygon:
    # each is refused by a constructor, and the report names the input file.
    mom, poly = moment_files(tmp_path, np.eye(5))
    code, report, _ = run(capsys, ["moment-check", "--moment", mom, "--polygon", poly])
    assert code == 2
    assert report["code"] == "value"
    assert report["location"] == mom

    lopsided = np.eye(6)
    lopsided[0, 1] = 0.5
    mom, poly = moment_files(tmp_path, lopsided)
    code, report, _ = run(capsys, ["moment-check", "--moment", mom, "--polygon", poly])
    assert code == 2
    assert report["location"] == mom

    graph = write_json(tmp_path / "graph.json", dump_graph(cycle_graph(4)))
    partial = write_json(tmp_path / "partial.json",
                         {"n": 4, "diag": [1, 1, 1, 1], "entries": [[0, 4, 0.5]]})
    code, report, _ = run(capsys, ["complete", "--graph", graph, "--partial", partial])
    assert code == 2
    assert report["code"] == "value"
    assert report["location"] == partial

    flat = write_json(tmp_path / "flat.json", {"vertices": [[0, 0], [1, 0], [2, 0]]})
    code, report, _ = run(capsys, ["toric", "--polygon", flat])
    assert code == 2
    assert report["location"] == flat


def test_error_reports(capsys, tmp_path, c4_files):
    graph, hard, _ = c4_files
    code, report, _ = run(capsys, ["analyze-graph", "--graph",
                                   str(tmp_path / "absent.json")])
    assert code == 2
    assert report["code"] == "io"
    assert "absent.json" in report["location"]
    assert set(report) == {"code", "message", "location"}

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, report, _ = run(capsys, ["analyze-graph", "--graph", str(bad)])
    assert code == 2
    assert report["code"] == "bad-json"

    mismatched = write_json(tmp_path / "mismatch.json",
                            {"n": 3, "diag": [1, 1, 1], "entries": [[0, 1, 0.5]]})
    code, report, _ = run(capsys, ["complete", "--graph", graph,
                                   "--partial", mismatched])
    assert code == 2
    assert report["code"] == "value"

    # At tol 0 round-off eigenvalues would refute valid data.
    for tol in ("nan", "0"):
        code, report, _ = run(capsys, ["complete", "--graph", graph, "--partial", hard,
                                       "--tol", tol])
        assert code == 2
        assert report["code"] == "value"
        assert report["location"] == "--tol"


def test_out_flag_and_determinism(capsys, tmp_path, c4_files):
    graph, hard, _ = c4_files
    first = main(["complete", "--graph", graph, "--partial", hard])
    text_a = capsys.readouterr().out
    second = main(["complete", "--graph", graph, "--partial", hard])
    text_b = capsys.readouterr().out
    assert first == second == 1
    assert text_a == text_b
    assert text_a.endswith("\n")

    out = tmp_path / "report.json"
    code = main(["complete", "--graph", graph, "--partial", hard,
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out == ""
    assert out.read_text() == text_a

    # An unwritable --out is an input error, not a negative verdict.
    missing = str(tmp_path / "absent" / "x.json")
    code, report, _ = run(capsys, ["extreme-ray", "--cycle", "4", "--out", missing])
    assert code == 2
    assert report["code"] == "io"
    assert report["location"] == missing


def test_failed_revalidation_is_an_internal_fault(capsys, c4_files, monkeypatch):
    # A completion that misses the data is the program's fault, not the input's.
    graph, _, easy = c4_files
    bad = completion.CompletionReport(verdict="completed", completion=np.zeros((4, 4)),
                                      rank=0)
    monkeypatch.setattr(completion, "complete_or_certify", lambda *args, **kwargs: bad)
    code, report, _ = run(capsys, ["complete", "--graph", graph, "--partial", easy])
    assert code == 3
    assert report == {"code": "internal", "location": "complete",
                      "message": "completion failed re-validation against the input"}


@pytest.mark.parametrize("command", ["complete", "pd-exists"])
def test_gram_mismatch_in_propagation_is_an_internal_fault(capsys, tmp_path, monkeypatch,
                                                           command):
    # Data that passed the block scan on a chordal pattern always has a
    # completion, so a failed alignment is the program's fault, not the input's.
    g = path_graph(3)
    graph = write_json(tmp_path / "graph.json", dump_graph(g))
    part = write_json(tmp_path / "partial.json",
                      dump_partial(3, [1.0, 1.0, 1.0], {(0, 1): 0.5, (1, 2): 0.5}))

    def mismatch(*args, **kwargs):
        raise psdcomplete.GramMismatch("Gram gap 1.000e+00 exceeds 1.0e-08 * 2.000e+00")
    monkeypatch.setattr(completion, "align_gram", mismatch)
    code, report, _ = run(capsys, [command, "--graph", graph, "--partial", part])
    assert code == 3
    assert report == {"code": "internal", "location": command,
                      "message": "Gram gap 1.000e+00 exceeds 1.0e-08 * 2.000e+00"}


@pytest.mark.parametrize("edges", [[[0, 1]], [[0, 1], [1, 2]]], ids=["edge", "path"])
def test_tol_reaches_every_threshold(capsys, tmp_path, edges):
    # Edge (0, 1) holds 1 + 5e-7, so its block's smallest eigenvalue is
    # -5e-7: refuted at the default tol, accepted at tol 1e-6. An accepted
    # block must also pass Gram propagation and re-validation at that tol.
    n = len(edges) + 1
    graph = write_json(tmp_path / "graph.json", {"n": n, "edges": edges})
    partial = write_json(tmp_path / "partial.json", {
        "n": n, "diag": [1.0] * n,
        "entries": [[i, j, 1.0 + 5e-7 if (i, j) == (0, 1) else 1.0] for i, j in edges],
    })
    argv = ["complete", "--graph", graph, "--partial", partial]
    code, report, _ = run(capsys, argv)
    assert code == 1
    assert report["verdict"] == "infeasible"
    assert report["violating_clique"] == [0, 1]
    code, report, _ = run(capsys, argv + ["--tol", "1e-6"])
    assert code == 0
    assert report["verdict"] == "completed"
    assert report["rank"] == 1


def test_certificate_json_round_trip(capsys, tmp_path):
    code, report, _ = run(capsys, ["extreme-ray", "--cycle", "7"])
    assert code == 0
    stripped = {k: v for k, v in report.items() if k != "tolerance"}
    again = json.loads(canonical_dumps(dump_certificate(load_certificate(stripped))))
    assert again == stripped


COMPLETE_KEYS = {"verdict", "completion", "rank", "certificate", "separating_value",
                 "violating_clique"}


def test_report_keys_are_the_result_fields(capsys, tmp_path, c4_files):
    # Pinned here, so that a new result field is a deliberate schema change.
    graph, hard, easy = c4_files
    clash = write_json(tmp_path / "clash.json",
                       {"n": 4, "diag": [1, 1, 1, 1],
                        "entries": [[0, 1, 2.0], [1, 2, 0], [2, 3, 0], [0, 3, 0]]})
    mom, poly = moment_files(tmp_path, np.eye(6))
    cases = [  # argv, keys besides "tolerance", a key whose value is not null
        (["analyze-graph", "--graph", graph],
         {"chordal", "clique_number", "shortest_induced_cycle", "gl_index", "hankel_index"},
         "shortest_induced_cycle"),
        (["complete", "--graph", graph, "--partial", easy], COMPLETE_KEYS, "completion"),
        (["complete", "--graph", graph, "--partial", hard], COMPLETE_KEYS, "certificate"),
        (["complete", "--graph", graph, "--partial", clash], COMPLETE_KEYS,
         "violating_clique"),
        (["pd-exists", "--graph", graph, "--partial", easy],
         {"answer", "witness", "failed_condition"}, "witness"),
        (["pd-exists", "--graph", graph, "--partial", hard],
         {"answer", "witness", "failed_condition"}, "failed_condition"),
        (["extreme-ray", "--cycle", "5"],
         {"n", "tau", "points", "relation", "weights", "kernel_form", "rank"}, "tau"),
        (["toric", "--polygon", poly],
         {"boundary_lattice_points", "gl_index", "hankel_lower_bound"}, "gl_index"),
        (["moment-check", "--moment", mom, "--polygon", poly],
         {"verdict", "rank", "hankel_lower_bound"}, "rank"),
    ]
    for argv, keys, present in cases:
        _, report, _ = run(capsys, argv)
        assert set(report) == keys | {"tolerance"}, argv
        assert report[present] is not None, argv


def test_module_entry_point_matches_main(capsys, c4_files):
    # The real process entry: `python -m psdcomplete.cli` ends in sys.exit(main()).
    graph, hard, _ = c4_files
    argv = ["complete", "--graph", graph, "--partial", hard]
    src = Path(psdcomplete.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "psdcomplete.cli", *argv],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    code = main(argv)
    assert proc.returncode == code == 1
    assert proc.stdout == capsys.readouterr().out


def test_closed_form_reports_are_byte_stable(capsys, c4_files):
    graph, hard, _ = c4_files
    assert main(["complete", "--graph", graph, "--partial", hard]) == 1
    assert capsys.readouterr().out == HARD_C4_COMPLETE
    assert main(["extreme-ray", "--cycle", "5"]) == 0
    assert capsys.readouterr().out == CYCLE_5_RAY


HARD_C4_COMPLETE = """\
{
  "certificate": {
    "kernel_form": [
      -0.8660254037844387,
      -0.2886751345948129,
      0.2886751345948129,
      0.8660254037844387
    ],
    "n": 4,
    "points": [
      [
        1.0,
        -1.0,
        0.0,
        0.0
      ],
      [
        0.0,
        1.0,
        -1.0,
        0.0
      ],
      [
        0.0,
        0.0,
        1.0,
        -1.0
      ],
      [
        -1.0,
        0.0,
        0.0,
        1.0
      ]
    ],
    "rank": 2,
    "relation": [
      -1.0,
      -1.0,
      -1.0,
      -1.0
    ],
    "tau": [
      [
        0.6666666666666666,
        -1.0,
        0.0,
        0.3333333333333333
      ],
      [
        -1.0,
        2.0,
        -1.0,
        0.0
      ],
      [
        0.0,
        -1.0,
        2.0,
        -1.0
      ],
      [
        0.3333333333333333,
        0.0,
        -1.0,
        0.6666666666666666
      ]
    ],
    "weights": [
      1.0,
      1.0,
      1.0,
      -0.3333333333333333
    ]
  },
  "completion": null,
  "rank": null,
  "separating_value": -1.3333333333333335,
  "tolerance": 1e-09,
  "verdict": "infeasible",
  "violating_clique": null
}
"""

CYCLE_5_RAY = """\
{
  "kernel_form": [
    -1.0,
    -0.5,
    0.0,
    0.5,
    1.0
  ],
  "n": 5,
  "points": [
    [
      1.0,
      -1.0,
      0.0,
      0.0,
      0.0
    ],
    [
      0.0,
      1.0,
      -1.0,
      0.0,
      0.0
    ],
    [
      0.0,
      0.0,
      1.0,
      -1.0,
      0.0
    ],
    [
      0.0,
      0.0,
      0.0,
      1.0,
      -1.0
    ],
    [
      -1.0,
      0.0,
      0.0,
      0.0,
      1.0
    ]
  ],
  "rank": 3,
  "relation": [
    -1.0,
    -1.0,
    -1.0,
    -1.0,
    -1.0
  ],
  "tau": [
    [
      0.75,
      -1.0,
      0.0,
      0.0,
      0.25
    ],
    [
      -1.0,
      2.0,
      -1.0,
      0.0,
      0.0
    ],
    [
      0.0,
      -1.0,
      2.0,
      -1.0,
      0.0
    ],
    [
      0.0,
      0.0,
      -1.0,
      2.0,
      -1.0
    ],
    [
      0.25,
      0.0,
      0.0,
      -1.0,
      0.75
    ]
  ],
  "tolerance": 1e-09,
  "weights": [
    1.0,
    1.0,
    1.0,
    1.0,
    -0.25
  ]
}
"""
