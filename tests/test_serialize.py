import json
import math

import numpy as np
import pytest

from psdcomplete import (
    Graph,
    InputError,
    PartialSymmetricMatrix,
    canonical_dumps,
    cycle_extreme_ray,
    cycle_graph,
    dump_certificate,
    dump_graph,
    dump_matrix,
    dump_partial,
    load_certificate,
    load_graph,
    load_json_file,
    load_moment_operator,
    load_partial,
    load_polygon,
    render_index,
    verify_certificate,
)


def test_load_json_file_errors(tmp_path):
    with pytest.raises(InputError) as err:
        load_json_file(str(tmp_path / "missing.json"))
    assert err.value.code == "io"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError) as err:
        load_json_file(str(bad))
    assert err.value.code == "bad-json"


def test_graph_round_trip():
    g = cycle_graph(5)
    obj = dump_graph(g)
    assert obj == {"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}
    assert load_graph(obj) == g
    with pytest.raises(InputError):
        load_graph({"edges": []})
    with pytest.raises(InputError):
        load_graph({"n": 3, "edges": [[0, 1, 2]]})
    with pytest.raises(InputError):
        load_graph({"n": 3, "edges": [[0, 3]]})
    with pytest.raises(InputError):
        load_graph({"n": 3, "edges": [[1, 1]]})


def test_matrix_round_trip():
    a = np.array([[2.0, -1.0], [-1.0, 2.0]])
    obj = dump_matrix(a)
    assert obj == {"n": 2, "rows": [[2.0, -1.0], [-1.0, 2.0]]}


def test_partial_round_trip():
    n, diag, entries = 3, np.array([1.0, 2.0, 3.0]), {(0, 1): 0.5, (1, 2): -0.25}
    obj = dump_partial(n, diag, entries)
    assert obj == {
        "n": 3,
        "diag": [1.0, 2.0, 3.0],
        "entries": [[0, 1, 0.5], [1, 2, -0.25]],
    }
    part = load_partial(obj)
    assert isinstance(part, PartialSymmetricMatrix)
    assert part.n == n
    assert np.array_equal(part.diag, diag)
    assert part.entries == entries
    # loader canonicalizes reversed index order to (min, max)
    flipped = load_partial({"n": 3, "diag": [1, 1, 1], "entries": [[2, 1, 0.5]]})
    assert flipped.entries == {(1, 2): 0.5}
    with pytest.raises(InputError) as err:
        load_partial({"n": 3, "diag": [1, 1, 1],
                      "entries": [[0, 1, 0.5], [1, 0, 0.25]]})
    assert "duplicate" in err.value.message
    with pytest.raises(InputError):
        load_partial({"n": 3, "diag": [1, 1], "entries": []})
    with pytest.raises(InputError):
        load_partial({"n": 3, "diag": [1, 1, 1], "entries": [[0, 0, 1.0]]})
    with pytest.raises(InputError):
        load_partial({"n": 3, "diag": [1, 1, 1], "entries": [[0, 1, math.nan]]})


def test_certificate_round_trip():
    cert = cycle_extreme_ray(5)
    obj = dump_certificate(cert)
    back = load_certificate(json.loads(canonical_dumps(obj)))
    assert np.array_equal(back.tau, cert.tau)
    assert np.array_equal(back.points, cert.points)
    assert np.array_equal(back.relation, cert.relation)
    assert np.array_equal(back.weights, cert.weights)
    assert np.array_equal(back.kernel_form, cert.kernel_form)
    assert back.rank == cert.rank
    assert verify_certificate(back, cycle_graph(5))
    broken = dict(obj)
    broken["kernel_form"] = obj["kernel_form"][:-1]
    with pytest.raises(InputError):
        load_certificate(broken)
    missing = {k: v for k, v in obj.items() if k != "weights"}
    with pytest.raises(InputError):
        load_certificate(missing)


def test_polygon_loader():
    poly = load_polygon({"vertices": [[0, 0], [2, 0], [0, 2]]})
    assert poly.vertices == ((0, 0), (2, 0), (0, 2))
    with pytest.raises(InputError):
        load_polygon({"vertices": [[0, 0], [2.5, 0], [0, 2]]})
    with pytest.raises(InputError):
        load_polygon({"vertices": "triangle"})


def test_moment_operator_loader():
    obj = {"num_vars": 3, "degree": 2, "basis": "grlex",
           "rows": np.eye(6).tolist()}
    op = load_moment_operator(obj)
    assert op.num_vars == 3 and op.degree == 2
    with pytest.raises(InputError):
        load_moment_operator({**obj, "basis": "grevlex"})
    with pytest.raises(InputError):
        load_moment_operator({**obj, "rows": np.eye(5).tolist()})
    lopsided = np.eye(6)
    lopsided[0, 1] = 0.5
    with pytest.raises(InputError):
        load_moment_operator({**obj, "rows": lopsided.tolist()})


def test_canonical_dumps_is_deterministic():
    payload = {"b": np.float64(1.5), "a": np.arange(3), "c": {"y": 2, "x": (1, 2)}}
    text = canonical_dumps(payload)
    assert text == canonical_dumps(payload)
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [0, 1, 2], "b": 1.5, "c": {"x": [1, 2], "y": 2}}
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    with pytest.raises(ValueError):
        canonical_dumps({"x": math.inf})


def test_canonical_dumps_converts_numpy_values_once():
    assert canonical_dumps(np.int64(3)) == "3\n"
    assert canonical_dumps(np.float32(0.5)) == "0.5\n"
    assert canonical_dumps(np.float64(0.1)) == "0.1\n"
    payload = {"i": np.int64(-2), "x": [np.float32(0.25), (np.float64(1.5), np.arange(2))],
               "m": {"rows": np.eye(2)}, "t": (np.int64(1), [np.zeros(1)])}
    assert json.loads(canonical_dumps(payload)) == {
        "i": -2, "x": [0.25, [1.5, [0, 1]]], "m": {"rows": [[1.0, 0.0], [0.0, 1.0]]},
        "t": [1, [[0.0]]],
    }
    cert = cycle_extreme_ray(4)
    assert canonical_dumps({"c": [cert]}) == canonical_dumps({"c": [dump_certificate(cert)]})
    with pytest.raises(TypeError):
        canonical_dumps({"x": object()})
    with pytest.raises(TypeError):
        canonical_dumps({"x": {1, 2}})
    for nan in (np.float64("nan"), np.float32("nan"), np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            canonical_dumps({"x": nan})


def test_render_index():
    assert render_index(3) == 3
    assert render_index(np.int64(7)) == 7
    assert render_index(math.inf) == "infinity"
    assert isinstance(render_index(2), int)
