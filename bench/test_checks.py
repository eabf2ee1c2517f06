"""Each output check accepts the program's real output and rejects a corrupted one.

    python3 -m pytest -q bench
"""

import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import psdcomplete  # noqa: E402
from checks import (  # noqa: E402
    CheckFailure,
    check_completion,
    check_cycle_certificate,
    check_pd_witness,
    check_ray_report,
    chordal_clique_number,
    hard_cycle_pairing,
    shortest_chordless_cycle,
)
from inputs import (  # noqa: E402
    gram,
    hard_cycle_matrix,
    make_instance,
    planted_cycle_graph,
    random_chordal_graph,
)
from run import WORKLOADS  # noqa: E402
from workloads import _cli_check, build  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def chordal_case(rng):
    G = random_chordal_graph(rng, 30, 5)
    inst = make_instance("t", G, gram(rng, 30, 3))
    rep = psdcomplete.complete_or_certify(inst.graph, inst.partial)
    return inst, rep.completion.copy(), chordal_clique_number(G)


def hard_case(rng, m=6, extra=5):
    G, cycle = planted_cycle_graph(rng, m, extra)
    inst = make_instance("t", G, hard_cycle_matrix(G, cycle, 2), cycle)
    rep = psdcomplete.complete_or_certify(inst.graph, inst.partial)
    return inst, rep.certificate.tau.copy(), m


def test_completion_check_accepts_program_output(rng):
    inst, a, omega = chordal_case(rng)
    check_completion(a, inst.data, inst.mask, omega)


def test_completion_check_rejects_flipped_entry(rng):
    inst, a, omega = chordal_case(rng)
    i, j = next(iter(inst.G.edges()))
    a[i, j] = a[j, i] = -a[i, j]
    with pytest.raises(CheckFailure, match="deviates"):
        check_completion(a, inst.data, inst.mask, omega)


def test_completion_check_rejects_clipped_eigenvalue(rng):
    inst, a, _ = chordal_case(rng)
    w, v = np.linalg.eigh(a)
    w[0] = -1e-3 * w[-1]
    with pytest.raises(CheckFailure):
        check_completion((v * w) @ v.T, inst.data, inst.mask)


def test_completion_check_rejects_rank_above_clique_number(rng):
    inst, a, omega = chordal_case(rng)
    bumped = a + 1e-3 * np.ones_like(a) - 1e-3 * np.eye(len(a))
    with pytest.raises(CheckFailure):
        check_completion(bumped, inst.data, inst.mask, omega)
    with pytest.raises(CheckFailure, match="rank"):
        check_completion(a, inst.data, inst.mask, 2)


def test_certificate_check_accepts_program_output(rng):
    inst, tau, m = hard_case(rng)
    assert shortest_chordless_cycle(inst.G) == m
    check_cycle_certificate(tau, inst.data, inst.G, m)


def test_certificate_check_rejects_sign_flip(rng):
    inst, tau, m = hard_case(rng)
    with pytest.raises(CheckFailure, match="eigenvalue"):
        check_cycle_certificate(-tau, inst.data, inst.G, m)


def test_certificate_check_rejects_mass_off_pattern(rng):
    inst, tau, m = hard_case(rng)
    n = len(tau)
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                if not inst.G.has_edge(i, j))
    tau[i, j] = tau[j, i] = 1e-6
    with pytest.raises(CheckFailure):
        check_cycle_certificate(tau, inst.data, inst.G, m)


def test_certificate_check_rejects_wrong_pairing_and_rank(rng):
    inst, tau, m = hard_case(rng)
    with pytest.raises(CheckFailure, match="pairs to"):
        check_cycle_certificate(2.0 * tau, inst.data, inst.G, m)
    with pytest.raises(CheckFailure, match="rank"):
        check_cycle_certificate(tau, inst.data, inst.G, m + 1)


def test_hard_cycle_pairing_is_exact(rng):
    inst, _, m = hard_case(rng, m=7)
    assert hard_cycle_pairing(inst.data, inst.cycle, 2) == Fraction(-4, 6)


def test_petersen_shortest_cycle():
    assert shortest_chordless_cycle(nx.petersen_graph()) == 5


def test_pd_witness_check(rng):
    G, _ = planted_cycle_graph(rng, 4, 3)
    inst = make_instance("t", G, gram(rng, 7, 7, 0.5))
    v = psdcomplete.pd_completion_exists(inst.graph, inst.partial, max_iter=300)
    check_pd_witness(v.witness, inst.data, inst.mask)
    # A matrix matching its own data whose smallest eigenvalue is clipped
    # just below zero is not a PD witness.
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    w = np.array([-1e-9, 1, 2, 3, 4, 5, 6.0])
    clipped = (q * w) @ q.T
    with pytest.raises(CheckFailure, match="smallest eigenvalue"):
        check_pd_witness(clipped, clipped, np.ones((7, 7), dtype=bool))


def test_ray_report_check():
    from psdcomplete import cycle_extreme_ray, dump_certificate
    report = dump_certificate(cycle_extreme_ray(6))
    check_ray_report(report, 6)
    report["tau"][0][1] = -report["tau"][0][1]
    with pytest.raises(CheckFailure, match="tau"):
        check_ray_report(report, 6)


def test_cli_check_requires_exit_code():
    check = _cli_check("x", 1, lambda r: None)
    assert check((1, "{}")) is False
    with pytest.raises(CheckFailure, match="exit code"):
        check((0, "{}"))


def test_inputs_repeat_with_the_seed():
    def draw(seed):
        rng = np.random.default_rng(seed)
        G = random_chordal_graph(rng, 40, 6)
        return sorted(G.edges()), gram(rng, 40, 5)
    (e1, a1), (e2, a2), (e3, _) = draw(3), draw(3), draw(4)
    assert e1 == e2 and np.array_equal(a1, a2)
    assert e1 != e3


def test_every_workload_builds(tmp_path):
    for name in WORKLOADS:
        ops = build(name, np.random.default_rng(0), str(tmp_path))
        assert ops and len({op.label for op in ops}) == len(ops)
