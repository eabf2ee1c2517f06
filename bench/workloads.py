"""The five workloads: their operations, inputs and output checks.

``build(name, rng, workdir)`` returns the list of operations of one
round. A run repeats whole rounds, so every run attempts the same mix and
the share of failed operations is the same in every run. Each operation's
``check`` runs outside the timed region; it returns True when the operation
failed in the counted sense (an ``undetermined`` answer) and raises
``CheckFailure`` when an output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import networkx as nx
import numpy as np

import psdcomplete
from psdcomplete import cli
from checks import (
    CheckFailure,
    require,
    check_completion,
    check_cycle_certificate,
    check_pd_witness,
    check_ray_report,
    chordal_clique_number,
    clique_number,
    hard_cycle_pairing,
    is_chordless_cycle,
    moment_matrix,
    numeric_rank,
    shortest_chordless_cycle,
)
from inputs import (
    Instance,
    atlas_nonchordal,
    gram,
    hard_cycle_matrix,
    make_instance,
    planted_cycle_graph,
    random_chordal_graph,
    random_nonchordal_graph,
    relabel,
)

# (vertices, largest clique, rank of B; None for full rank). Sizes and clique
# caps are fixed so that every seed gives a round of about the same cost; the
# seed draws the trees, labels and data. Each shape is drawn CHORDAL_COPIES
# times per round, so the round's cost and median do not hang on one draw.
CHORDAL_SHAPES = ((24, 4, 2), (32, 8, None), (48, 3, 3), (64, 12, 4), (96, 6, None),
                  (128, 16, 8), (160, 5, 2), (200, 10, None), (200, 24, 6))
CHORDAL_COPIES = 3

# Random non-chordal patterns of the feasible workload: (vertices, edges).
# The atlas and these are drawn FEASIBLE_COPIES times per round.
FEASIBLE_RANDOM = ((10, 15), (16, 28), (24, 48), (32, 64), (40, 90), (40, 160))
FEASIBLE_COPIES = 2
# Seeded feasible data sits strictly inside the PSD cone; on boundary data
# the search stalls on some seeds and not on others.
INTERIOR_RIDGE = 0.5
# Rank-2 data on these atlas graphs, drawn from a fixed seed that the
# benchmark seed does not touch. On atlas graphs 3, 13 and 22 the search
# stalls (still at 40,000 iterations) and complete_or_certify answers
# "undetermined" although the data has a completion: those are the counted
# failures. Graphs 9, 12 and 14 complete in under 5,000 iterations.
FIXED_LOW_RANK = (3, 9, 12, 13, 14, 22)
FIXED_SEED = 1607

# Hard-cycle patterns of the infeasible workload: ("cycle", m),
# ("petersen", 5) or ("planted", m, extra simplicial vertices).
INFEASIBLE_SHAPES = (("cycle", 4), ("cycle", 5), ("cycle", 6), ("cycle", 8),
                     ("cycle", 12), ("cycle", 16), ("petersen", 5),
                     ("planted", 4, 10), ("planted", 6, 16))

# The default max_iter (10,000) makes one PD bisection take 8-22 s, too long
# for a run to hold several; 200 keeps all 40 steps and every branch. How
# many bisection steps fail depends on the data, so a round holds a dozen
# "yes" instances to even that out.
PD_MAX_ITER = 200
PD_HARD_VALUE = 0.99
PD_YES_SHAPES = (("cycle", 4), ("cycle", 5), ("cycle", 6), ("cycle", 7), ("cycle", 8),
                 ("petersen", 5), ("planted", 4, 4), ("planted", 4, 8), ("planted", 5, 3),
                 ("planted", 5, 5), ("planted", 6, 4), ("planted", 6, 6))


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def _cycle_instance(rng, shape, data_fn) -> Instance:
    """Pattern for a ("cycle"|"petersen"|"planted", m, ...) shape, with data_fn(G, cycle)."""
    kind, m = shape[0], shape[1]
    if kind == "planted":
        G, cycle = planted_cycle_graph(rng, m, shape[2])
    elif kind == "cycle":
        G, cycle = planted_cycle_graph(rng, m, 0)
    else:
        G, perm = relabel(rng, nx.petersen_graph())
        cycle = tuple(perm[:5])
    return make_instance(f"{kind}{m}n{G.number_of_nodes()}", G, data_fn(G, cycle), cycle)


def _hard(rng, shape, value: float = 1.0) -> tuple[Instance, int]:
    negative = int(rng.integers(shape[1]))
    inst = _cycle_instance(rng, shape, lambda G, c: hard_cycle_matrix(G, c, negative, value))
    return inst, negative


def _shortest_cycle(inst: Instance, cache: dict) -> int:
    if "m" not in cache:
        cache["m"] = shortest_chordless_cycle(inst.G)
    return cache["m"]


def _expect_completed(inst: Instance, chordal: bool = False):
    """Completed, matching and PSD; on chordal patterns, of rank at most the clique number."""
    cache = {}

    def check(rep) -> bool:
        if rep.verdict == "undetermined":
            return True
        require(rep.verdict == "completed",
                f"{inst.label}: verdict {rep.verdict} on data with a completion")
        if chordal and "omega" not in cache:
            cache["omega"] = chordal_clique_number(inst.G)
        check_completion(rep.completion, inst.data, inst.mask, cache.get("omega"))
        return False
    return check


def _expect_certificate(inst: Instance):
    cache = {}

    def check(rep) -> bool:
        if rep.verdict == "undetermined":
            return True
        require(rep.verdict == "infeasible" and rep.certificate is not None,
                f"{inst.label}: verdict {rep.verdict} on hard-cycle data")
        m = _shortest_cycle(inst, cache)
        check_cycle_certificate(rep.certificate.tau, inst.data, inst.G, m)
        require(abs(rep.separating_value + 4.0 / (m - 1)) <= 1e-12,
                f"{inst.label}: separating value {rep.separating_value}")
        return False
    return check


def _complete_op(inst: Instance, check) -> Op:
    return Op(inst.label, lambda: psdcomplete.complete_or_certify(inst.graph, inst.partial),
              check)


def build_chordal(rng) -> list:
    ops = []
    for copy in range(CHORDAL_COPIES):
        for n, k, rank in CHORDAL_SHAPES:
            G = random_chordal_graph(rng, n, k)
            inst = make_instance(f"chordal{n}k{k}r{rank}#{copy}", G, gram(rng, n, rank or n))
            ops.append(_complete_op(inst, _expect_completed(inst, chordal=True)))
    return ops


def build_feasible(rng) -> list:
    ops = []
    atlas = atlas_nonchordal()
    for copy in range(FEASIBLE_COPIES):
        for k, G in enumerate(atlas):
            n = G.number_of_nodes()
            inst = make_instance(f"atlas{k}#{copy}", G, gram(rng, n, n, INTERIOR_RIDGE))
            ops.append(_complete_op(inst, _expect_completed(inst)))
        for n, e in FEASIBLE_RANDOM:
            G = random_nonchordal_graph(rng, n, e)
            inst = make_instance(f"random{n}m{e}#{copy}", G, gram(rng, n, n, INTERIOR_RIDGE))
            ops.append(_complete_op(inst, _expect_completed(inst)))
    for k in FIXED_LOW_RANK:
        G = atlas[k]
        fixed = np.random.default_rng((FIXED_SEED, k))
        inst = make_instance(f"atlas{k}rank2", G, gram(fixed, G.number_of_nodes(), 2))
        ops.append(_complete_op(inst, _expect_completed(inst)))
    return ops


def build_infeasible(rng) -> list:
    ops = []
    for shape in INFEASIBLE_SHAPES:
        inst, _ = _hard(rng, shape)
        ops.append(_complete_op(inst, _expect_certificate(inst)))
    return ops


def _pd_op(inst: Instance, check) -> Op:
    return Op(inst.label,
              lambda: psdcomplete.pd_completion_exists(inst.graph, inst.partial,
                                                       max_iter=PD_MAX_ITER),
              check)


def _expect_pd_yes(inst: Instance):
    def check(v) -> bool:
        if v.answer == "undetermined":
            return True
        require(v.answer == "yes", f"{inst.label}: answer {v.answer} on PD data")
        check_pd_witness(v.witness, inst.data, inst.mask)
        return False
    return check


def _expect_pd_no(inst: Instance, condition: str, proof: Callable[[], None]):
    def check(v) -> bool:
        if v.answer == "undetermined":
            return True
        require(v.answer == "no" and v.failed_condition == condition,
                f"{inst.label}: answer {v.answer} ({v.failed_condition}), "
                f"expected no ({condition})")
        proof()
        return False
    return check


def build_pd(rng) -> list:
    G = random_chordal_graph(rng, 40, 6)
    chordal = make_instance("pd-chordal40", G, gram(rng, 40, 40, INTERIOR_RIDGE))
    ops = [_pd_op(chordal, _expect_pd_yes(chordal))]

    G = random_chordal_graph(rng, 30, 5)
    a = gram(rng, 30, 30, INTERIOR_RIDGE)
    i, j = sorted(G.edges())[int(rng.integers(G.number_of_edges()))]
    a[i, j] = a[j, i] = 1.5 * np.sqrt(a[i, i] * a[j, j])
    block = make_instance("pd-block30", G, a)

    def block_proof():
        worst = min(float(np.linalg.eigvalsh(block.data[np.ix_(c, c)])[0])
                    for c in nx.find_cliques(block.G))
        require(worst < 0.0, "no clique block of the data is indefinite")
    ops.append(_pd_op(block, _expect_pd_no(block, "clique_block", block_proof)))

    # Cycle entries of 0.99 keep every clique block PD, so the answer comes
    # from the certificate scan (rank_bound), not from the block scan.
    hard, negative = _hard(rng, ("planted", 5, 6), PD_HARD_VALUE)

    def hard_proof():
        require(hard_cycle_pairing(hard.data, hard.cycle, negative) < 0,
                "the cycle ray does not refute the data")
    ops.append(_pd_op(hard, _expect_pd_no(hard, "rank_bound", hard_proof)))

    for shape in PD_YES_SHAPES:
        inst = _cycle_instance(
            rng, shape, lambda G, c: gram(rng, G.number_of_nodes(), G.number_of_nodes(),
                                          INTERIOR_RIDGE))
        ops.append(_pd_op(inst, _expect_pd_yes(inst)))
    return ops


# --- cli ---------------------------------------------------------------------

def _write(workdir: str, name: str, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _graph_json(G) -> dict:
    return {"n": G.number_of_nodes(), "edges": [[int(i), int(j)] for i, j in sorted(G.edges())]}


def _partial_json(inst: Instance) -> dict:
    n = inst.data.shape[0]
    return {"n": n, "diag": [float(x) for x in np.diagonal(inst.data)],
            "entries": [[int(i), int(j), float(inst.data[i, j])]
                        for i, j in sorted(inst.G.edges())]}


def _cli_check(label: str, want_code: int, body: Callable[[dict], None]):
    def check(out) -> bool:
        code, text = out
        require(code == want_code, f"{label}: exit code {code}, expected {want_code}")
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailure(f"{label}: output is not JSON ({exc})") from None
        body(report)
        return False
    return check


def run_cli(argv: list) -> tuple[int, str]:
    """``cli.main(argv)`` in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# Sizes of the cli inputs. They are fixed so that every seed gives a round of
# the same cost; the seed draws the graphs, labels and data.
CLI_CYCLE = (6, 120)         # analyze-graph: cycle length, simplicial vertices
CLI_CHORDAL = (120, 8)       # analyze-graph: vertices, largest clique
CLI_HARD_CYCLE = (5, 4)      # complete and pd-exists on hard-cycle data
CLI_COMPLETE = (120, 8, 3)   # complete: vertices, largest clique, rank of B
CLI_PD = (60, 6)             # pd-exists: vertices, largest clique
CLI_RAY = 40
CLI_TRIANGLE = 4
CLI_ATOMS = 3


def build_cli(rng, workdir: str) -> list:
    """Every subcommand through ``cli.main``, on small JSON inputs written to ``workdir``."""
    ops = []
    expected = {}

    def once(key, compute):
        """What a check derives from its input alone, computed once per run."""
        if key not in expected:
            expected[key] = compute()
        return expected[key]

    def add(label, argv, want_code, body):
        ops.append(Op(label, lambda: run_cli(argv), _cli_check(label, want_code, body)))

    G, _ = planted_cycle_graph(rng, *CLI_CYCLE)
    path = _write(workdir, "cyclic_graph.json", _graph_json(G))

    def analyze_cyclic(r, G=G):
        want_m, omega = once("analyze-cyclic",
                             lambda: (shortest_chordless_cycle(G), clique_number(G)))
        require(r["chordal"] is False, "analyze-graph calls a cyclic pattern chordal")
        require(r["clique_number"] == omega, "analyze-graph clique number")
        require(is_chordless_cycle(G, r["shortest_induced_cycle"])
                and len(r["shortest_induced_cycle"]) == want_m,
                "analyze-graph cycle is not a shortest chordless cycle")
        require(r["hankel_index"] == want_m - 2 and r["gl_index"] == want_m - 3,
                f"analyze-graph indices {r['gl_index']}, {r['hankel_index']} on m={want_m}")
    add("analyze-cyclic", ["analyze-graph", "--graph", path], 0, analyze_cyclic)

    C = random_chordal_graph(rng, *CLI_CHORDAL)
    path = _write(workdir, "chordal_graph.json", _graph_json(C))

    def analyze_chordal(r, C=C):
        require(r["chordal"] is True and r["shortest_induced_cycle"] is None,
                "analyze-graph misses chordality")
        require(r["hankel_index"] == "infinity" and r["gl_index"] == "infinity",
                "analyze-graph indices on a chordal pattern")
        require(r["clique_number"] == once("analyze-chordal", lambda: chordal_clique_number(C)),
                "analyze-graph clique number")
    add("analyze-chordal", ["analyze-graph", "--graph", path], 0, analyze_chordal)

    hard, _ = _hard(rng, ("planted", *CLI_HARD_CYCLE))
    gpath = _write(workdir, "hard_graph.json", _graph_json(hard.G))
    ppath = _write(workdir, "hard_partial.json", _partial_json(hard))

    def complete_hard(r, hard=hard):
        require(r["verdict"] == "infeasible" and r["certificate"] is not None,
                f"complete answers {r['verdict']} on hard-cycle data")
        m = once("complete-hard", lambda: shortest_chordless_cycle(hard.G))
        check_cycle_certificate(np.array(r["certificate"]["tau"]), hard.data, hard.G, m)
    add("complete-hard", ["complete", "--graph", gpath, "--partial", ppath], 1, complete_hard)

    def pd_hard(r):
        require(r["answer"] == "no", f"pd-exists answers {r['answer']} on hard-cycle data")
    add("pd-hard", ["pd-exists", "--graph", gpath, "--partial", ppath], 1, pd_hard)

    n, k, rank = CLI_COMPLETE
    F = random_chordal_graph(rng, n, k)
    feas = make_instance("cli-chordal", F, gram(rng, n, rank))
    gpath = _write(workdir, "feasible_graph.json", _graph_json(F))
    ppath = _write(workdir, "feasible_partial.json", _partial_json(feas))

    def complete_feasible(r, feas=feas):
        require(r["verdict"] == "completed", f"complete answers {r['verdict']}")
        check_completion(np.array(r["completion"]), feas.data, feas.mask,
                         once("complete-chordal", lambda: chordal_clique_number(feas.G)))
    add("complete-chordal", ["complete", "--graph", gpath, "--partial", ppath], 0,
        complete_feasible)

    n, k = CLI_PD
    P = random_chordal_graph(rng, n, k)
    pdi = make_instance("cli-pd", P, gram(rng, n, n, INTERIOR_RIDGE))
    gpath = _write(workdir, "pd_graph.json", _graph_json(P))
    ppath = _write(workdir, "pd_partial.json", _partial_json(pdi))

    def pd_yes(r, pdi=pdi):
        require(r["answer"] == "yes", f"pd-exists answers {r['answer']} on PD data")
        check_pd_witness(np.array(r["witness"]), pdi.data, pdi.mask)
    add("pd-chordal", ["pd-exists", "--graph", gpath, "--partial", ppath], 0, pd_yes)

    ray_m = CLI_RAY
    add("extreme-ray", ["extreme-ray", "--cycle", str(ray_m)], 0,
        lambda r, m=ray_m: check_ray_report(r, m))

    d = CLI_TRIANGLE
    tri = _write(workdir, "triangle.json", {"vertices": [[0, 0], [d, 0], [0, d]]})

    def toric(r, d=d):
        require(r["boundary_lattice_points"] == 3 * d, f"toric count on the degree-{d} triangle")
        require(r["gl_index"] == 3 * d - 3 and r["hankel_lower_bound"] == 3 * d - 2,
                "toric indices")
    add("toric", ["toric", "--polygon", tri], 0, toric)

    # Degree-2 moments in 3 variables against the degree-2 triangle, whose
    # Hankel bound is 3*2 - 2 = 4: fewer than 4 atoms are representable.
    quad = _write(workdir, "triangle2.json", {"vertices": [[0, 0], [2, 0], [0, 2]]})
    atoms = rng.standard_normal((CLI_ATOMS, 3))
    mom = moment_matrix(atoms.tolist(), 2)
    path = _write(workdir, "moment.json", {"num_vars": 3, "degree": 2, "basis": "grlex",
                                          "rows": mom.tolist()})

    def moment_ok(r, mom=mom):
        want = numeric_rank(mom)
        require(r["verdict"] == "representable" and r["rank"] == want,
                f"moment-check {r['verdict']} rank {r['rank']}, expected rank {want}")
    add("moment-representable", ["moment-check", "--moment", path, "--polygon", quad], 0,
        moment_ok)

    bad = mom - (1.0 + float(np.trace(mom))) * np.outer(*(2 * [np.ones(6) / np.sqrt(6)]))
    path = _write(workdir, "moment_bad.json", {"num_vars": 3, "degree": 2, "basis": "grlex",
                                              "rows": bad.tolist()})

    def moment_bad(r, bad=bad):
        require(float(np.linalg.eigvalsh(bad)[0]) < 0, "moment data is not indefinite")
        require(r["verdict"] == "not_psd", f"moment-check {r['verdict']} on indefinite data")
    add("moment-not-psd", ["moment-check", "--moment", path, "--polygon", quad], 1, moment_bad)
    return ops


def build(name: str, rng, workdir: str) -> list:
    if name == "cli":
        return build_cli(rng, workdir)
    return {"chordal": build_chordal, "feasible": build_feasible,
            "infeasible": build_infeasible, "pd": build_pd}[name](rng)
