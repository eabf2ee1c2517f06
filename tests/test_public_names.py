"""The package's public names, pinned so that an export is added or dropped only on purpose."""

import types

import psdcomplete

PUBLIC_NAMES = [
    "CertificateNotSupported", "CliqueTree", "CompletionReport", "DEFAULT_TOL",
    "DegenerateConfiguration", "DegeneratePolygon", "ExtremeRayCertificate",
    "GramMismatch", "Graph", "IndexUndefined", "InducedCycle", "InputError",
    "InvalidCycleLength", "LatticePolygon", "MomentOperator", "NotChordal",
    "NotEnoughPoints", "NotPSD", "NotPartiallyPositive", "NotSymmetric",
    "PDExistenceVerdict", "PartialSymmetricMatrix", "PatternMismatch",
    "PsdCompleteError", "affine_psd_feasibility", "align_gram",
    "boundary_lattice_points", "canonical_dumps", "check_symmetric",
    "chordal_complete", "clique_number", "clique_tree", "complete_or_certify",
    "completion_residual", "cycle_extreme_ray", "cycle_graph", "dump_certificate",
    "dump_graph", "dump_matrix", "dump_partial", "embed_certificate",
    "extreme_ray_from_points", "gram_factor", "green_lazarsfeld_index",
    "hankel_index", "induced_cycles_of_length", "is_chordal", "load_certificate",
    "load_graph", "load_json_file", "load_moment_operator", "load_partial",
    "load_polygon", "maximal_cliques", "moment_basis", "moment_representable",
    "numeric_rank", "pair", "partially_positive", "pd_completion_exists",
    "point_evaluation_vector", "psd_min_eig", "render_index", "rooted_clique_order",
    "shortest_induced_cycle", "toric_gl_index", "toric_hankel_lower_bound",
    "verify_certificate",
]


def test_public_names_are_pinned():
    exported = sorted(name for name, value in vars(psdcomplete).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES
