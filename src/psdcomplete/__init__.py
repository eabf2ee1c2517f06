"""PSD completion of graph-patterned partial matrices.

The package decides when a partial symmetric matrix (diagonal plus one value
per edge of a pattern graph) extends to a positive semidefinite matrix,
builds the completion on chordal patterns, certifies failures with extreme
rays supported on chordless cycles, and relates the pattern's combinatorics
(shortest chordless cycle length) to index bounds that also govern lattice
polygons and truncated moment operators.
"""

from .completion import (
    CompletionReport,
    PartialSymmetricMatrix,
    PDExistenceVerdict,
    chordal_complete,
    complete_or_certify,
    completion_residual,
    partially_positive,
    pd_completion_exists,
)
from .errors import (
    CertificateNotSupported,
    DegenerateConfiguration,
    DegeneratePolygon,
    GramMismatch,
    IndexUndefined,
    InputError,
    InvalidCycleLength,
    InvalidDegree,
    NotChordal,
    NotEnoughPoints,
    NotPartiallyPositive,
    NotPSD,
    NotSymmetric,
    PatternMismatch,
    PsdCompleteError,
)
from .graphs import (
    CliqueTree,
    Graph,
    InducedCycle,
    clique_number,
    clique_tree,
    cycle_graph,
    green_lazarsfeld_index,
    hankel_index,
    induced_cycles_of_length,
    is_chordal,
    maximal_cliques,
    rooted_clique_order,
    shortest_induced_cycle,
)
from .linalg import (
    DEFAULT_TOL,
    affine_psd_feasibility,
    align_gram,
    check_symmetric,
    gram_factor,
    numeric_rank,
    psd_min_eig,
)
from .moments import (
    LatticePolygon,
    MomentOperator,
    boundary_lattice_points,
    moment_basis,
    moment_representable,
    park_n2p_bound,
    point_evaluation_vector,
    toric_gl_index,
    toric_hankel_lower_bound,
    veronese_p2_indices,
)
from .rays import (
    ExtremeRayCertificate,
    cycle_extreme_ray,
    embed_certificate,
    extreme_ray_from_points,
    pair,
    verify_certificate,
)
from .serialize import (
    canonical_dumps,
    dump_certificate,
    dump_graph,
    dump_matrix,
    dump_partial,
    load_certificate,
    load_graph,
    load_json_file,
    load_matrix,
    load_moment_operator,
    load_partial,
    load_polygon,
    render_index,
)

__version__ = "0.1.0"
