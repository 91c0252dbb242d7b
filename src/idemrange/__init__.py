"""Orthogonal range searching in the idempotent semigroup model.

Linear-storage structures for (d+k)-sided queries, exact per-query cost
accounting (semigroup additions only), well-distributed point machinery,
and an adversarial-query stress harness.
"""

from .errors import (
    DimensionMismatch,
    EmptyAggregate,
    IneligibleSum,
    MalformedQuery,
    TooLarge,
    Unsupported,
)
from .geometry import NEG_INF, Box, PointD, QueryAnswer, box_contains_point, box_volume
from .semigroup import (
    BIT_OR64,
    ID_SET,
    MAX_REAL,
    SEMIGROUPS,
    Semigroup,
    combine_all,
    fold_values,
    semigroup_by_name,
)
from .points import (
    WdReport,
    WeightedPointSet,
    check_well_distributed,
    hammersley_wd,
    load_point_set,
    save_point_set,
    uniform_random,
)
from .cwd import CwdFamily, CwdReport, build_cwd_family, family_union, load_cwd, save_cwd, verify_cwd
from .dyadic import DyadicTree, Node, PrefixCoverPair, balanced_prefix_cover, build_dyadic_tree, suffix_cover
from .dominance import DominanceStructure, build_dominance, dominance_cover, dominance_query, maxima
from .idsstruct import (
    AnchoredPiece,
    IdsConfig,
    IdsStructure,
    box_of,
    build_ids,
    decompose_query,
    query,
    usable_sums,
)
from .lb import (
    HardQuery,
    PlacedSum,
    RepDiagram,
    Subproblem,
    bounding_sum_box,
    build_rep_diagram,
    check_rates,
    count_defined_subproblems,
    eligible_sums,
    extension,
    lambda_points,
    min_cover,
    min_cover_enumerate,
    place_sum,
    place_sum_diagram,
    place_sums,
    sample_hard_queries,
    sample_hard_query,
    subproblem,
    top_box,
)
from .brute import scan_ids, scan_mask, scan_value

__version__ = "0.1.0"
