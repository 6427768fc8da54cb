"""Random pentagonal chain networks: construction, indices, moments.

A pentagonal chain is n five-cycles linked in a path by bridge edges, with a
two-way random choice of attachment vertex at every step from the third
pentagon on.  The package builds and enumerates such chains, computes six
distance- and resistance-based topological indices through independent
engines (breadth-first distances, Laplacian resistances, a structured
cut-edge engine, and an O(n) affine-in-T2 engine), evaluates closed-form
expectation and variance formulas, and checks them against the exact law of
T2 (a dynamic program over the mode-2 weight sum that every index is affine
in) and seeded Monte Carlo, including an empirical normality test of the
standardized indices.
"""

from .chain import (
    AttachmentMode,
    ChainBlueprint,
    PentagonChainGraph,
    ProbabilityParams,
    all_mode_blueprint,
    attachment_positions,
    build_graph,
    enumerate_blueprints,
    sample_blueprint,
    vertex_id,
)
from .cli import RunConfig, cmd_generate, cmd_indices, cmd_report, main, verify_engines
from .closedform import (
    DISCREPANCIES,
    Discrepancy,
    SequenceKind,
    Source,
    discrepancies_for,
    expected_index,
    fitted_expectation_coefficients,
    interpolate_polynomial,
    sequence_values,
    variance_index,
)
from .distribution import (
    ExactDistribution,
    NormalityResult,
    SampleStats,
    Standardization,
    exact_distribution,
    ks_statistic,
    monte_carlo,
    normality_test,
    sample_values,
)
from .indices import (
    MOMENT_INDICES,
    IndexBundle,
    IndexKind,
    affine_in_t2,
    compute_indices,
    incremental_indices,
    t2_of_blueprint,
    t2_weights,
)
from .metrics import (
    MetricKind,
    MetricMatrix,
    bfs_all_pairs,
    laplacian_resistance,
    structured_metrics,
)
from .report import (
    MomentReport,
    MomentRow,
    expectation_grid_csv,
    moment_report,
    report_csv,
    report_json,
    report_text,
    triggered_discrepancies,
    unexplained_failures,
    verification_table,
)

__version__ = "0.1.0"
