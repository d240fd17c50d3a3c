"""Martingale optimal transport on the line with an information lift.

Finitely supported measures, convex-order machinery, LP-based solvers
for plain/lifted/convex-cost martingale transport, American and VIX
pricing bounds, shadow couplings, a constructive coupling approximation
pipeline, and a stability experiment harness.
"""

from .measures import (
    DiscreteMeasure,
    LiftedMeasure,
    QuantileView,
    check_convex_order,
    mean,
    quantile_discretize,
    total_variation,
    wasserstein_line,
)
from .convex_order import (
    ConvexOrderError,
    IrreducibleComponent,
    binary_kernel,
    convex_min,
    convex_order_projection,
    irreducible_decomposition,
    w1_binary,
    window_kernel,
)
from .lp_core import (
    CertificateError,
    DimensionGuardError,
    LinearProgram,
    LPError,
    LPSolution,
    enumerate_vertices,
    solve_lp,
    transport_plan,
)
from .couplings import (
    DiscreteCoupling,
    adapted_wasserstein,
    check_martingale,
    disintegrate,
    hausdorff_mot,
    wasserstein_coupling,
)
from .solvers import (
    BarrierMaps,
    CostSpec,
    barrier_monotonicity_violation,
    copula_lift,
    extract_barriers,
    left_monotone_violation,
    price_american,
    shadow_coupling,
    solve_extended_mot,
    solve_mot,
    solve_wmot_fw,
    vix_dual_lp,
    vix_primal_lp,
)
from .approximation import (
    approximate_coupling,
    approximate_pairs,
    min_cost_martingale_rearrangement,
    split_marginals,
)
from .stability import (
    ConfigError,
    ExperimentConfig,
    StabilityReport,
    emit,
    run_stability,
)

__version__ = "0.1.0"
