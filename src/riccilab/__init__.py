"""Numerical laboratory for Ricci flow on homogeneous model geometries.

Curvature is algebraic on these models, so the flow is a small ODE and
every integral norm, Sobolev estimate, constant chain and inequality check
reduces to a desk-scale computation with explicit oracle tests.
"""

from .geometry import (
    CurvatureData,
    GeometryError,
    ModelGeometry,
    build_model,
    curvature,
    curvature_batch,
    diameter,
    flat_torus_model,
    heisenberg_model,
    metric_from_scales,
    orthonormalize,
    reference_metric,
    scale_metric,
    sphere_circle_model,
    volume,
)
from .sobolev import (
    GallotConstant,
    SobolevEstimate,
    gallot_upper,
    integral_ricci_deficit,
    rm_lp_norm,
    sobolev_estimate,
    sobolev_lower,
    witness_family,
    witness_norms,
)
from .flow import (
    FlowConfig,
    Trajectory,
    TrajectorySchemaError,
    integrate,
    normalize_to_unit_volume,
    parabolic_rescale,
    read_trajectory_csv,
    ricci_rhs,
    write_trajectory_csv,
)
from .constants import (
    ConstantChain,
    ConstantPrimitives,
    MoserSchedule,
    constant_chain,
    delta0,
    horizon_T0,
    moser_final_bound,
    moser_schedule,
    solve_c_n_gamma,
    theorem_c_threshold,
)
from .checks import (
    CheckReport,
    check_c0_bound,
    check_diameter_bound,
    check_holder,
    check_lp_evolution,
    check_n2_bound,
    check_scalar_identity,
    check_sobolev_along_flow,
    check_volume_identity,
    holder_suite,
    hypothesis_report,
    run_suite,
    suite_failed,
)

__version__ = "0.1.0"
