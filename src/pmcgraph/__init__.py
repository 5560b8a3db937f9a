"""Prescribed-mean-curvature graphs over flat bases: grids, operators, solver."""

__version__ = "0.1.0"

from .expr import EvalDomainError, ParseError, parse_expr
from .grid import (
    BaseGrid,
    ScalarField,
    build_grid,
    constant_field,
    field_from_expr,
    read_field_csv,
    refine_grid,
    sup_norm,
    write_field_csv,
)
from .calculus import (
    graph_laplacian,
    integrate,
    mean_curvature_product,
    quadrature_weights,
)
from .pmc import (
    PMCFunction,
    QuasiDecomposition,
    WorkingBox,
    check_monotone,
    check_quasi_decreasing,
    graph_normal_env,
    parse_pmc,
    pmc_residual,
)
from .geometry import (
    ConformalFactor,
    WarpedProfile,
    conformal_mean_curvature,
    conformal_transform_pmc,
    divergence_oracle,
    jacobi_residual,
    second_fundamental_norm,
    warped_to_conformal,
)
from .solver import (
    BarrierPair,
    MonotonicityError,
    SolveConfig,
    SolverFailure,
    assemble_jacobian,
    barriers_from_phi,
    check_barrier,
    gamma_for,
    outer_iterate,
    solve_inner,
    solve_quasi,
)
from .analysis import (
    RefinementReport,
    area_functional,
    blowup_diagnostics,
    domain_volume,
    mesh_area_oracle,
    total_variation,
)
