"""Mimetic spectral element discretization of the equivalent 2D curl-curl
problems on the reference square, with algebraic dual polynomial bases."""

from .basis1d import (
    NodeSet1D,
    QuadratureRule1D,
    gll_nodes,
    gauss_rule,
    legendre_eval,
    lagrange_eval,
    lagrange_deriv,
    edge_eval,
)
from .operators2d import (
    DofLayout,
    build_incidence,
    build_trace,
    side_dof_indices,
)
from .galerkin import (
    GramSet,
    assemble_mass0,
    assemble_mass1,
    assemble_boundary_mass,
    spd_solve,
)
from .curlcurl import (
    AnalyticField,
    BoundaryData,
    Solution,
    Discretization,
    exponential_pair,
    project_boundary_data,
    solve_neumann,
    solve_dirichlet,
    solve_both,
    weak_curl,
    norm_F,
    norm_E,
    reconstruct,
    error_norms,
)
from .cli import StudyConfig, StudyReport, run_study, emit_fig2, self_check, theoretical_norm

__version__ = "0.1.0"
