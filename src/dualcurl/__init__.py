"""Mimetic spectral element discretization of the equivalent 2D curl-curl
problems on the reference square, with algebraic dual polynomial bases."""

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
    norm_F,
    norm_E,
    reconstruct,
    error_norms,
)
from .cli import StudyConfig, run_study, emit_fig2, self_check, theoretical_norm

__version__ = "0.1.0"
