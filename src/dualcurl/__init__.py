"""Mimetic spectral element discretization of the equivalent 2D curl-curl
problems on the reference square, with algebraic dual polynomial bases."""

from .curlcurl import (
    AnalyticField,
    BoundaryData,
    Solution,
    Discretization,
    exponential_pair,
    plane_wave,
    project_boundary_data,
    solve_neumann,
    solve_dirichlet,
    solve_both,
    solve_degree,
    norm_F,
    norm_E,
    reconstruct,
    error_norms,
)
# the benchmark's tracer reads sys.modules["dualcurl.cli"]; test_import_loads_the_cli pins it
from . import cli

__version__ = "0.1.0"
