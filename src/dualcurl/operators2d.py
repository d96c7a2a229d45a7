"""Topology on the reference square: dof orderings, incidence and trace.

Degrees of freedom on [-1,1]^2 for polynomial degree N:

  nodes    (N+1)^2   index of node (i,j) is j*(N+1) + i (xi-index fastest)
  edges    2N(N+1)   xi-component block first, row (j-1)*(N+1)+i for
                     j=1..N, i=0..N; then the eta-component block offset
                     by N(N+1), row j*N + (i-1) for i=1..N, j=0..N
  boundary 4N        counter-clockwise loop starting at node (0,0)

The incidence matrix maps nodal dofs to edge dofs and encodes the discrete
curl as pure topology: it holds only entries -1, 0, +1 and is independent
of any element geometry.  The trace matrix is the 0/1 restriction of the
nodal dofs to the boundary loop.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DofLayout",
    "build_incidence",
    "build_trace",
    "side_dof_indices",
]


@dataclass(frozen=True)
class DofLayout:
    """Index bookkeeping for degree N on the reference square."""

    degree: int

    @property
    def n_nodes(self):
        return (self.degree + 1) ** 2

    @property
    def n_edges(self):
        return 2 * self.degree * (self.degree + 1)

    @property
    def n_boundary(self):
        return 4 * self.degree

    def node(self, i, j):
        return j * (self.degree + 1) + i

    def xi_edge(self, i, j):
        # j = 1..N, i = 0..N
        return (j - 1) * (self.degree + 1) + i

    def eta_edge(self, i, j):
        # i = 1..N, j = 0..N, offset past the xi block
        return self.degree * (self.degree + 1) + j * self.degree + (i - 1)


def _check_degree(N):
    if N < 1:
        raise ValueError(f"degree must be >= 1, got {N}")


def build_incidence(N):
    """Integer incidence matrix, shape (2N(N+1), (N+1)^2).

    The xi-component edge row (i,j) carries the coefficient
    F_{i,j} - F_{i,j-1}; the eta-component row carries
    -F_{i,j} + F_{i-1,j}.
    """
    _check_degree(N)
    lay = DofLayout(N)
    E = np.zeros((lay.n_edges, lay.n_nodes), dtype=np.int64)
    for j in range(1, N + 1):
        for i in range(N + 1):
            r = lay.xi_edge(i, j)
            E[r, lay.node(i, j)] = 1
            E[r, lay.node(i, j - 1)] = -1
    for j in range(N + 1):
        for i in range(1, N + 1):
            r = lay.eta_edge(i, j)
            E[r, lay.node(i - 1, j)] = 1
            E[r, lay.node(i, j)] = -1
    return E


def _boundary_loop_nodes(N):
    """Node (i,j) pairs of the 4N boundary dofs in loop order."""
    loop = [(i, 0) for i in range(N + 1)]          # south, west to east
    loop += [(N, j) for j in range(1, N + 1)]      # east, going up
    loop += [(i, N) for i in range(N - 1, -1, -1)]  # north, east to west
    loop += [(0, j) for j in range(N - 1, 0, -1)]  # west, going down
    return loop


def build_trace(N):
    """0/1 trace matrix, shape (4N, (N+1)^2), loop rows ccw from (0,0)."""
    _check_degree(N)
    lay = DofLayout(N)
    T = np.zeros((lay.n_boundary, lay.n_nodes), dtype=np.int64)
    for r, (i, j) in enumerate(_boundary_loop_nodes(N)):
        T[r, lay.node(i, j)] = 1
    return T


def side_dof_indices(N):
    """Map each side S/E/N/W to the loop-dof index of its N+1 nodes.

    Entry k of a side's array is the boundary dof of the node with 1D
    index k along that side (xi for S/N, eta for E/W).  Corner nodes
    appear in both adjacent sides.
    """
    _check_degree(N)
    south = np.arange(N + 1)
    east = np.arange(N, 2 * N + 1)
    north = np.array([3 * N - i if i < N else 2 * N for i in range(N + 1)])
    west = np.array(
        [0 if j == 0 else (3 * N if j == N else 4 * N - j) for j in range(N + 1)]
    )
    return {"S": south, "E": east, "N": north, "W": west}
