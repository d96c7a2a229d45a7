"""Topology on the reference square: incidence and trace on the node grid.

Degrees of freedom on [-1,1]^2 for polynomial degree N:

  nodes    (N+1)^2   the node grid node[j, i] = j*(N+1) + i (xi-index
                     fastest); a nodal field f[j, i] is f.ravel()
  edges    2N(N+1)   the xi-component block first, one row per node of
                     node[1:] (edge from node[j-1, i] to node[j, i]); then
                     the eta-component block, one row per node of
                     node[:, :-1] (edge from node[j, i+1] to node[j, i])
  boundary 4N        counter-clockwise loop starting at node (0,0);
                     `boundary_nodes` is its one encoding

The incidence matrix maps nodal dofs to edge dofs and encodes the discrete
curl as pure topology: it holds only entries -1, 0, +1 and is independent
of any element geometry.  The trace is the 0/1 restriction of the nodal
dofs to the loop: T f is f.ravel()[boundary_nodes(N)], one node per dof.

This module alone splits dof vectors into grids and joins them back:
`_dofs` checks a dof array a caller hands the package and lays it out as
its grids, and `_flat` joins grids.  A public entry reads each caller
array through `_dofs` once; the package's own fields stay on their grids.
An edge field is one (2, N, N+1) stack, [component, interval, node]: the
xi grid and the eta grid transposed, so one batched expression serves
both.  Only this module transposes a dof layout; the dof order above is
unchanged.
"""

import numpy as np

from .basis1d import _integer, _real

__all__ = [
    "boundary_nodes",
    "build_incidence",
    "build_trace",
]


def _dofs(v, N, layout="nodes"):
    """The grids of `v`, checked to be a finite real 1D vector of the degree-N
    "nodes", "edges" or "loop" length before a reshape could accept a grid
    or a block of columns: the node grid f[j, i], the edge stack of the xi
    grid and the transposed eta grid, or the loop vector itself."""
    n = {"nodes": (N + 1) ** 2, "edges": 2 * N * (N + 1), "loop": 4 * N}[layout]
    v = _real(f"dofs for the degree-{N} discretization", v)
    if v.shape != (n,):
        raise ValueError(f"dofs of shape {v.shape} do not match the degree-{N} "
                         f"discretization: expected a 1D vector of length {n}")
    if layout == "edges":
        n = N * (N + 1)
        return np.concatenate([v[:n], v[n:].reshape(N + 1, N).T], axis=None).reshape(2, N, N + 1)
    return v.reshape(N + 1, N + 1) if layout == "nodes" else v


def _flat(g):
    """The dof vector of a node grid, or of an edge stack: its xi grid, then
    its eta grid transposed back."""
    return np.concatenate([g[0], g[1].T] if g.ndim == 3 else [g], axis=None)


def _incidence(f):
    """E10 F on the node grid f: the edge stack of D f and D (-f^T), each
    written in place, so the transposed grid is read but never copied."""
    c = np.empty((2, len(f) - 1, len(f)))
    np.subtract(f[1:], f[:-1], out=c[0])
    np.subtract(f.T[:-1], f.T[1:], out=c[1])
    return c


def _incidence_t(s):
    """E10^T Et on the edge stack s of Et: the node grid D^T a - b D of its
    xi grid a and eta grid b, by differences of s zero-padded on axis 1."""
    t = np.zeros((2, s.shape[1] + 2, s.shape[2]))
    t[:, 1:-1] = s
    d = t[:, :-1] - t[:, 1:]
    return d[0] - d[1].T


def _edge_ends(N):
    """(head, tail): the node-grid index of each edge's two ends in edge dof
    order, the columns of the incidence's +1 and -1 in each row."""
    node = np.arange((N + 1) ** 2).reshape(N + 1, N + 1)
    return (np.concatenate([node[1:].ravel(), node[:, :-1].ravel()]),
            np.concatenate([node[:-1].ravel(), node[:, 1:].ravel()]))


def build_incidence(N):
    """Integer incidence matrix, shape (2N(N+1), (N+1)^2): on a node grid
    f, E10 @ _flat(f) is _flat(_incidence(f))."""
    N = _integer("degree", N, 1)
    head, tail = _edge_ends(N)
    rows = np.arange(head.size)
    E = np.zeros((head.size, (N + 1) ** 2), dtype=np.int64)
    E[rows, head] = 1
    E[rows, tail] = -1
    return E


def build_trace(N):
    """0/1 trace matrix, shape (4N, (N+1)^2): the rows `boundary_nodes(N)`
    of the identity, for the operator dump and the N=3 fixture."""
    return (boundary_nodes(N)[:, None] == np.arange((N + 1) ** 2)).astype(np.int64)


def boundary_nodes(N):
    """Node-grid index of each of the 4N loop dofs, ccw from node (0,0): the
    S, E, N and W sides in turn, each without its last node, the next's first."""
    N = _integer("degree", N, 1)
    node = np.arange((N + 1) ** 2).reshape(N + 1, N + 1)
    return np.concatenate([node[0, :-1], node[:-1, -1], node[-1, :0:-1], node[:0:-1, 0]])
