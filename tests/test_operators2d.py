import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dualcurl import cli, curlcurl, galerkin
from dualcurl.cli import INCIDENCE_N3, TRACE_N3
from dualcurl.operators2d import (
    _dofs, _flat, _incidence, boundary_nodes, build_incidence, build_trace)


def node(N, i, j):
    """Index of node (i, j) on the degree-N grid: xi-index fastest."""
    return j * (N + 1) + i


@st.composite
def nodal_grids(draw):
    """A random nodal field f[j, i] on the (N+1)x(N+1) grid, N in 1..24."""
    N = draw(st.integers(1, 24))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return draw(arrays(np.float64, (N + 1, N + 1), elements=values))


def assert_invalid_degree(build):
    for N in (0, -1):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            build(N)


class TestIncidence:
    def test_invalid_degree(self):
        assert_invalid_degree(build_incidence)

    @settings(max_examples=25, deadline=None)
    @given(nodal_grids())
    def test_is_grid_difference(self, f):
        expected = np.concatenate([np.diff(f, axis=0).ravel(), -np.diff(f, axis=1).ravel()])
        N = f.shape[0] - 1
        np.testing.assert_array_equal(build_incidence(N) @ f.ravel(), expected)

    def test_n3_fixture(self):
        np.testing.assert_array_equal(build_incidence(3), INCIDENCE_N3)

    def test_n1_by_hand(self):
        expected = np.array(
            [[-1, 0, 1, 0], [0, -1, 0, 1], [1, -1, 0, 0], [0, 0, 1, -1]]
        )
        np.testing.assert_array_equal(build_incidence(1), expected)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_row_structure(self, N):
        E = build_incidence(N)
        assert E.dtype == np.int64
        assert np.all(np.sum(E == 1, axis=1) == 1)
        assert np.all(np.sum(E == -1, axis=1) == 1)
        assert np.all(E.sum(axis=1) == 0)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_kills_constants(self, N):
        E = build_incidence(N)
        np.testing.assert_array_equal(E @ np.ones((N + 1) ** 2, dtype=np.int64), 0)

    @pytest.mark.parametrize("N", range(2, 7))
    def test_node_valence(self, N):
        # interior nodes touch 4 edges, boundary non-corner 3, corners 2
        valence = np.count_nonzero(build_incidence(N), axis=0)
        for i in range(N + 1):
            for j in range(N + 1):
                on_bnd = (i in (0, N)) + (j in (0, N))
                assert valence[node(N, i, j)] == 4 - on_bnd


class TestTrace:
    def test_invalid_degree(self):
        assert_invalid_degree(build_trace)

    @settings(max_examples=25, deadline=None)
    @given(nodal_grids())
    def test_restricts_grid_to_sides(self, f):
        N = f.shape[0] - 1
        T, loop = build_trace(N), boundary_nodes(N)
        t = T @ f.ravel()
        # side s holds the loop dofs sN..(s+1)N, ccw: each side's row or
        # column in loop order, W's last dof being dof 0 again
        for s, expected in enumerate((f[0, :], f[:, N], f[N, ::-1], f[::-1, 0])):
            np.testing.assert_array_equal(t[(s * N + np.arange(N + 1)) % (4 * N)], expected)
        # the index vector is the same map: T f gathers, T^T b scatters
        np.testing.assert_array_equal(f.ravel()[loop], t)
        r = np.zeros(f.size)
        r[loop] = t
        np.testing.assert_array_equal(r, T.T @ t)

    def test_n3_fixture(self):
        np.testing.assert_array_equal(build_trace(3), TRACE_N3)

    def test_n1_loop(self):
        T = build_trace(1)
        np.testing.assert_array_equal(np.argmax(T, axis=1), [0, 1, 3, 2])

    @pytest.mark.parametrize("N", range(1, 9))
    def test_row_structure(self, N):
        T = build_trace(N)
        assert T.shape == (4 * N, (N + 1) ** 2)
        assert np.all(T.sum(axis=1) == 1)
        assert np.all((T == 0) | (T == 1))
        assert np.all(T.sum(axis=0) <= 1)  # no node selected twice


def _sides_of(N):
    """Loop dof -> the sides (S, E, N, W) its node lies on: row 0, column N,
    row N and column 0 of the node grid."""
    j, i = np.divmod(boundary_nodes(N), N + 1)
    on = {"S": j == 0, "E": i == N, "N": j == N, "W": i == 0}
    return {d: tuple(side for side in on if on[side][d]) for d in range(4 * N)}


class TestBoundaryMap:
    def test_invalid_degree(self):
        assert_invalid_degree(boundary_nodes)

    def test_n1_first_dof_is_corner(self):
        # loop dof 0 is the south-west corner node (-1, -1)
        assert _sides_of(1)[0] == ("S", "W")
        assert np.argmax(build_trace(1)[0]) == node(1, 0, 0)

    def test_n3_dof4_east_only(self):
        # loop dof 4 sits at (1, x_1) on the east side only
        assert _sides_of(3)[4] == ("E",)
        assert np.argmax(build_trace(3)[4]) == node(3, 3, 1)

    @pytest.mark.parametrize("N", [1, 3, 5])
    def test_side_counting(self, N):
        # each side carries its N+1 nodal functions exactly once
        loop, sides = boundary_nodes(N), _sides_of(N)
        assert len(set(loop.tolist())) == len(loop) == 4 * N  # no node twice
        assert all(sides.values())  # no interior node
        for side in "SENW":
            assert sum(side in s for s in sides.values()) == N + 1
        assert sum(len(s) for s in sides.values()) == 4 * (N + 1)

    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_side_dofs_consistent_with_trace(self, N):
        # side s holds the loop dofs sN..(s+1)N in ccw order, and the trace
        # rows put each on its node of that side
        cols, sides = np.argmax(build_trace(N), axis=1), _sides_of(N)
        for k in range(N + 1):
            ccw = (("S", k, 0), ("E", N, k), ("N", N - k, N), ("W", 0, N - k))
            for s, (side, i, j) in enumerate(ccw):
                d = (s * N + k) % (4 * N)
                assert side in sides[d]
                assert cols[d] == node(N, i, j)


class TestDofLayout:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 24), st.sampled_from(["nodes", "edges", "loop"]), st.data())
    def test_dofs_gives_grids_that_flat_joins(self, N, layout, data):
        # the node grid, the edge stack of the xi grid and the transposed
        # eta grid, or the loop vector; joined they are the vector again
        shape = {"nodes": (N + 1, N + 1), "edges": (2, N, N + 1), "loop": (4 * N,)}[layout]
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        v = data.draw(arrays(np.float64, int(np.prod(shape)), elements=values))
        g = _dofs(v, N, layout)
        assert g.shape == shape
        np.testing.assert_array_equal(_flat(g), v)
        if layout == "edges":  # the xi block row by row, then the eta block
            n = N * (N + 1)
            np.testing.assert_array_equal(g[0], v[:n].reshape(N, N + 1))
            np.testing.assert_array_equal(g[1], v[n:].reshape(N + 1, N).T)
        if layout == "nodes":  # the edge stack of E10 F joins to the edge dofs
            np.testing.assert_array_equal(_flat(_incidence(g)), build_incidence(N) @ v)


@pytest.mark.parametrize("module", [galerkin, curlcurl, cli], ids=lambda m: m.__name__)
def test_only_operators2d_splits_and_joins_dofs(module):
    # the other modules keep fields on their grids; the one reshape left is
    # the in-place kron fill of the dense edge mass.  curlcurl's fields
    # never go through a public mass solve, which would join them and
    # check them again (cli's self-check solves the nodal mass's columns
    # as one stack of node grids).  An edge field is one (2, N, N+1) stack,
    # so no module pairs, zips or unpacks its components, and the edge
    # incidence and its transpose live with the layout in operators2d
    source = inspect.getsource(module)
    for banned in ("np.split", "np.concatenate", ".ravel()", "_edge_grids", "_unflat",
                   "zip(", "_flat(*", "_mass1(*", "_solve_mass1(*", "_incidence_t(*",
                   "def _incidence_t("):
        assert banned not in source, banned
    if module is curlcurl:
        assert ".solve_mass" not in source
        assert not re.findall(r"(?<![\w.])weak_curl\(", source)  # only the private one
        assert not hasattr(curlcurl.Discretization(3), "D")  # K's difference is a local
    fills = ["out=block.reshape(p, q, p, q)"] if module is galerkin else []
    assert source.count(".reshape(") == len(fills)
    assert all(fill in source for fill in fills)
