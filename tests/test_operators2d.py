import numpy as np
import pytest

from dualcurl.cli import INCIDENCE_N3, TRACE_N3
from dualcurl.operators2d import (
    DofLayout,
    build_incidence,
    build_trace,
    side_dof_indices,
)


class TestDofLayout:
    def test_counts(self):
        lay = DofLayout(4)
        assert lay.n_nodes == 25
        assert lay.n_edges == 40
        assert lay.n_boundary == 16

    def test_index_formulas(self):
        lay = DofLayout(3)
        assert lay.node(0, 0) == 0
        assert lay.node(1, 0) == 1
        assert lay.node(3, 3) == 15
        assert lay.xi_edge(0, 1) == 0
        assert lay.xi_edge(3, 3) == 11
        assert lay.eta_edge(1, 0) == 12
        assert lay.eta_edge(3, 3) == 23


class TestIncidence:
    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            build_incidence(0)

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
        lay = DofLayout(N)
        valence = np.count_nonzero(build_incidence(N), axis=0)
        for i in range(N + 1):
            for j in range(N + 1):
                on_bnd = (i in (0, N)) + (j in (0, N))
                assert valence[lay.node(i, j)] == 4 - on_bnd


class TestTrace:
    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            build_trace(0)

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
    """Loop dof -> the sides (S, E, N, W) whose dof lists hold it."""
    sides = {}
    for side, dofs in side_dof_indices(N).items():
        for d in dofs:
            sides.setdefault(int(d), []).append(side)
    return {d: tuple(s) for d, s in sides.items()}


class TestBoundaryMap:
    def test_n1_first_dof_is_corner(self):
        # loop dof 0 is the south-west corner node (-1, -1)
        assert _sides_of(1)[0] == ("S", "W")
        assert np.argmax(build_trace(1)[0]) == DofLayout(1).node(0, 0)

    def test_n3_dof4_east_only(self):
        # loop dof 4 sits at (1, x_1) on the east side only
        assert _sides_of(3)[4] == ("E",)
        assert np.argmax(build_trace(3)[4]) == DofLayout(3).node(3, 1)

    @pytest.mark.parametrize("N", [1, 3, 5])
    def test_side_counting(self, N):
        # each side carries its N+1 nodal functions exactly once
        sd = side_dof_indices(N)
        assert all(len(set(dofs)) == len(dofs) == N + 1 for dofs in sd.values())
        sides = _sides_of(N)
        assert sorted(sides) == list(range(4 * N))
        assert sum(len(s) for s in sides.values()) == 4 * (N + 1)

    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_side_dofs_consistent_with_trace(self, N):
        # the trace rows and the per-side dof lists agree on node positions
        lay = DofLayout(N)
        T = build_trace(N)
        cols = np.argmax(T, axis=1)
        sd = side_dof_indices(N)
        for k in range(N + 1):
            assert cols[sd["S"][k]] == lay.node(k, 0)
            assert cols[sd["E"][k]] == lay.node(N, k)
            assert cols[sd["N"][k]] == lay.node(k, N)
            assert cols[sd["W"][k]] == lay.node(0, k)
