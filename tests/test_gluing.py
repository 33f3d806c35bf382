import re

import numpy as np
import pytest

from gluecop import (
    ClaytonCopula,
    DomainError,
    FrankCopula,
    FrechetLowerCopula,
    FrechetUpperCopula,
    IndependenceCopula,
    check_copula_axioms,
    decompose,
    glue,
    make_copula,
)
from gluecop.copulas import _finite_difference_du
from oracles import tent_cdf

PI = IndependenceCopula()
M = FrechetUpperCopula()
W = FrechetLowerCopula()


def grid(n=51, interior=False):
    t = np.linspace(0, 1, n) if not interior else np.arange(1, n + 1) / (n + 1)
    return np.meshgrid(t, t, indexing="ij")


class TestGlue:
    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    def test_m_w_gluing_equals_tent_copula(self, theta):
        g = glue([M, W], [theta])
        U, V = grid(101)
        assert np.max(np.abs(g.cdf(U, V) - tent_cdf(theta, U, V))) <= 1e-12

    def test_gluing_product_with_itself(self):
        g = glue([PI, PI], [0.4])
        U, V = grid()
        assert np.max(np.abs(g.cdf(U, V) - U * V)) <= 1e-14

    def test_first_branch_hand_value(self):
        # theta * M(u/theta, v) = 0.5 * M(0.5, 0.4)
        g = glue([M, W], [0.5])
        assert g.cdf(0.25, 0.4) == pytest.approx(0.2)

    def test_three_pieces(self):
        g = glue([M, PI, W], [0.3, 0.7])
        assert check_copula_axioms(g, 101).passed(1e-12)

    def test_bad_gluing_points(self):
        with pytest.raises(DomainError):
            glue([M, W], [1.2])
        with pytest.raises(DomainError):
            glue([M, PI, W], [0.7, 0.3])
        with pytest.raises(DomainError):
            glue([M, W], [0.3, 0.6])
        with pytest.raises(DomainError):
            glue([M, W], [np.nan])

    # a piece that is not a copula used to fail only once its slab was reached
    @pytest.mark.parametrize("pieces, message", [
        ([ClaytonCopula(2.0), None], "piece 1 is not a copula: None"),
        (["clayton", W], "piece 0 is not a copula: 'clayton'"),
        ([M, PI, FrankCopula], "piece 2 is not a copula: <class "),
    ], ids=["None", "family name", "class"])
    def test_piece_that_is_not_a_copula(self, pieces, message):
        points = np.linspace(0.0, 1.0, len(pieces) + 1)[1:-1]
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            glue(pieces, points)

    @pytest.mark.parametrize("pieces", [[M, W], [ClaytonCopula(2), FrankCopula(-4)]])
    def test_glue_preserves_axioms(self, pieces):
        assert check_copula_axioms(glue(pieces, [0.35]), 101).passed(1e-9)


class TestGluedDu:
    def test_left_slab_uses_first_piece(self):
        g = glue([M, W], [0.5])
        # du of M at (0.5, 0.6) = 1
        assert g.du(0.25, 0.6) == 1.0

    def test_right_slab_uses_second_piece(self):
        g = glue([M, W], [0.5])
        # du of W at (0.5, 0.6): steps at v = 1 - u* = 0.5, so 1 at v=0.6
        assert g.du(0.75, 0.6) == 1.0
        assert g.du(0.75, 0.3) == 0.0

    def test_product_pieces_give_v(self):
        g = glue([PI, PI], [0.4])
        U, V = grid(31, interior=True)
        assert np.max(np.abs(g.du(U, V) - V)) < 1e-12

    def test_tie_break_at_gluing_point_uses_left_piece(self):
        left, right = ClaytonCopula(3), FrankCopula(-8)
        g = glue([left, right], [0.5])
        # u exactly at theta: left piece at u* = 1, as x <= b in the
        # piecewise regression model; the right piece at u* = 0 differs
        assert g.du(0.5, 0.9) == left.du(1.0, 0.9)
        assert right.du(0.0, 0.9) != pytest.approx(left.du(1.0, 0.9), abs=0.1)

    def test_tie_break_with_three_pieces(self):
        pieces = [ClaytonCopula(3), FrankCopula(-8), ClaytonCopula(2)]
        g = glue(pieces, [0.3, 0.65])
        got = g.du(np.array([0.0, 0.3, 0.65, 1.0]), 0.4)
        want = [pieces[0].du(0.0, 0.4), pieces[0].du(1.0, 0.4),
                pieces[1].du(1.0, 0.4), pieces[2].du(1.0, 0.4)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_matches_finite_difference_inside_slabs(self):
        g = glue([ClaytonCopula(2), FrankCopula(3)], [0.5])
        t = np.concatenate([np.linspace(0.05, 0.45, 9), np.linspace(0.55, 0.95, 9)])
        v = np.linspace(0.05, 0.95, 9)
        U, V = np.meshgrid(t, v, indexing="ij")
        fd = _finite_difference_du(g._cdf, U, V)
        assert np.max(np.abs(fd - g.du(U, V))) < 1e-6


class TestDecompose:
    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    def test_tent_decomposes_into_frechet_bounds(self, theta):
        c1, c2 = decompose(make_copula("example1", theta), theta)
        U, V = grid(51)
        assert np.max(np.abs(c1.cdf(U, V) - M.cdf(U, V))) < 1e-12
        assert np.max(np.abs(c2.cdf(U, V) - W.cdf(U, V))) < 1e-12

    def test_product_decomposes_into_products(self):
        c1, c2 = decompose(PI, 0.3)
        U, V = grid(51)
        assert np.max(np.abs(c1.cdf(U, V) - U * V)) < 1e-14
        assert np.max(np.abs(c2.cdf(U, V) - U * V)) < 1e-14

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("pair", [(M, W), (ClaytonCopula(2), FrankCopula(-4)),
                                      (PI, FrankCopula(5))],
                             ids=["M-W", "clayton-frank", "pi-frank"])
    def test_round_trip(self, pair, theta):
        a, b = pair
        c1, c2 = decompose(glue([a, b], [theta]), theta)
        U, V = grid(51)
        assert np.max(np.abs(c1.cdf(U, V) - a.cdf(U, V))) < 1e-9
        assert np.max(np.abs(c2.cdf(U, V) - b.cdf(U, V))) < 1e-9

    def test_glue_of_decomposition_reproduces_parent(self):
        c = ClaytonCopula(3.0)
        g = glue(list(decompose(c, 0.4)), [0.4])
        U, V = grid(51)
        assert np.max(np.abs(g.cdf(U, V) - c.cdf(U, V))) < 1e-12

    def test_theta_range(self):
        with pytest.raises(DomainError):
            decompose(PI, 0.0)


class TestDiagonalSignPattern:
    def test_pqd_then_nqd_sign_pattern(self):
        # C1 >= Pi, C2 <= Pi: diagonal above t^2 before theta, theta^2 at
        # theta, below after
        theta = 0.6
        g = glue([M, W], [theta])
        t = np.linspace(0, 1, 1001)
        d = g.diagonal(t)
        assert np.all(d[t <= theta] >= t[t <= theta] ** 2 - 1e-12)
        assert np.all(d[t >= theta] <= t[t >= theta] ** 2 + 1e-12)
        assert g.diagonal(theta) == pytest.approx(theta**2, abs=1e-12)

    def test_reversed_ordering_flips_sign_pattern(self):
        # NQD piece first (as in the parabola decomposition): below then above
        theta = 0.5
        g = glue([W, M], [theta])
        t = np.linspace(0, 1, 1001)
        d = g.diagonal(t)
        assert np.all(d[t <= theta] <= t[t <= theta] ** 2 + 1e-12)
        assert np.all(d[t >= theta] >= t[t >= theta] ** 2 - 1e-12)
