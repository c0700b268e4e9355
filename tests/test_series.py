from math import comb

import pytest

import polyflip.series as series_module
from polyflip import (
    TruncatedSeries,
    ZPoly,
    build_poset,
    enumerate_dissections,
    fuss_catalan,
    is_final,
    rank_polynomial,
    series_F,
    series_G,
    series_I,
    series_T,
)
from polyflip.series import residual_F, residual_I, residual_T, residuals_vanish


def interval_count(poset):
    return sum(m.bit_count() for m in poset.up_masks)


def test_fuss_catalan_values():
    assert [fuss_catalan(1, n) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    assert [fuss_catalan(2, n) for n in range(1, 6)] == [1, 3, 12, 55, 273]
    assert [fuss_catalan(3, n) for n in range(1, 5)] == [1, 4, 22, 140]
    assert fuss_catalan(2, 7) == 7752
    # closed form, written independently of the packaged one
    assert fuss_catalan(4, 6) == comb(30, 6) // 25


def test_series_T_counts_dissections():
    for m in (1, 2, 3):
        t = series_T(m, 6)
        assert t.coefficient(0) == 0
        for n in range(1, 7):
            assert t.coefficient(n) == fuss_catalan(m, n)


def test_series_F_counts_final_dissections():
    f = series_F(2, 5)
    assert [f.coefficient(n) for n in range(1, 6)] == [1, 2, 7, 30, 143]
    assert [series_F(1, 3).coefficient(n) for n in range(1, 4)] == [1, 1, 2]
    for m, n in [(1, 4), (2, 3), (3, 2)]:
        finals = sum(1 for q in enumerate_dissections(m, n) if is_final(q))
        assert series_F(m, n).coefficient(n) == finals


def test_series_I_counts_intervals():
    i2 = series_I(2, 5)
    assert [i2.coefficient(n) for n in range(1, 6)] == [1, 5, 31, 211, 1516]
    assert [series_I(1, 3).coefficient(n) for n in range(1, 4)] == [1, 3, 11]
    for m, n in [(1, 4), (2, 3), (3, 3)]:
        assert series_I(m, n).coefficient(n) == interval_count(build_poset(m, n))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_residuals_vanish(m):
    assert residual_T(m, 8).is_zero()
    assert residual_F(m, 8).is_zero()
    assert residual_I(m, 8).is_zero()
    assert residuals_vanish(m, 8)


def test_rank_polynomial_values():
    assert rank_polynomial(2, 3) == (1, 4, 7)
    assert rank_polynomial(1, 3) == (1, 2, 2)
    assert rank_polynomial(1, 4) == (1, 3, 5, 5)
    assert rank_polynomial(3, 2) == (1, 3)
    # closed form cross-check and row sums
    for m, n in [(1, 5), (2, 4), (3, 3)]:
        row = rank_polynomial(m, n)
        assert sum(row) == fuss_catalan(m, n)
        for k, c in enumerate(row):
            assert c * n == (n - k) * comb(m * n + k - 1, k)


def test_series_G_slices_are_rank_polynomials():
    g = series_G(2, 6)
    for n in range(1, 7):
        assert g.coefficient(n).int_coeffs() == rank_polynomial(2, n)


def test_rank_census_matches_rank_polynomial():
    for m, n in [(1, 4), (2, 3), (3, 2)]:
        census = [0] * n
        for q in enumerate_dissections(m, n):
            census[q.rank] += 1
        assert tuple(census) == rank_polynomial(m, n)


def test_zpoly_arithmetic():
    p = ZPoly.of((1, 2))
    q = ZPoly.of((0, 1))
    assert (p * q).int_coeffs() == (0, 1, 2)
    assert (p + q).int_coeffs() == (1, 3)
    assert (p - p).int_coeffs() == ()
    assert not (p - p)
    assert ZPoly.z_power(2, 5).int_coeffs() == (0, 0, 5)
    assert ZPoly.of((1, 4, 7)).text() == "1 + 4*z + 7*z^2"
    assert hash(ZPoly.of((1, 2))) == hash(p)
    assert 1 - q == ZPoly.of((1, -1))


def test_truncated_series_operations():
    x = TruncatedSeries.x(5)
    one = TruncatedSeries.constant(5, 1)
    geom = (one - x).inverse_unit()
    assert [geom.coefficient(k) for k in range(6)] == [1] * 6
    assert ((one + x) ** 3).coefficient(2) == 3
    sq = x * x
    assert sq.coefficient(2) == 1 and sq.coefficient(5) == 0
    assert (x - x).is_zero()
    comp = geom.compose(sq)  # 1/(1-x^2)
    assert [comp.coefficient(k) for k in range(6)] == [1, 0, 1, 0, 1, 0]


def test_compose_requires_positive_valuation():
    x = TruncatedSeries.x(4)
    one = TruncatedSeries.constant(4, 1)
    with pytest.raises(AssertionError):
        x.compose(one)


def test_inverse_unit_requires_unit_constant():
    x = TruncatedSeries.x(4)
    with pytest.raises(AssertionError):
        x.inverse_unit()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_residuals_vanish_at_order_10(m):
    assert residual_F(m, 10).is_zero()
    assert residual_I(m, 10).is_zero()


def test_residual_I_catches_a_wrong_composition(monkeypatch):
    real = TruncatedSeries.compose

    def shifted(self, inner):
        return real(self, inner) + TruncatedSeries.x(self.order) ** 2

    monkeypatch.setattr(TruncatedSeries, "compose", shifted)
    assert not residual_I(2, 6).is_zero()
    assert not residuals_vanish(2, 6)


def test_residual_F_catches_a_wrong_T(monkeypatch):
    real = series_module.series_T
    monkeypatch.setattr(
        series_module,
        "series_T",
        lambda m, order: real(m, order) + TruncatedSeries.x(order) ** 3,
    )
    assert not residual_F(2, 6).is_zero()
