"""Disc algebra norms, square-root truncations, residual t-orders."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachalg.disc import (
    BRhoElement,
    BRhoSeries,
    brho_norm,
    example1_residual,
    example1_solutions,
    example2_residual,
    example2_solutions,
    remark_growth,
    sqrt_coeffs,
    sqrt_truncation_residual,
)


def el(d, rho=2):
    return BRhoElement.from_dict(d, rho)


# --- norm -------------------------------------------------------------------


def test_norm_examples():
    assert brho_norm(el({2: 1}, rho=2)) == 4
    assert brho_norm(BRhoElement.zero(2)) == 0
    assert brho_norm(el({1: 3, 3: -1}, rho=Fraction(1, 2))) == Fraction(13, 8)


def test_norm_weights_by_rho_power():
    f = el({0: -2, 5: Fraction(1, 3)}, rho=3)
    assert brho_norm(f) == 2 + Fraction(243, 3)


elem_strategy = st.builds(
    lambda d: BRhoElement.from_dict(d, Fraction(3, 2)),
    st.dictionaries(
        st.integers(0, 6),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=5,
    ),
)


@given(elem_strategy, elem_strategy)
@settings(max_examples=100)
def test_norm_is_an_algebra_norm(f, g):
    assert brho_norm(f + g) <= brho_norm(f) + brho_norm(g)
    assert brho_norm(f * g) <= brho_norm(f) * brho_norm(g)
    assert (brho_norm(f) == 0) == f.is_zero()


def test_mixed_rho_rejected():
    with pytest.raises(ValueError):
        el({0: 1}, rho=2) + el({0: 1}, rho=3)


def test_element_printing():
    # the polynomial grammar of poly.to_str, in the one variable x
    assert str(el({3: 2, 1: Fraction(1, 2), 0: -1})) == "2*x^3 + (1/2)*x - 1"
    assert str(el({2: Fraction(-3, 4), 1: 1, 0: Fraction(5, 3)})) == (
        "-(3/4)*x^2 + x + (5/3)"
    )
    assert str(BRhoElement.zero(2)) == "0"


# --- square root of 1 + t ---------------------------------------------------


def test_sqrt_first_coefficients():
    a = sqrt_coeffs(3)
    assert a == [Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)]


def test_sqrt_against_binomial_series_oracle():
    # independent closed form: a_n = C(2n, n) * (-1)^(n+1) / (4^n * (2n - 1))
    a = sqrt_coeffs(12)
    for n in range(1, 13):
        binom = factorial(2 * n) // (factorial(n) ** 2)
        expected = Fraction((-1) ** (n + 1) * binom, 4**n * (2 * n - 1))
        assert a[n - 1] == expected


@pytest.mark.parametrize("c", list(range(0, 31)))
def test_sqrt_truncation_squares_to_one_plus_t(c):
    res = sqrt_truncation_residual(c)
    assert all(r == 0 for r in res[: c + 1])


# --- family 1 ---------------------------------------------------------------


def test_family1_solutions_shapes():
    y1, y2 = example1_solutions(0)
    assert y1.coeffs == (el({0: 1}),) and y2.coeffs == (el({0: 1}),)
    y1, y2 = example1_solutions(1)
    assert y1.coeffs == (el({1: 1}), el({0: Fraction(1, 2)}))
    assert y2.coeffs == (el({1: 1}),)
    y1, y2 = example1_solutions(2)
    assert y1.coeffs == (
        el({2: 1}),
        el({1: Fraction(1, 2)}),
        el({0: Fraction(-1, 8)}),
    )


def test_family1_residual_hand_values():
    assert example1_residual(0) == (1, el({0: -1}))
    assert example1_residual(1) == (2, el({1: Fraction(1, 4)}))
    assert example1_residual(2) == (3, el({2: Fraction(-1, 8)}))


def test_family1_residual_closed_form():
    # leading coefficient is -2 * a_{c+1} * x^c and the order is exactly c+1
    for c in range(0, 13):
        order, lead = example1_residual(c)
        a = sqrt_coeffs(c + 1)
        assert order == c + 1
        assert lead == el({c: -2 * a[c]})


def test_family1_bound():
    for c in range(0, 13):
        order, _ = example1_residual(c)
        assert order is not None and order >= c + 1


# --- family 2 ---------------------------------------------------------------


def test_family2_solutions_include_shift():
    y1, y2, y3 = example2_solutions(3)
    assert y3.coeffs == (BRhoElement.zero(2), el({0: 1}))
    assert (y1, y2) == example1_solutions(3)


def test_family2_bound_and_measured_order():
    for c in range(0, 13):
        order, _ = example2_residual(c)
        assert order is not None and order >= c
        # with the shift held at t the residual coincides with family 1's
        assert order == c + 1


def test_family2_c0_measured():
    order, lead = example2_residual(0)
    assert (order, lead) == (1, el({0: -1}))


# --- growth table -----------------------------------------------------------


def test_remark_growth_values():
    table = remark_growth(5)
    assert table[0] == (0, 2)
    assert table[2] == (2, 4)
    assert table[4] == (4, 2**24)
    assert [n for _, n in table] == [Fraction(2) ** factorial(k) for k in range(6)]


def test_remark_growth_guard():
    with pytest.raises(ValueError):
        remark_growth(7)
    with pytest.raises(ValueError):
        remark_growth(-1)
    assert len(remark_growth(6)) == 7


def test_remark_outgrows_geometric():
    # against any ratio r, the terms 2^(k!) / r^k eventually explode
    table = remark_growth(6)
    for ratio in (2, 10, 1000):
        assert any(n > Fraction(ratio) ** k for k, n in table)


# --- series helpers ---------------------------------------------------------


def test_series_arithmetic_and_order():
    rho = Fraction(2)
    t = BRhoSeries.from_elements([BRhoElement.zero(rho), el({0: 1})], rho)
    x = BRhoSeries.constant(el({1: 1}))
    p = (x + t) * (x - t)
    assert p.coeffs[0] == el({2: 1})
    assert p.coeffs[1].is_zero()
    assert p.coeffs[2] == el({0: -1})
    assert (p - p).t_order() is None
    assert (t * t).t_order() == 2
