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


def test_from_dict_coerces_each_coefficient_once(monkeypatch):
    inputs = [
        {3: 2, 0: -1, 1: 0},
        {2: Fraction(1, 3), 5: Fraction(0), 0: Fraction(-7, 2)},
        {4: Fraction(3, 4), 1: 5, 2: 0, 0: Fraction(0, 9), 6: -2},
    ]
    expected = [
        ((0, -1), (3, 2)),
        ((0, Fraction(-7, 2)), (2, Fraction(1, 3))),
        ((1, 5), (4, Fraction(3, 4)), (6, -2)),
    ]
    for d, want in zip(inputs, expected):
        f = BRhoElement.from_dict(d, 2)
        assert f.coeffs == want
        assert all(type(c) is Fraction for _, c in f.coeffs)
        assert type(f.rho) is Fraction

    calls = []

    def counting_fraction(*args):
        calls.append(args)
        return Fraction(*args)

    monkeypatch.setattr("banachalg.disc.Fraction", counting_fraction)
    for d in inputs:
        calls.clear()
        BRhoElement.from_dict(d, 2)
        assert len(calls) == len(d) + 1  # each coefficient, and rho


def test_mixed_rho_rejected():
    with pytest.raises(ValueError):
        el({0: 1}, rho=2) + el({0: 1}, rho=3)


def test_from_dict_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match="^negative exponent$"):
        el({-1: 1})


def test_element_subtraction():
    assert el({2: 1, 0: 3}) - el({1: Fraction(1, 2), 0: 3}) == el({2: 1, 1: Fraction(-1, 2)})
    assert (el({1: 5}) - el({1: 5})).is_zero()


# each rho check of a series operation, on a case that no element operation
# below it would catch: empty series, or a left factor whose only element is 0


def test_series_from_elements_rejects_mixed_rho():
    with pytest.raises(ValueError, match="^mixed rho values$"):
        BRhoSeries.from_elements([el({1: 1}, rho=2)], 3)


@pytest.mark.parametrize("rho", [0, -1])
def test_series_from_elements_rejects_a_rho_not_positive(rho):
    # with no element to carry it, rho is checked on its own
    with pytest.raises(ValueError, match="^rho must be positive$"):
        BRhoSeries.from_elements([], rho)


def test_series_sum_rejects_mixed_rho():
    with pytest.raises(ValueError, match="^mixed rho values$"):
        BRhoSeries.from_elements([], 2) + BRhoSeries.from_elements([], 3)


def test_series_product_rejects_mixed_rho():
    a = BRhoSeries.constant(BRhoElement.zero(2))
    b = BRhoSeries.constant(BRhoElement.zero(3))
    with pytest.raises(ValueError, match="^mixed rho values$"):
        a * b


# --- public constructors ----------------------------------------------------


def test_element_constructor_stores_fractions():
    f = BRhoElement(((1, 1), (4, Fraction(-2, 3))), 2)
    assert f == el({1: 1, 4: Fraction(-2, 3)})
    assert f.coeffs == ((1, Fraction(1)), (4, Fraction(-2, 3)))
    assert type(f.coeffs[0][1]) is Fraction and type(f.rho) is Fraction
    assert BRhoElement((), Fraction(1, 2)) == BRhoElement.zero(Fraction(1, 2))


@pytest.mark.parametrize(
    "coeffs, rho",
    [
        ("junk", None),
        ([(1, 1)], 2),
        (((1,),), 2),
        (((1, 1, 1),), 2),
        ((1,), 2),
        (((1.0, 1),), 2),
        (((True, 1),), 2),
        (((1, 1.5),), 2),
        (((1, "1"),), 2),
        (((1, 1),), 2.0),
        (((1, 1),), True),
        (((1, 1),), None),
    ],
    ids=repr,
)
def test_element_constructor_rejects_wrong_types(coeffs, rho):
    with pytest.raises(TypeError, match="^BRhoElement takes a tuple of"):
        BRhoElement(coeffs, rho)


@pytest.mark.parametrize(
    "coeffs, rho, message",
    [
        (((-1, 1),), 2, "negative exponent"),
        (((2, 1), (1, 1)), 2, "exponents must strictly ascend"),
        (((1, 1), (1, 2)), 2, "exponents must strictly ascend"),
        (((0, Fraction(0)),), Fraction(2), "zero coefficient"),
        (((0, 1), (3, 0)), 2, "zero coefficient"),
        (((0, 1),), 0, "rho must be positive"),
        (((0, 1),), Fraction(-1, 2), "rho must be positive"),
    ],
    ids=repr,
)
def test_element_constructor_rejects_invalid_values(coeffs, rho, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BRhoElement(coeffs, rho)


def test_element_constructor_cases_that_used_to_pass():
    # a stored zero made a zero element that was not is_zero(), and
    # descending exponents printed out of order and compared unequal
    with pytest.raises(ValueError):
        BRhoElement(((0, Fraction(0)),), Fraction(2))
    with pytest.raises(ValueError):
        BRhoElement(((2, 1), (1, 1)), 2)
    with pytest.raises(TypeError):
        BRhoElement("junk", None)


def test_series_constructor_stores_a_fraction_rho():
    s = BRhoSeries((el({1: 1}),), 2)
    assert s == BRhoSeries.from_elements([el({1: 1})], 2)
    assert type(s.rho) is Fraction
    assert BRhoSeries((), 3) == BRhoSeries.from_elements([], 3)


@pytest.mark.parametrize(
    "coeffs, rho",
    [
        ([el({1: 1})], 2),
        ((el({1: 1}), {1: 1}), 2),
        (("junk",), 2),
        ((el({1: 1}),), 2.0),
        ((el({1: 1}),), None),
    ],
    ids=repr,
)
def test_series_constructor_rejects_wrong_types(coeffs, rho):
    with pytest.raises(TypeError, match="^BRhoSeries takes a tuple of"):
        BRhoSeries(coeffs, rho)


@pytest.mark.parametrize(
    "coeffs, rho, message",
    [
        ((), 0, "rho must be positive"),
        ((), -2, "rho must be positive"),
        ((el({1: 1}, rho=3),), 2, "mixed rho values"),
        ((el({1: 1}), el({0: 1}, rho=3)), 2, "mixed rho values"),
    ],
    ids=repr,
)
def test_series_constructor_rejects_invalid_values(coeffs, rho, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BRhoSeries(coeffs, rho)


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


def test_sqrt_truncation_residual_exact_values():
    # 1^2 - (1 + t), (1 + t/2)^2 - (1 + t), (1 + t/2 - t^2/8)^2 - (1 + t)
    assert sqrt_truncation_residual(0) == [0, -1]
    assert sqrt_truncation_residual(1) == [0, 0, Fraction(1, 4)]
    assert sqrt_truncation_residual(2) == [
        0, 0, 0, Fraction(-1, 8), Fraction(1, 64)
    ]


# --- family 1 ---------------------------------------------------------------


def test_sqrt_coeffs_rejects_a_negative_count():
    with pytest.raises(ValueError, match="^count must be nonnegative$"):
        sqrt_coeffs(-1)


def test_family1_solutions_reject_a_negative_c():
    with pytest.raises(ValueError, match="^c must be nonnegative$"):
        example1_solutions(-1)


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


RHOS = (2, 1, Fraction(1, 3), 7)


def t_order(series):
    """Least t-power with a nonzero coefficient; None when identically 0."""
    return next((i for i, c in enumerate(series.coeffs) if not c.is_zero()), None)


def series_residual(c, rho):
    """The two-variable oracle: x*y1*y1 - (x+t)*y2*y2 as a BRhoSeries."""
    y1, y2, t = example2_solutions(c, rho)
    x = BRhoSeries.constant(BRhoElement.x_power(1, rho))
    return x * y1 * y1 - (x + t) * y2 * y2


@pytest.mark.parametrize("rho", RHOS)
def test_residual_matches_the_series_product(rho):
    for c in range(0, 21):
        res = series_residual(c, rho)
        order = t_order(res)
        want = (order, res.coeffs[order])
        assert example1_residual(c, rho) == want
        assert example2_residual(c, rho) == want
        # x^(2c+1) * r(t/x): every t-coefficient is one monomial r_n x^(2c+1-n)
        r = sqrt_truncation_residual(c)
        for n, coeff in enumerate(res.coeffs):
            rn = r[n] if n < len(r) else 0
            assert coeff == BRhoElement.from_dict({2 * c + 1 - n: rn}, rho)


def test_residual_does_not_multiply_series(monkeypatch):
    def refuse(self, other):
        raise AssertionError("BRhoSeries product on the residual path")

    monkeypatch.setattr(BRhoSeries, "__mul__", refuse)
    a = sqrt_coeffs(17)
    for fn in (example1_residual, example2_residual):
        assert fn(16) == (17, el({16: -2 * a[16]}))


def test_residual_rejects_bad_arguments():
    with pytest.raises(ValueError):
        example1_residual(-1)
    with pytest.raises(ValueError):
        example1_residual(3, rho=0)


def laurent_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: v for e, v in out.items() if v != 0}


def laurent_add(*fs):
    out = {}
    for f in fs:
        for e, v in f.items():
            out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v != 0}


@pytest.mark.parametrize("c", list(range(0, 9)))
@pytest.mark.parametrize("sign", (1, -1))
def test_no_exact_solution_against_x_to_the_c(c, sign):
    """Against y2 = x^c the t^n equation of x*y1^2 = (x+t)*y2^2,

        x * sum_{i+j=n} y1_i y1_j = x^(2c+1) [n = 0] + x^(2c) [n = 1],

    forces y1_0 = +-x^c and is then linear in y1_n with the nonzero
    coefficient 2*x*y1_0, so it has exactly one solution among Laurent
    polynomials in x (dicts exponent -> coefficient here).  Solved n by n,
    it is the polynomial +-a_n x^(c-n) up to n = c, and +-a_{c+1} x^(-1) at
    n = c+1: no polynomial y1_{c+1} solves the t^(c+1) equation."""
    a = sqrt_coeffs(c + 1)
    x = {1: 1}
    y1 = [{c: sign}]
    for n in range(1, c + 2):
        acc = laurent_add(*(laurent_mul(y1[i], y1[n - i]) for i in range(1, n)))
        rhs = {2 * c: 1} if n == 1 else {}
        # x * (2*y1_0*y1_n + acc) = rhs, so y1_n = (rhs/x - acc) / (2*y1_0)
        numerator = laurent_add(rhs, {e + 1: -v for e, v in acc.items()})
        y1_n = {e - 1 - c: Fraction(v, 2 * sign) for e, v in numerator.items()}
        assert laurent_mul(x, laurent_add(laurent_mul({c: 2 * sign}, y1_n), acc)) == rhs
        assert y1_n == {c - n: sign * a[n - 1]}
        assert (min(y1_n) >= 0) == (n <= c)
        y1.append(y1_n)


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
    assert t_order(p - p) is None
    assert t_order(t * t) == 2
