"""The series solver for (x - y*t) f = z^2 and the divergence certificate."""

import math
import random
from fractions import Fraction

import pytest

from banachalg.poly import Monomial, Polynomial, parse
from banachalg.quotient import R_ZERO, project
from banachalg.series import (
    TruncatedSeriesR,
    divergence_certificate,
    expected_coefficient,
    residual,
    solve_equation,
)

from conftest import nonzero_random_standard_polynomial, random_polynomial, standard_form


def test_solution_coefficients_are_k_factorial_wk():
    f = solve_equation(12)
    assert f.truncation_order == 12
    for k in range(13):
        assert f.coeffs[k] == expected_coefficient(k)
        assert f.coeffs[k].poly == Polynomial.monomial(
            Monomial.build(w={k: 1}), math.factorial(k)
        )


def test_solver_projects_once_per_call(monkeypatch):
    # the class of y is a module constant; only z^2 is projected per call
    calls = []

    def spy(p):
        calls.append(p)
        return project(p)

    monkeypatch.setattr("banachalg.series.project", spy)
    f = solve_equation(30)
    assert calls == [parse("z^2")]
    assert f.coeffs[30] == expected_coefficient(30)


def test_solution_small_orders():
    f = solve_equation(3)
    assert f.coeffs[0] == project(parse("w0"))
    assert f.coeffs[1] == project(parse("w1"))
    assert f.coeffs[3] == project(parse("6*w3"))


def test_residual_of_solution_is_zero():
    assert residual(solve_equation(20)).is_zero()


def test_series_constructor_takes_a_tuple_of_relements():
    with pytest.raises(TypeError, match="tuple of RElements"):
        TruncatedSeriesR((1, 2))
    with pytest.raises(TypeError, match="tuple of RElements"):
        TruncatedSeriesR((R_ZERO, parse("w0")))  # a Polynomial, not its class
    with pytest.raises(TypeError, match="tuple of RElements"):
        TruncatedSeriesR([R_ZERO])


def test_residual_of_zero_series():
    r = residual(TruncatedSeriesR((R_ZERO,) * 3))
    assert r.coeffs[0].poly == parse("-x*w0")
    assert r.coeffs[1].is_zero() and r.coeffs[2].is_zero()
    assert not r.is_zero()


def _residual_by_products(f):
    """The residual as it was computed before the class sums: each order as a
    full product and difference of Polynomials, then ``project``."""
    x, y, z2 = parse("x"), parse("y"), parse("z^2")
    out = [project(x * f.coeffs[0].poly - z2)]
    for k in range(1, f.truncation_order + 1):
        out.append(project(x * f.coeffs[k].poly - y * f.coeffs[k - 1].poly))
    return out


def test_residual_matches_the_product_route_through_order_40():
    rng = random.Random(23)
    solution = solve_equation(40)
    cases = [solution]
    for _ in range(6):  # the solution with a few coefficients perturbed
        coeffs = list(solution.coeffs)
        for k in rng.sample(range(41), 3):
            delta = nonzero_random_standard_polynomial(rng, max_windex=8)
            coeffs[k] = project(coeffs[k].poly + delta)
        cases.append(TruncatedSeriesR(tuple(coeffs)))
    for order in (0, 1, 5, 40):  # random classes, z and s = 0 terms included
        polys = [random_polynomial(rng, max_terms=6) for _ in range(order + 1)]
        cases.append(TruncatedSeriesR(tuple(map(project, polys))))
    nonzero = 0
    for f in cases:
        got = residual(f)
        want = _residual_by_products(f)
        assert got.coeffs == tuple(want)
        assert [str(c) for c in got.coeffs] == [str(c) for c in want]
        nonzero += sum(not c.is_zero() for c in got.coeffs)
    assert residual(solution).is_zero() and nonzero > 60


def test_residual_builds_no_product(monkeypatch):
    f = solve_equation(8)
    coeffs = (project(parse("z*w1 + 3*x*w2 - (1/2)*w0*w3")),) + f.coeffs[1:]

    def refuse(*args, **kwargs):
        raise AssertionError("product built")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(Polynomial, "__sub__", refuse)
    monkeypatch.setattr("banachalg.series.project", refuse)
    r = residual(TruncatedSeriesR(coeffs))
    monkeypatch.undo()
    assert r.coeffs == tuple(_residual_by_products(TruncatedSeriesR(coeffs)))
    assert not r.coeffs[0].is_zero() and r.coeffs[2].is_zero()


def test_residual_of_partial_series():
    # f0 = w0 alone satisfies order 0 but fails at order 1
    f = TruncatedSeriesR((project(parse("w0")), R_ZERO))
    r = residual(f)
    assert r.coeffs[0].is_zero()
    assert r.coeffs[1].poly == parse("-y*w0")


def test_order_by_order_uniqueness_under_random_perturbation():
    """Perturbing one coefficient by a generic nonzero class breaks the
    residual at that order or the next.  Annihilator elements (see the
    quotient witnesses) are the measure-zero exception; random rational
    draws do not produce the exact ratios they require."""
    rng = random.Random(67)
    base = solve_equation(6)
    for _ in range(40):
        k = rng.randint(0, 6)
        delta = project(nonzero_random_standard_polynomial(rng, max_windex=6))
        if delta.is_zero():
            continue
        coeffs = list(base.coeffs)
        coeffs[k] = project(coeffs[k].poly + delta.poly)
        r = residual(TruncatedSeriesR(tuple(coeffs)))
        hit = [j for j in range(7) if not r.coeffs[j].is_zero()]
        assert hit and min(hit) in (k, k + 1)


def test_every_formal_solution_has_k_factorial_wk():
    # the finite step of the proof in the series docstring: x^(k+1)*f_k =
    # y^k*z^2 pins the degree-1 part of any solution f_k to k!*w_k
    for k in range(41):
        a, b, target = standard_form(Monomial.build(y=k, z=2))
        rho = Fraction(a, b)
        degree_one = [Monomial.build(x=1), Monomial.build(y=1), Monomial.build(z=1)]
        degree_one += [Monomial.build(w={i: 1}) for i in range(k + 40)]
        hits = [
            mono
            for mono in degree_one
            if standard_form(Monomial.build(x=k + 1) * mono)[2] == target
        ]
        assert hits == [Monomial.build(w={k: 1})]
        a, b, _ = standard_form(Monomial.build(x=k + 1, w={k: 1}))
        rho_k = Fraction(a, b)
        assert rho / rho_k == math.factorial(k)


def test_exact_norms_are_factorials():
    f = solve_equation(10)
    for k, c in enumerate(f.coeffs):
        assert c.norm == math.factorial(k)


def test_divergence_certificate_bound_ten():
    f = solve_equation(30)
    cert = divergence_certificate(f, 10)
    # independent oracle: least k with k! >= 10^k by direct integer scan
    oracle = next(k for k in range(1, 31) if math.factorial(k) >= 10**k)
    assert oracle == 25
    assert cert.reached_at == 25
    assert cert.table[25] == (25, Fraction(math.factorial(25)))


def test_divergence_certificate_bound_one_and_two():
    f = solve_equation(10)
    assert divergence_certificate(f, 1).reached_at == 1
    cert = divergence_certificate(f, 2)
    assert cert.reached_at == 4
    assert math.factorial(4) >= 2**4 and math.factorial(3) < 2**3


def test_divergence_certificate_not_reached():
    f = solve_equation(5)
    cert = divergence_certificate(f, 1000)
    assert cert.reached_at is None
    assert [n for _, n in cert.table] == [math.factorial(k) for k in range(6)]


def test_divergence_certificate_fractional_bound():
    f = solve_equation(10)
    # k! >= (3/2)^k first at k = 2: 2 >= 9/4 is false... check exactly
    cert = divergence_certificate(f, Fraction(3, 2))
    oracle = next(
        k for k in range(1, 11) if Fraction(math.factorial(k)) >= Fraction(3, 2) ** k
    )
    assert cert.reached_at == oracle


def test_divergence_certificate_accepts_any_coefficient_shape():
    f = TruncatedSeriesR((project(parse("w0 + w1")), project(parse("w1"))))
    cert = divergence_certificate(f, 2)
    assert cert.table == ((0, 2), (1, 1))
    assert cert.reached_at is None


def test_certificate_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        divergence_certificate(solve_equation(2), 0)


def test_solver_rejects_negative_order():
    with pytest.raises(ValueError):
        solve_equation(-1)


def test_series_json_shape():
    f = solve_equation(2)
    data = f.to_json()
    assert data[2] == {"k": 2, "coeff": "2*w2", "norm": "2"}
