"""Truncated power series in t over the quotient algebra, the recursive
solver for (x - y*t) * f(t) = z^2, and the divergence certificate.

Matching coefficients of t^k turns the equation into

    x*f_0 = z^2,          x*f_k = y*f_{k-1}   (k >= 1),

and each step is solved exactly with ``divide_by_x``.  The solution is
f_k = k! * w_k.  Its quotient norm is the l1 norm of its normal form (proved
in ``quotient``), here k!, so the k-th root of the coefficient norm grows
without bound: the series solves the equation in formal power series but
converges on no disc of positive radius.  The certificate pins this down by
exact comparisons norm(f_k) >= bound^k.

Every formal solution diverges, not only this one.  x is a zero divisor in
the quotient, so ``divide_by_x`` picks one preimage out of an affine family,
and the argument must cover all of them.  Let f be any formal solution.

  * The equations give x^(k+1) * f_k = y^k * z^2 for every k: multiply
    x*f_k = y*f_{k-1} by x^k and descend to x*f_0 = z^2.
  * The ideal is homogeneous and the normal form keeps degrees, so the
    quotient is graded and its norm is the sum of the norms of the
    homogeneous parts.  The degree-(k+2) equation involves only the
    degree-1 part of f_k, a combination of x, y, z and the w_i.
  * Among these monomials m only w_k has std(x^(k+1) * m) = std(y^k * z^2)
    = x*y^k*w0.  For m = x, y or z the exponents of x, y or z in std
    differ; for w_i with i < k, std keeps x^(k+1-i) with k+1-i >= 2; for
    i > k it keeps no x.  Since x^(k+1)*w_k = y^k*z^2 / k! in the
    quotient, the coefficient of w_k in f_k is exactly k!.
  * Degree-1 monomials are standard, so ||f_k|| >= k! for every formal
    solution, and no solution converges on a disc of positive radius.

The tests check the third step for every k <= 40 with w-indices up to
k+39; for every other k it rests on the proof in ``ideal`` that the basis,
and so std, is right at every w-index.  The argument does not use
integrality.

Non-flatness: R[[t]] is not flat over R{t}.  Here R is the completion of
the quotient, the Banach algebra the paper means, R[[t]] its formal power
series and R{t} the convergent ones, sum a_k t^k with
sum ||a_k|| r^k < infinity for some r > 0.

  * Completion step.  nf is l1-contractive (each rewrite step scales a
    coefficient by a factor in (0, 1]; see ``ideal``), and so is the
    projection onto one total degree.  Both extend to the completion, nf
    vanishes on the closure of the ideal, and the norm of R is the l1 norm
    of nf (``quotient``).  The ideal is homogeneous, so on R the degree-d
    projection is contractive and commutes with multiplication by x^(k+1)
    up to the shift of degree.  Let f solve the equation over R and let g
    be the degree-1 part of f_k, an l1-summable combination of x, y, z and
    the w_i.  Then x^(k+1) * g = y^k * z^2 in R.  By the third step above,
    and by continuity of nf, the coefficient of x*y^k*w0 in
    nf(x^(k+1) * g) is g's coefficient of w_k divided by k!, since only w_k
    reaches x*y^k*w0; in nf(y^k * z^2) = x*y^k*w0 it is 1.  So
    ||f_k|| >= ||g|| >= k! in R as well: no solution lies in R{t}.
  * Flatness step, by the equational criterion (Matsumura, "Commutative
    Ring Theory", Thm 7.6).  Let a = x - y*t and b = z^2 in R{t}, and let
    f in R[[t]] be a formal solution, so a*f - b*1 = 0.  If R[[t]] were
    flat over R{t}, then f = sum_i h_i f_i and 1 = sum_i h_i g_i with h_i
    in R[[t]] and pairs (f_i, g_i) in R{t} with a*f_i = b*g_i.  Constant
    terms give g(0) = 1 for g = sum_i h_i(0) g_i, which lies in R{t}.  So
    g = 1 - u with u(0) = 0, and ||u||_r < 1 on a small enough radius r,
    where the Neumann series makes g a unit of R{t}.  Then
    F = g^(-1) * sum_i h_i(0) f_i lies in R{t} and a*F = g^(-1) * b * g = b:
    a convergent solution, which the completion step rules out.

The tests check the facts this uses that code can check on a seeded
corpus: nf does not raise the l1 norm, and the norm of a class is the sum
of the norms of its homogeneous parts.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .poly import Monomial, Polynomial, _Record, _set
from .quotient import RElement, _products, divide_by_x, project, r_mul

_X = Polynomial.monomial(Monomial.build(x=1))
_Y = Polynomial.monomial(Monomial.build(y=1))
_Z2 = Polynomial.monomial(Monomial.build(z=2))
_Y_R = project(_Y)  # the class of y, which every order of the solver multiplies by
_MINUS_Y, _MINUS_ONE = -_Y, Polynomial.constant(-1)  # residual's factors of f_{k-1} and z^2


class TruncatedSeriesR(_Record):
    """Coefficients f_0 .. f_K of a series over the quotient, truncated at K;
    the constructor takes a nonempty tuple of RElements."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[RElement, ...]):
        if not isinstance(coeffs, tuple) or not all(isinstance(c, RElement) for c in coeffs):
            raise TypeError("TruncatedSeriesR takes a tuple of RElements")
        if not coeffs:
            raise ValueError("a truncated series has at least the order-0 coefficient")
        _set(self, "coeffs", coeffs)

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def to_json(self) -> list[dict]:
        return [
            {"k": k, "coeff": str(c), "norm": str(c.norm)}
            for k, c in enumerate(self.coeffs)
        ]


def solve_equation(order: int) -> TruncatedSeriesR:
    """Solve (x - y*t) f(t) = z^2 coefficient by coefficient up to t^order.

    Every division by x must succeed; a failure would be an internal error,
    not a caller mistake.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = []
    current = divide_by_x(project(_Z2))
    for k in range(order + 1):
        if current is None:
            raise RuntimeError(f"division by x unexpectedly failed at order {k}")
        coeffs.append(current)
        current = divide_by_x(r_mul(_Y_R, current))
    return TruncatedSeriesR(tuple(coeffs))


def expected_coefficient(k: int) -> RElement:
    """k! * w_k, the closed form the solver must reproduce."""
    return project(Polynomial.monomial(Monomial.build(w={k: 1}), factorial(k)))


def residual(f: TruncatedSeriesR) -> TruncatedSeriesR:
    """Coefficients of (x - y*t) * f - z^2 modulo t^(K+1), projected.

    All zero exactly when f solves the equation through order K.  Order k
    is x*f_k - y*f_{k-1}, and order 0 is x*f_0 - z^2; each is summed by
    class, as ``r_mul`` sums a product, and no product is built.
    """
    lower = [(_MINUS_ONE, _Z2)] + [(_MINUS_Y, c.poly) for c in f.coeffs[:-1]]
    return TruncatedSeriesR(
        tuple(_products((_X, c.poly), low) for c, low in zip(f.coeffs, lower))
    )


class DivergenceCertificate(_Record):
    """Least k with norm(f_k)^(1/k) >= bound, or None if the truncation is
    too short; ``table`` lists (k, exact norm of f_k)."""

    __slots__ = _fields = ("bound", "reached_at", "table")

    def __init__(
        self, bound: Fraction, reached_at: int | None, table: tuple[tuple[int, Fraction], ...]
    ):
        _set(self, "bound", bound)
        _set(self, "reached_at", reached_at)
        _set(self, "table", table)

    def to_json(self) -> dict:
        return {
            "bound": str(self.bound),
            "reached": self.reached_at is not None,
            "k": self.reached_at,
            "norms": [{"k": k, "norm": str(n)} for k, n in self.table],
        }


def divergence_certificate(
    f: TruncatedSeriesR, bound: int | Fraction
) -> DivergenceCertificate:
    """Certify coefficient-norm growth using exact rational comparisons.

    Every coefficient's norm is its exact quotient norm, the l1 norm of its
    normal form (see ``quotient``), whatever its shape.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    norms = [c.norm for c in f.coeffs]
    reached = None
    for k in range(1, f.truncation_order + 1):
        # norm^(1/k) >= bound  <=>  norm >= bound^k, exact in QQ
        if norms[k] >= bound**k:
            reached = k
            break
    return DivergenceCertificate(bound, reached, tuple(enumerate(norms)))
