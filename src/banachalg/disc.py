"""The disc algebra of radius rho and the approximate-solution residuals.

An element is a polynomial in a single variable x with rational
coefficients, normed by ||f||_rho = sum |a_n| rho^n; rho is carried on the
element and kept exact.  Series in t over this algebra are plain coefficient
lists, so every expansion below is an identity in QQ[x][t] with no rounding
and no hidden truncation.

Two families of approximate solutions are built from the truncated square
root S_c(u) = 1 + sum_{n=1..c} a_n u^n of 1 + u:

  * family 1 solves x*y1^2 = (x + t)*y2^2 approximately:
        y2 = x^c,  y1 = x^c + sum_{n=1..c} a_n x^(c-n) t^n = x^c * S_c(t/x),
    with residual t-order exactly c + 1;
  * family 2 replaces the explicit t by a third unknown held at y3 = t and
    evaluates x*y1^2 - (x + y3)*y2^2, with guaranteed order at least c;
    since y3 is exactly t, both families share one residual computation.

That computation is one in the single variable u = t/x: the residual is
x^(2c+1) * r(t/x) with r(u) = S_c(u)^2 - 1 - u, an identity in QQ[x][t]
proved in ``example1_residual``, so its t-order and leading coefficient are
read off the coefficient list of r.  The two-variable product of
``BRhoSeries`` built from ``example1_solutions`` is the same residual, and
the tests use it as the oracle.

The truncations approximate to arbitrarily high t-order, yet the only exact
solution with coefficients in the disc algebra is zero.  The disc algebra
embeds in the power series in x, so a solution is a pair of power series in
x and t.  If it is nonzero, both y1 and y2 are nonzero; their lowest-degree
homogeneous parts Y1, Y2 then satisfy x*Y1^2 = (x + t)*Y2^2 in the
polynomial ring in x and t, a unique factorisation domain in which the
prime x + t divides the left side to an even and the right side to an odd
power.  The residual orders computed here are the quantitative half of
that phenomenon, and the approximants are as good as any against y2 = x^c:
for y1 = sum y1_n t^n the t^n coefficient of the equation reads

    x * sum_{i+j=n} y1_i y1_j = x^(2c+1) [n = 0] + x^(2c) [n = 1].

At n = 0 this gives y1_0 = +-x^c; after that the new unknown y1_n enters
linearly as 2*x*y1_0*y1_n, so y1_n = +-a_n x^(c-n) is forced, the
coefficients of x^c * sqrt(1 + t/x).  At n = c + 1 the forced value
+-a_{c+1} x^(-1) is not in the disc algebra, since a_{c+1} = binom(1/2, c+1)
is never 0; so no y1 reaches t-order c + 2 against y2 = x^c.  The test
suite runs this triangular recursion in exact arithmetic for small c.

``remark_growth`` tabulates ||x^(k!)||_2 = 2^(k!), a coefficient sequence
that defeats every geometric bound, separating series with summable
coefficient norms from plain convergent power series.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import factorial, lcm

from .poly import Monomial, _Record, _join, _set


class BRhoElement(_Record):
    """Polynomial in x with exact coefficients and the norm weight rho.

    ``coeffs`` holds (exponent, coefficient) pairs, exponents ascending, no
    zeros, and rho is positive.  The public constructor takes int exponents,
    int or Fraction coefficients and rho (``bool`` is refused), raises
    TypeError for any other type and ValueError for a negative exponent,
    exponents that do not strictly ascend, a zero coefficient or rho <= 0,
    and stores Fractions.  ``from_dict``, ``zero``, ``x_power`` and the
    arithmetic build through the private, unchecked ``_element``.
    """

    __slots__ = _fields = ("coeffs", "rho")

    def __init__(self, coeffs: tuple[tuple[int, int | Fraction], ...], rho: int | Fraction):
        if (
            not isinstance(coeffs, tuple)
            or not all(
                isinstance(pair, tuple) and len(pair) == 2 and type(pair[0]) is int
                and _is_rational(pair[1])
                for pair in coeffs
            )
            or not _is_rational(rho)
        ):
            raise TypeError(
                "BRhoElement takes a tuple of (int exponent, int or Fraction coefficient) "
                f"pairs and an int or Fraction rho, got {coeffs!r} and {rho!r}"
            )
        if any(e < 0 for e, _ in coeffs):
            raise ValueError("negative exponent")
        if any(a >= b for (a, _), (b, _) in zip(coeffs, coeffs[1:])):
            raise ValueError("exponents must strictly ascend")
        if not all(c for _, c in coeffs):
            raise ValueError("zero coefficient")
        if rho <= 0:
            raise ValueError("rho must be positive")
        _set(self, "coeffs", tuple([(e, Fraction(c)) for e, c in coeffs]))
        _set(self, "rho", Fraction(rho))

    @staticmethod
    def from_dict(d: dict[int, int | Fraction], rho: int | Fraction) -> BRhoElement:
        rho = Fraction(rho)
        if rho <= 0:
            raise ValueError("rho must be positive")
        pairs = tuple(sorted((e, f) for e, c in d.items() if (f := Fraction(c))))
        if any(e < 0 for e, _ in pairs):
            raise ValueError("negative exponent")
        return _element(pairs, rho)

    @staticmethod
    def zero(rho: int | Fraction) -> BRhoElement:
        return BRhoElement.from_dict({}, rho)

    @staticmethod
    def x_power(e: int, rho: int | Fraction, c: int | Fraction = 1) -> BRhoElement:
        return BRhoElement.from_dict({e: c}, rho)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: BRhoElement):
        if self.rho != other.rho:
            raise ValueError("mixed rho values")

    def __add__(self, other: BRhoElement) -> BRhoElement:
        self._check(other)
        d = dict(self.coeffs)
        for e, c in other.coeffs:
            d[e] = d.get(e, Fraction(0)) + c
        return BRhoElement.from_dict(d, self.rho)

    def __neg__(self) -> BRhoElement:
        return _element(tuple((e, -c) for e, c in self.coeffs), self.rho)

    def __sub__(self, other: BRhoElement) -> BRhoElement:
        return self + (-other)

    def __mul__(self, other: BRhoElement) -> BRhoElement:
        self._check(other)
        d: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                d[e] = d.get(e, Fraction(0)) + c1 * c2
        return BRhoElement.from_dict(d, self.rho)

    def __str__(self) -> str:
        return _join([(c, Monomial.build(x=e)) for e, c in reversed(self.coeffs)])


def _is_rational(v) -> bool:
    """Whether v is an int (not a bool) or a Fraction."""
    return type(v) is int or isinstance(v, Fraction)


def _element(coeffs: tuple[tuple[int, Fraction], ...], rho: Fraction) -> BRhoElement:
    """The unchecked constructor, for fields valid by construction."""
    f = object.__new__(BRhoElement)
    _set(f, "coeffs", coeffs)
    _set(f, "rho", rho)
    return f


def brho_norm(f: BRhoElement) -> Fraction:
    """Exact weighted l1 norm: sum |a_e| * rho^e."""
    return sum((abs(c) * f.rho**e for e, c in f.coeffs), Fraction(0))


class BRhoSeries(_Record):
    """Polynomial in t with BRhoElement coefficients (index = t-power).

    The public constructor takes a tuple of BRhoElements and an int or
    Fraction rho, raises TypeError for any other type and ValueError for
    rho <= 0 or an element whose rho differs, and stores rho as a Fraction.
    ``from_elements``, ``constant`` and the arithmetic build through the
    private, unchecked ``_series``."""

    __slots__ = _fields = ("coeffs", "rho")

    def __init__(self, coeffs: tuple[BRhoElement, ...], rho: int | Fraction):
        if (
            not isinstance(coeffs, tuple)
            or not all(isinstance(c, BRhoElement) for c in coeffs)
            or not _is_rational(rho)
        ):
            raise TypeError(
                "BRhoSeries takes a tuple of BRhoElements and an int or Fraction rho, "
                f"got {coeffs!r} and {rho!r}"
            )
        if rho <= 0:
            raise ValueError("rho must be positive")
        if any(c.rho != rho for c in coeffs):
            raise ValueError("mixed rho values")
        _set(self, "coeffs", coeffs)
        _set(self, "rho", Fraction(rho))

    @staticmethod
    def from_elements(elements: Sequence[BRhoElement], rho: int | Fraction) -> BRhoSeries:
        rho = Fraction(rho)
        if rho <= 0:
            raise ValueError("rho must be positive")
        for e in elements:
            if e.rho != rho:
                raise ValueError("mixed rho values")
        return _series(tuple(elements), rho)

    @staticmethod
    def constant(element: BRhoElement) -> BRhoSeries:
        return _series((element,), element.rho)

    def __add__(self, other: BRhoSeries) -> BRhoSeries:
        if self.rho != other.rho:
            raise ValueError("mixed rho values")
        n = max(len(self.coeffs), len(other.coeffs))
        zero = BRhoElement.zero(self.rho)
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else zero
            b = other.coeffs[i] if i < len(other.coeffs) else zero
            out.append(a + b)
        return _series(tuple(out), self.rho)

    def __neg__(self) -> BRhoSeries:
        return _series(tuple(-c for c in self.coeffs), self.rho)

    def __sub__(self, other: BRhoSeries) -> BRhoSeries:
        return self + (-other)

    def __mul__(self, other: BRhoSeries) -> BRhoSeries:
        if self.rho != other.rho:
            raise ValueError("mixed rho values")
        zero = BRhoElement.zero(self.rho)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return _series(tuple(out), self.rho)


def _series(coeffs: tuple[BRhoElement, ...], rho: Fraction) -> BRhoSeries:
    """The unchecked constructor, for elements that all have rho."""
    s = object.__new__(BRhoSeries)
    _set(s, "coeffs", coeffs)
    _set(s, "rho", rho)
    return s


def sqrt_coeffs(count: int) -> list[Fraction]:
    """Coefficients a_1 .. a_count of the square root of 1 + t.

    The unique power series with constant term 1 squaring to 1 + t has
    a_n = binom(1/2, n), built here from a_n / a_{n-1} = (3 - 2n) / (2n) in
    O(count) steps; that the square is 1 + t is what the leading zeros of
    ``sqrt_truncation_residual`` check.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    a = [Fraction(1)]
    for n in range(1, count + 1):
        a.append(a[-1] * Fraction(3 - 2 * n, 2 * n))
    return a[1:]


def sqrt_truncation_residual(count: int) -> list[Fraction]:
    """Coefficients of (1 + sum a_n t^n)^2 - (1 + t); first count+1 entries
    vanish, which the tests assert.

    The square is taken in integers over the common denominator of the
    a_n, with one Fraction per output coefficient."""
    a = [Fraction(1)] + sqrt_coeffs(count)
    den = lcm(*(ai.denominator for ai in a))
    nums = [ai.numerator * (den // ai.denominator) for ai in a]
    # at count 0 the square is the constant 1, but the list must hold -t
    square = [0] * max(2 * count + 1, 2)
    for i, ni in enumerate(nums):
        for j, nj in enumerate(nums):
            square[i + j] += ni * nj
    den2 = den * den
    square[0] -= den2
    square[1] -= den2
    return [Fraction(s, den2) for s in square]


DEFAULT_RHO = Fraction(2)


def example1_solutions(
    c: int, rho: int | Fraction = DEFAULT_RHO
) -> tuple[BRhoSeries, BRhoSeries]:
    """(y1, y2) with y2 = x^c and y1 = x^c + sum_{n<=c} a_n x^(c-n) t^n."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    rho = Fraction(rho)
    a = sqrt_coeffs(c)
    y1 = [BRhoElement.x_power(c, rho)]
    y1 += [BRhoElement.x_power(c - n, rho, a[n - 1]) for n in range(1, c + 1)]
    y2 = BRhoSeries.constant(BRhoElement.x_power(c, rho))
    return BRhoSeries.from_elements(y1, rho), y2


def example2_solutions(
    c: int, rho: int | Fraction = DEFAULT_RHO
) -> tuple[BRhoSeries, BRhoSeries, BRhoSeries]:
    """(y1, y2, y3): the pair of family 1 together with y3 = t."""
    y1, y2 = example1_solutions(c, rho)
    rho = Fraction(rho)
    y3 = BRhoSeries.from_elements(
        [BRhoElement.zero(rho), BRhoElement.from_dict({0: 1}, rho)], rho
    )
    return y1, y2, y3


def example1_residual(
    c: int, rho: int | Fraction = DEFAULT_RHO
) -> tuple[int | None, BRhoElement]:
    """(t-order, leading coefficient) of x*y1^2 - (x+t)*y2^2 at the order-c
    approximants; the order is exactly c + 1 and the leading coefficient is
    -2*a_{c+1}*x^c (None would mean an identically zero residual, which does
    not occur).

    The residual is computed in one variable.  Put u = t/x.  Then
    y1 = x^c * S_c(u) and y2 = x^c, so

        x*y1^2 - (x+t)*y2^2 = x^(2c+1)*S_c(u)^2 - x^(2c)*(x+t)
                            = x^(2c+1) * r(u),   r(u) = S_c(u)^2 - 1 - u,

    and with r = sum_n r_n u^n (``sqrt_truncation_residual``, degree at
    most max(2c, 1) <= 2c+1) the t^n coefficient of the residual is the
    monomial r_n * x^(2c+1-n), with a nonnegative exponent.  So the t-order
    is the least n with r_n != 0 and the leading coefficient is
    r_n * x^(2c+1-n); both are read off r, not assumed.

    Why the order is exactly c + 1: write sqrt(1+u) = S_c(u) + T(u) with
    T = sum_{n>c} a_n u^n.  Then S_c^2 = (1 + u) - 2*S_c*T - T^2, and
    S_c*T = a_{c+1} u^(c+1) + O(u^(c+2)) while T^2 = O(u^(2c+2)), so
    r(u) = -2*a_{c+1} u^(c+1) + O(u^(c+2)).  Here a_{c+1} = binom(1/2, c+1)
    is never 0, as 1/2 is not a nonnegative integer; the lead is therefore
    -2*a_{c+1} * x^(2c+1-(c+1)) = -2*a_{c+1}*x^c.

    This costs O(c^2) integer products instead of the O(c^2) products of
    ``BRhoElement``s that the ``BRhoSeries`` product of the solutions
    takes; the tests keep that product as the oracle.

    The shift t is the y3 of ``example2_solutions``, so this is also the
    residual of family 2 and ``example2_residual`` shares this code path.
    """
    if c < 0:
        raise ValueError("c must be nonnegative")
    for n, r_n in enumerate(sqrt_truncation_residual(c)):
        if r_n:
            return n, BRhoElement.x_power(2 * c + 1 - n, rho, r_n)
    return None, BRhoElement.zero(rho)


def example2_residual(
    c: int, rho: int | Fraction = DEFAULT_RHO
) -> tuple[int | None, BRhoElement]:
    """(t-order, leading coefficient) of x*y1^2 - (x+y3)*y2^2 with y3 = t;
    guaranteed order at least c.  Since y3 is exactly the series t, this is
    ``example1_residual`` and goes through the same code path."""
    return example1_residual(c, rho)


REMARK_KMAX = 6


def remark_growth(kmax: int) -> list[tuple[int, Fraction]]:
    """Exact table of ||x^(k!)||_2 = 2^(k!) for k = 0..kmax.

    kmax is capped at 6 because the values grow as 2^(k!).
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if kmax > REMARK_KMAX:
        raise ValueError(f"kmax must be at most {REMARK_KMAX}; 2^(k!) explodes")
    out = []
    for k in range(kmax + 1):
        norm = brho_norm(BRhoElement.x_power(factorial(k), 2))
        out.append((k, norm))
    return out
