"""Elements of the quotient of the l1-completed polynomial algebra by the
closure of the binomial ideal, represented by their normal forms.

The quotient norm of a class [p] is exactly the l1 norm of nf(p).  Each
monomial m maps to rho(m) * std(m) with 0 < rho <= 1 (see ``ideal``), so:

  * every representative r = sum c_m * m of [p] has
    ||r||_1 = sum |c_m| >= sum |c_m| * rho(m) >= ||nf(r)||_1 = ||nf(p)||_1;
  * nf(p) is itself a representative, so the bound is attained;
  * nf has operator norm <= 1 in the l1 norm and vanishes on the ideal, so
    it extends to the completion and vanishes on the closure of the ideal;
    passing to the closure therefore cannot lower the distance.

``_products`` multiplies by class sums.  A product p*q is never built:
``ideal`` proves that I(m1*m2) follows from I(m1) and I(m2) (additive up
to a z-parity carry) and that Wfact is multiplicative, so each pair of
terms adds (c1 / Wfact(m1)) * (c2 / Wfact(m2)) to the sum of its
product's class in ``ideal._class_sums``, the accumulator ``nf`` uses.
Only pairs whose product has s = 0 multiply monomials; they pass through
unreduced, and their factors need no factorial.  Several products share
one accumulator, so the result equals project(sum(p*q)).  ``r_mul(a, b)``
is ``_products`` of the one pair (a.poly, b.poly), and equals
project(a.poly * b.poly), the route the tests keep as the oracle;
``series.residual`` reads each order of its residual through
``_products`` of two pairs.

``divide_by_x`` inverts multiplication by x on normal forms through the
class invariant I of ``ideal``.  Multiplying by x adds I(x) = (0, 1, 0, 0),
which raises s by one, and a class with s >= 1 holds exactly one standard
monomial.  So x*h has a term on the standard monomial m only if some
monomial of h lies in the class I(m) - I(x).  When that class holds a
monomial m', then x*m' = (Wfact(m) / Wfact(m')) * m in the quotient, and
(Wfact(m') / Wfact(m)) * m' pulls m back; when it holds none, no quotient
exists.

Caveat, checked by the test suite: multiplication by x is *not* injective on
the quotient.  For example x*(3*w0*w3 - w1*w2) = w2*F1 - w0*F3 lies in the
ideal while 3*w0*w3 - w1*w2 is a nonzero normal form.  Distinct y-free
monomials with equal size and mass map to the same window monomial, so a
quotient by x is in general one representative of an affine family;
``divide_by_x`` returns the window-shaped one.  For inputs whose terms all
contain x, or y, with the y-free w-part confined to w0, the preimage is
unique and the round trip is exact.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import chain

from .ideal import _TERM_KEY, _class_monomial, _class_sums, _invariant, is_standard, nf
from .poly import Polynomial, Term, _polynomial, _Record, _set, _term, l1_norm, to_str


class RElement(_Record):
    """A residue class, held as its unique normal form."""

    __slots__ = _fields = ("poly",)

    def __init__(self, poly: Polynomial):
        if not isinstance(poly, Polynomial):
            raise TypeError(f"RElement takes a Polynomial, got {poly!r}")
        if not is_standard(poly):
            raise ValueError(
                "RElement requires a normal form; use project() to reduce first"
            )
        _set(self, "poly", poly)

    @property
    def norm(self) -> Fraction:
        """The quotient norm: the l1 norm of the normal form (module docstring)."""
        return l1_norm(self.poly)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def to_json(self) -> dict:
        return {"poly": to_str(self.poly), "norm_bound": str(self.norm)}

    def __str__(self) -> str:
        return to_str(self.poly)


R_ZERO = RElement(Polynomial.zero())


def _r_element(p: Polynomial) -> RElement:
    """The unchecked constructor, for a polynomial standard by construction."""
    r = object.__new__(RElement)
    _set(r, "poly", p)
    return r


def project(p: Polynomial) -> RElement:
    """The class of p, i.e. the wrapper around its normal form.

    ``nf`` returns a normal form, so the result skips the ``is_standard``
    check that the public ``RElement(...)`` runs.
    """
    return _r_element(nf(p))


def equal_mod_I(p: Polynomial, q: Polynomial) -> bool:
    """True iff p and q have the same image in the quotient."""
    return nf(p) == nf(q)


def r_add(a: RElement, b: RElement) -> RElement:
    # normal forms are closed under addition, so the sum skips the check
    return _r_element(a.poly + b.poly)


def r_mul(a: RElement, b: RElement) -> RElement:
    """a*b, as ``_products`` of the one pair; equals project(a.poly * b.poly)
    and builds no full product."""
    return _products((a.poly, b.poly))


def _products(*pairs: tuple[Polynomial, Polynomial]) -> RElement:
    """The class of the sum of p*q over the pairs (p, q), summed by class
    over the pairs of factor terms in one accumulator (module docstring);
    equals project(sum(p*q)).  The factors need not be normal forms: I and
    Wfact are read per factor term whatever its monomial, and a product
    with s = 0 is standard."""
    items = chain.from_iterable(
        _pair_items(_factors(p.terms, q.terms), _factors(q.terms, p.terms)) for p, q in pairs
    )
    return _r_element(_class_sums(items, []))


def _factors(terms: tuple[Term, ...], partner: tuple[Term, ...]) -> list[tuple]:
    """(z, s, n, d, num, den, den * Wfact(m), m) per term (num/den)*m, with
    I(m) = (z, s, n, d).  An s = 0 term whose every product with a partner
    term has s = 0 keeps n, d and den * Wfact(m) as None: it costs no
    factorial."""
    high = z_odd = False  # a partner term with s >= 1; one with z odd
    for t in partner:
        m = t.monomial
        high = m.x_exp or m.y_exp or m.z_exp > 1
        if high:
            break
        z_odd = z_odd or m.z_exp
    out = []
    for t in terms:
        m, c = t.monomial, t.coefficient
        if high or m.x_exp or m.y_exp or m.z_exp > 1 or (m.z_exp and z_odd):
            (z, s, n, d), wfact = _invariant(m)
            out.append((z, s, n, d, c.numerator, c.denominator, c.denominator * wfact, m))
        else:
            out.append((m.z_exp, 0, None, None, c.numerator, c.denominator, None, m))
    return out


def _pair_items(fa: list[tuple], fb: list[tuple]) -> Iterator[tuple]:
    """The feed of ``_products`` for ``_class_sums``: one item per pair of
    factor terms, keyed by I of the product, or by the product itself when
    it has s = 0."""
    for z1, s1, n1, d1, u1, v1, vw1, m1 in fa:
        for z2, s2, n2, d2, u2, v2, vw2, m2 in fb:
            carry = z1 & z2
            s = s1 + s2 + carry
            if s:
                yield (z1 ^ z2, s, n1 + n2 + carry, d1 + d2), vw1 * vw2, u1 * u2
            else:  # both factors have s = 0 and no carry: no rule applies
                yield m1 * m2, v1 * v2, u1 * u2


def divide_by_x(g: RElement) -> RElement | None:
    """Return h with project(x) * h == g, or None when no such h exists.

    Term by term on the normal form of g: c*m pulls back to
    c * (Wfact(m') / Wfact(m)) * m', with m' the member of the class
    I(m) - I(x) that ``ideal`` picks, and a class that holds no monomial
    certifies that no quotient exists (see the module docstring).

    When several preimages exist (see the module caveat) the window-shaped
    one is returned; x * result == g holds in the quotient in every case.

    The sources need no merge.  The terms of g are distinct standard
    monomials, each with s >= 1 when a quotient exists, and a class with
    s >= 1 holds one standard monomial, so their classes are distinct; so
    are the classes I(m) - I(x), and so their class monomials.  One sort
    puts them in order.  Every source is a class monomial, which ``ideal``
    proves standard.
    """
    out: list[Term] = []
    for t in g.poly.terms:
        (z, s, n, d), wfact = _invariant(t.monomial)
        source, wfact_source = _class_monomial(z, s - 1, n, d)  # I(m) - I(x)
        if source is None:
            return None
        c = t.coefficient
        out.append(_term(Fraction(c.numerator * wfact_source, c.denominator * wfact), source))
    out.sort(key=_TERM_KEY, reverse=True)
    return _r_element(_polynomial(tuple(out)))
