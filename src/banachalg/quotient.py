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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ideal import _class_monomial, _invariant, is_standard, nf
from .poly import Monomial, Polynomial, l1_norm, to_str


@dataclass(frozen=True)
class RElement:
    """A residue class, held as its unique normal form."""

    poly: Polynomial

    def __post_init__(self):
        if not is_standard(self.poly):
            raise ValueError(
                "RElement requires a normal form; use project() to reduce first"
            )

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
    object.__setattr__(r, "poly", p)
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
    return project(a.poly * b.poly)


def divide_by_x(g: RElement) -> Optional[RElement]:
    """Return h with project(x) * h == g, or None when no such h exists.

    Term by term on the normal form of g: c*m pulls back to
    c * (Wfact(m') / Wfact(m)) * m', with m' the member of the class
    I(m) - I(x) that ``ideal`` picks, and a class that holds no monomial
    certifies that no quotient exists (see the module docstring).

    When several preimages exist (see the module caveat) the window-shaped
    one is returned; x * result == g holds in the quotient in every case.
    """
    parts: list[tuple[Fraction, Monomial]] = []
    for t in g.poly.terms:
        (z, s, n, d), wfact = _invariant(t.monomial)
        source, wfact_source = _class_monomial(z, s - 1, n, d)  # I(m) - I(x)
        if source is None:
            return None
        c = t.coefficient
        c = Fraction(c.numerator * wfact_source, c.denominator * wfact)
        parts.append((c, source))
    # every source is a class monomial, which ``ideal`` proves standard
    return _r_element(Polynomial.from_terms(parts))
