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

``divide_by_x`` inverts multiplication by x on normal forms.  A standard
monomial times x is either a standard monomial that still contains x or,
when it is x-free and touches some w_i with i >= 1, has the normal form

    r * z^eps * y^(b+1) * window(size s, mass one lower)

by the closed form in ``ideal``, with r the ratio of the Wfact values.
Inverting is therefore term-by-term arithmetic on (size, mass) data.

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

from .ideal import _wfact, _window, is_standard, nf
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
    # normal forms are closed under addition
    return RElement(a.poly + b.poly)


def r_mul(a: RElement, b: RElement) -> RElement:
    return project(a.poly * b.poly)


def divide_by_x(g: RElement) -> Optional[RElement]:
    """Return h with project(x) * h == g, or None when no such h exists.

    Works term by term on the normal form of g:
      * a term with an x pulls back by dividing one x out;
      * an x-free term with y and at least one w-factor pulls back to
        z^eps * y^(b-1) * window(size, mass+1), rescaled by the Wfact ratio;
      * any other term (pure powers of y, or monomials free of x and y that
        still contain w or z only) certifies that no quotient exists.

    When several preimages exist (see the module caveat) the window-shaped
    one is returned; x * result == g holds in the quotient in every case.
    """
    parts: list[tuple[Fraction, Monomial]] = []
    for t in g.poly.terms:
        m = t.monomial
        if m.x_exp >= 1:
            parts.append((t.coefficient, m / Monomial.build(x=1)))
            continue
        size = m.w_size()
        if m.y_exp >= 1 and size >= 1:
            mass = m.w_mass()
            source, wfact_source = _window(size, mass + 1)
            scalar = Fraction(_wfact(m.w), wfact_source)
            pulled = Monomial(m.z_exp, 0, m.y_exp - 1, source)
            parts.append((t.coefficient / scalar, pulled))
            continue
        return None
    return RElement(Polynomial.from_terms(parts))
