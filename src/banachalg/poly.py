"""Exact sparse polynomial arithmetic over the rationals in the alphabet
x, y, z, w0, w1, w2, ...

A monomial is a finite exponent record over that countable alphabet; only
finitely many w-indices ever carry a nonzero exponent.  Coefficients are
``fractions.Fraction``, so every identity in this package is checked exactly,
never in floating point.

Monomials are compared by total degree first, ties broken lexicographically
on the tuple

    (z-exponent, x-exponent, y-exponent, w-exponents from the highest
     index present downward to w0)

which realises the variable precedence z > x > y > w_l > w_k for l > k.

A polynomial stores its terms sorted strictly decreasing in that order, so
the leading term is ``terms[0]`` and printing is canonical.  The l1 norm
(sum of absolute values of the coefficients) makes the completion of this
ring a Banach algebra; ``l1_norm`` computes it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

Rational = Union[int, Fraction]


class Variable(NamedTuple):
    """One of the indeterminates: kind 'z', 'x', 'y' or 'w' with an index.

    The index is 0 for x, y, z and the subscript for w-variables.
    """

    kind: str
    index: int = 0

    @property
    def name(self) -> str:
        return f"w{self.index}" if self.kind == "w" else self.kind

    def __str__(self) -> str:
        return self.name


X = Variable("x")
Y = Variable("y")
Z = Variable("z")


def W(index: int) -> Variable:
    if index < 0:
        raise ValueError(f"w-index must be nonnegative, got {index}")
    return Variable("w", index)


@dataclass(frozen=True)
class Monomial:
    """Exponent record: z^z_exp * x^x_exp * y^y_exp * prod w_i^e_i.

    ``w`` holds (index, exponent) pairs with ascending indices and no zero
    exponents.  Instances are immutable and hashable; ``key`` caches the
    order tuple used by ``compare``.
    """

    z_exp: int = 0
    x_exp: int = 0
    y_exp: int = 0
    w: tuple[tuple[int, int], ...] = ()
    key: tuple = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if min((self.z_exp, self.x_exp, self.y_exp), default=0) < 0 or any(
            e <= 0 or i < 0 for i, e in self.w
        ):
            raise ValueError(f"invalid exponents in monomial {self!r}")
        degree = self.z_exp + self.x_exp + self.y_exp + sum(e for _, e in self.w)
        # w-part compared from the highest index downward; with equal total
        # degree, lexicographic comparison of descending (index, exp) pairs
        # is equivalent to comparing padded exponent vectors.
        wdesc = tuple(sorted(self.w, reverse=True))
        object.__setattr__(
            self, "key", (degree, self.z_exp, self.x_exp, self.y_exp, wdesc)
        )

    @staticmethod
    def build(z: int = 0, x: int = 0, y: int = 0, w: Mapping[int, int] | None = None) -> Monomial:
        wpart = tuple(sorted((i, e) for i, e in (w or {}).items() if e))
        return Monomial(z, x, y, wpart)

    @property
    def degree(self) -> int:
        return self.key[0]

    def w_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.w)

    def w_size(self) -> int:
        """Number of w-factors counted with multiplicity."""
        return sum(e for _, e in self.w)

    def w_mass(self) -> int:
        """Sum of w-indices counted with multiplicity."""
        return sum(i * e for i, e in self.w)

    def __mul__(self, other: Monomial) -> Monomial:
        d = dict(self.w)
        for i, e in other.w:
            d[i] = d.get(i, 0) + e
        return Monomial(
            self.z_exp + other.z_exp,
            self.x_exp + other.x_exp,
            self.y_exp + other.y_exp,
            tuple(sorted(d.items())),
        )

    def divides(self, other: Monomial) -> bool:
        if (
            self.z_exp > other.z_exp
            or self.x_exp > other.x_exp
            or self.y_exp > other.y_exp
        ):
            return False
        d = dict(other.w)
        return all(d.get(i, 0) >= e for i, e in self.w)

    def __truediv__(self, other: Monomial) -> Monomial:
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        d = dict(self.w)
        for i, e in other.w:
            d[i] -= e
        return Monomial(
            self.z_exp - other.z_exp,
            self.x_exp - other.x_exp,
            self.y_exp - other.y_exp,
            tuple(sorted((i, e) for i, e in d.items() if e)),
        )

    def lcm(self, other: Monomial) -> Monomial:
        d = dict(self.w)
        for i, e in other.w:
            d[i] = max(d.get(i, 0), e)
        return Monomial(
            max(self.z_exp, other.z_exp),
            max(self.x_exp, other.x_exp),
            max(self.y_exp, other.y_exp),
            tuple(sorted(d.items())),
        )

    def __str__(self) -> str:
        if self.degree == 0:
            return "1"
        parts = []
        for name, e in (("z", self.z_exp), ("x", self.x_exp), ("y", self.y_exp)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        for i, e in self.w:
            parts.append(f"w{i}" if e == 1 else f"w{i}^{e}")
        return "*".join(parts)


ONE = Monomial()


def compare(m1: Monomial, m2: Monomial) -> int:
    """Total monomial order: -1, 0 or 1 as m1 <, =, > m2."""
    if m1.key < m2.key:
        return -1
    if m1.key > m2.key:
        return 1
    return 0


@dataclass(frozen=True)
class Term:
    coefficient: Fraction
    monomial: Monomial

    def __post_init__(self):
        if not isinstance(self.coefficient, Fraction):
            object.__setattr__(self, "coefficient", Fraction(self.coefficient))
        if self.coefficient == 0:
            raise ValueError("zero coefficient in Term")

    def __str__(self) -> str:
        return format_term(self.coefficient, self.monomial)


@dataclass(frozen=True)
class Polynomial:
    """Finite sum of terms, sorted strictly decreasing in the monomial order.

    The zero polynomial has an empty term tuple.  Use ``from_terms`` (or the
    arithmetic operators) to build instances; it merges duplicate monomials
    and drops zero coefficients.
    """

    terms: tuple[Term, ...] = ()

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Rational, Monomial]]) -> Polynomial:
        zero = Fraction(0)
        acc: dict[Monomial, Fraction] = {}
        for c, m in pairs:
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c == 0:
                continue
            acc[m] = acc.get(m, zero) + c
        ordered = sorted(
            ((c, m) for m, c in acc.items() if c != 0),
            key=lambda cm: cm[1].key,
            reverse=True,
        )
        return Polynomial(tuple(Term(c, m) for c, m in ordered))

    @staticmethod
    def zero() -> Polynomial:
        return Polynomial(())

    @staticmethod
    def constant(c: Rational) -> Polynomial:
        return Polynomial.from_terms([(Fraction(c), ONE)])

    @staticmethod
    def monomial(m: Monomial, c: Rational = 1) -> Polynomial:
        return Polynomial.from_terms([(Fraction(c), m)])

    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self) -> Term:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0]

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        return max((t.monomial.degree for t in self.terms), default=-1)

    def __add__(self, other: Polynomial) -> Polynomial:
        return Polynomial.from_terms(
            [(t.coefficient, t.monomial) for t in self.terms]
            + [(t.coefficient, t.monomial) for t in other.terms]
        )

    def __neg__(self) -> Polynomial:
        return Polynomial(tuple(Term(-t.coefficient, t.monomial) for t in self.terms))

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial | Rational) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero()
            return Polynomial(
                tuple(Term(t.coefficient * c, t.monomial) for t in self.terms)
            )
        return Polynomial.from_terms(
            (s.coefficient * t.coefficient, s.monomial * t.monomial)
            for s in self.terms
            for t in other.terms
        )

    __rmul__ = __mul__

    def mul_term(self, c: Rational, m: Monomial) -> Polynomial:
        """Multiply by the single term c*m (exact, order preserved)."""
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero()
        return Polynomial(
            tuple(Term(t.coefficient * c, t.monomial * m) for t in self.terms)
        )

    def __str__(self) -> str:
        return to_str(self)


def l1_norm(p: Polynomial) -> Fraction:
    """Sum of the absolute values of all coefficients; 0 iff p = 0."""
    return sum((abs(t.coefficient) for t in p.terms), Fraction(0))


# ---------------------------------------------------------------------------
# text format
#
# variables   x, y, z, w<digits>
# exponent    ^<positive integer>     (variables only)
# coefficient <int> or (<int>/<int>)
# terms       joined with + or -, products with *, whitespace ignored
# ---------------------------------------------------------------------------


def format_term(c: Fraction, m: Monomial, leading: bool = True) -> str:
    sign = "-" if c < 0 else ""
    if not leading:
        sign = "- " if c < 0 else "+ "
    mag = abs(c)
    if m.degree == 0:
        body = str(mag) if mag.denominator == 1 else f"({mag})"
    elif mag == 1:
        body = str(m)
    elif mag.denominator == 1:
        body = f"{mag}*{m}"
    else:
        body = f"({mag})*{m}"
    return sign + body


def to_str(p: Polynomial) -> str:
    """Canonical rendering, terms in decreasing monomial order.

    ``parse(to_str(p)) == p`` for every polynomial.
    """
    if p.is_zero():
        return "0"
    out = [format_term(p.terms[0].coefficient, p.terms[0].monomial, leading=True)]
    for t in p.terms[1:]:
        out.append(format_term(t.coefficient, t.monomial, leading=False))
    return " ".join(out)


class ParseError(ValueError):
    """Malformed polynomial text; ``position`` is the 0-based offense index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise self.error(f"expected '{ch}'")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def parse_polynomial(self) -> Polynomial:
        terms: list[tuple[Fraction, Monomial]] = []
        negative = False
        if self.take("-"):
            negative = True
        elif self.take("+"):
            pass
        while True:
            c, m = self.parse_term()
            terms.append((-c if negative else c, m))
            nxt = self.peek()
            if nxt == "+":
                self.pos += 1
                negative = False
            elif nxt == "-":
                self.pos += 1
                negative = True
            elif nxt == "":
                break
            else:
                raise self.error(f"unexpected character {nxt!r}")
        return Polynomial.from_terms(terms)

    def parse_term(self) -> tuple[Fraction, Monomial]:
        coeff = Fraction(1)
        mono = ONE
        first = True
        while True:
            c, m = self.parse_factor(first)
            coeff *= c
            mono = mono * m
            first = False
            if not self.take("*"):
                return coeff, mono

    def parse_factor(self, first: bool) -> tuple[Fraction, Monomial]:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            num = self.integer()
            self.expect("/")
            den = self.integer()
            if den == 0:
                raise self.error("zero denominator")
            self.expect(")")
            return Fraction(num, den), ONE
        if ch.isdigit():
            return Fraction(self.integer()), ONE
        if ch and ch in "xyzw":
            v = self.parse_variable()
            e = 1
            if self.take("^"):
                start = self.pos
                e = self.integer()
                if e <= 0:
                    self.pos = start
                    raise self.error("exponent must be a positive integer")
            if v.kind == "w":
                return Fraction(1), Monomial.build(w={v.index: e})
            return Fraction(1), Monomial.build(**{v.kind: e})
        if ch == "":
            raise self.error("unexpected end of input" if not first else "empty term")
        raise self.error(f"unexpected character {ch!r}")

    def parse_variable(self) -> Variable:
        ch = self.text[self.pos]
        self.pos += 1
        if ch in "xyz":
            return Variable(ch)
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise self.error("w must carry an index, e.g. w0")
        return W(int(self.text[digits : self.pos]))


def parse(text: str) -> Polynomial:
    """Parse the text grammar above into a canonical Polynomial.

    Raises ParseError (with position) on malformed input.
    """
    parser = _Parser(text)
    parser.skip_ws()
    if parser.pos == len(text):
        raise ParseError("empty input", 0)
    p = parser.parse_polynomial()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    return p
