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

Monomials are validated once, where they enter from outside: the public
constructor ``Monomial(z, x, y, w)`` rejects exponents and indices that are
not ``int`` (TypeError), negative exponents, zero w-exponents, negative
w-indices and w-indices that do not strictly ascend.
``Monomial.build``, the parser and every other module construct through it.
Products, lcms and exact quotients of valid monomials are valid by
construction, so they skip the checks and build their results with the
private ``_monomial``.  ``*`` and ``/`` both build through the rewrite
helper ``_rewrite_monomial``, which computes (m / lead) * tail in one pass
and raises ValueError when lead does not divide m; ``m * n`` is the rewrite
with lead ``ONE`` and ``m / n`` the one with tail ``ONE``.  The
certificate's rewrite chains do little else than build such monomials, so
the checks would dominate their cost.

Terms, like Monomials, are validated only at the public constructor
``Term(c, m)``, which coerces c to ``Fraction``, rejects 0 and rejects an m
that is not a Monomial.
``Polynomial.from_terms`` is the one place that merges (coefficient,
monomial) pairs by monomial: it coerces, adds only where a monomial
repeats, drops zeros once at the end and sorts, before it builds any Term.
``ideal.nf`` merges by class instead, before any class has a monomial, and
sorts its one term per class itself.  Negatives, nonzero scalar multiples
and products of nonzero Fractions are nonzero Fractions, so ``from_terms``,
``-p``, ``p * c``, ``mul_term``, ``ideal.nf`` and ``ideal.generator`` build
their Terms with the private ``_term``; ``ideal.generator`` first turns
its rule's integer coefficients into Fractions.

Polynomials, likewise, are validated only at the public constructor
``Polynomial(terms)``, which rejects anything but a tuple of Terms whose
monomials strictly decrease in the monomial order.  ``from_terms`` and
``ideal.nf`` sort their terms, ``zero`` has none, ``-p`` and ``p * c``
keep the monomials of p, ``mul_term`` multiplies them all by one monomial,
which keeps their order, and ``ideal.generator`` lists lead before tail;
so these build with the private, unchecked ``_polynomial``.

A polynomial stores its terms sorted strictly decreasing in that order, so
the leading term is ``terms[0]`` and printing is canonical.  The l1 norm
(sum of absolute values of the coefficients) makes the completion of this
ring a Banach algebra; ``l1_norm`` computes it exactly.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import attrgetter

_KEY = attrgetter("key")  # the monomial order, as a sort key
_set = object.__setattr__  # writes a slot past a record's read-only __setattr__


class _Record:
    """The immutable value classes of the package: ``_fields`` names the
    constructor's arguments, in order, each stored in a slot.

    Assignment and deletion raise AttributeError; ``==`` holds only between
    two instances of one class with equal fields, and the hash agrees with
    it; ``repr`` is the call that rebuilds the value; pickling and copying
    go through the public constructor, with its checks.  A subclass writes
    its ``__init__`` (checks included) and may replace ``__eq__`` and
    ``__hash__`` by faster ones with the same meaning.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return self.__class__, self._values()


class Monomial(_Record):
    """Exponent record: z^z_exp * x^x_exp * y^y_exp * prod w_i^e_i.

    ``w`` holds (index, exponent) pairs with strictly ascending indices and
    no zero exponents; the constructor raises ValueError otherwise, and
    TypeError for an exponent or index that is not an ``int``, ``bool``
    included (see the module docstring for the operations that skip the
    checks).  Instances are immutable and hashable; ``key`` caches the order
    tuple used by ``compare``, and the hash is computed once from it.
    """

    _fields = ("z_exp", "x_exp", "y_exp", "w")
    __slots__ = (*_fields, "key", "_hash")

    def __init__(
        self,
        z_exp: int = 0,
        x_exp: int = 0,
        y_exp: int = 0,
        w: tuple[tuple[int, int], ...] = (),
    ):
        ints = (z_exp, x_exp, y_exp, *(n for pair in w for n in pair))
        # exactly int, not bool: a float exponent would print as x^1.5, which parse rejects
        if any(type(n) is not int for n in ints):
            raise TypeError(
                "exponents and w-indices must be ints in monomial "
                f"{_repr(z_exp, x_exp, y_exp, w)}"
            )
        if min(z_exp, x_exp, y_exp) < 0 or any(e <= 0 or i < 0 for i, e in w):
            raise ValueError(
                f"invalid exponents in monomial {_repr(z_exp, x_exp, y_exp, w)}"
            )
        if any(a >= b for (a, _), (b, _) in zip(w, w[1:])):
            raise ValueError(
                "w-indices must strictly ascend in monomial "
                f"{_repr(z_exp, x_exp, y_exp, w)}"
            )
        _fill(self, z_exp, x_exp, y_exp, w)

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        return self is other or (self._hash == other._hash and self.key == other.key)

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def build(z: int = 0, x: int = 0, y: int = 0, w: Mapping[int, int] | None = None) -> Monomial:
        wpart = tuple(sorted((i, e) for i, e in (w or {}).items() if e))
        return Monomial(z, x, y, wpart)

    @property
    def degree(self) -> int:
        return self.key[0]

    def __mul__(self, other: Monomial) -> Monomial:
        return _rewrite_monomial(self, ONE, other)

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
        return _rewrite_monomial(self, other, ONE)

    def lcm(self, other: Monomial) -> Monomial:
        d = dict(self.w)
        for i, e in other.w:
            d[i] = max(d.get(i, 0), e)
        return _monomial(
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


_set_z, _set_x, _set_y, _set_w, _set_key, _set_hash = (
    Monomial.__dict__[name].__set__ for name in Monomial.__slots__
)


def _fill(
    m: Monomial, z: int, x: int, y: int, w: tuple[tuple[int, int], ...]
) -> Monomial:
    """Store the fields of m and its order key, bypassing the read-only
    ``__setattr__``.  The caller guarantees that the fields are valid."""
    degree = z + x + y
    for _, e in w:
        degree += e
    # w-part compared from the highest index downward; with equal total
    # degree, lexicographic comparison of descending (index, exp) pairs
    # is equivalent to comparing padded exponent vectors.
    key = (degree, z, x, y, w[::-1])
    _set_z(m, z)
    _set_x(m, x)
    _set_y(m, y)
    _set_w(m, w)
    _set_key(m, key)
    _set_hash(m, hash(key))
    return m


def _monomial(z: int, x: int, y: int, w: tuple[tuple[int, int], ...]) -> Monomial:
    """The unchecked constructor, for results valid by construction."""
    return _fill(object.__new__(Monomial), z, x, y, w)


def _repr(z: int, x: int, y: int, w) -> str:
    return f"Monomial(z_exp={z!r}, x_exp={x!r}, y_exp={y!r}, w={w!r})"


def _rewrite_monomial(m: Monomial, lead: Monomial, tail: Monomial) -> Monomial:
    """(m / lead) * tail in one build; ValueError unless lead divides m."""
    z = m.z_exp - lead.z_exp
    x = m.x_exp - lead.x_exp
    y = m.y_exp - lead.y_exp
    if z < 0 or x < 0 or y < 0:
        raise ValueError(f"{lead} does not divide {m}")
    d = dict(m.w)
    for i, e in lead.w:
        left = d.get(i, 0) - e
        if left > 0:
            d[i] = left
        elif left == 0:
            del d[i]
        else:
            raise ValueError(f"{lead} does not divide {m}")
    for i, e in tail.w:
        d[i] = d.get(i, 0) + e
    return _monomial(
        z + tail.z_exp, x + tail.x_exp, y + tail.y_exp, tuple(sorted(d.items()))
    )


ONE = Monomial()


def compare(m1: Monomial, m2: Monomial) -> int:
    """Total monomial order: -1, 0 or 1 as m1 <, =, > m2."""
    if m1.key < m2.key:
        return -1
    if m1.key > m2.key:
        return 1
    return 0


class Term(_Record):
    """One nonzero term coefficient * monomial, an immutable value.

    The public constructor coerces the coefficient to ``Fraction``, rejects
    0 and raises TypeError unless the monomial is a Monomial;
    ``Polynomial``'s own operations and ``ideal.generator`` build their
    Terms with the private, unchecked ``_term`` (see the module docstring).
    """

    __slots__ = _fields = ("coefficient", "monomial")

    def __init__(self, coefficient: int | Fraction, monomial: Monomial):
        if not isinstance(monomial, Monomial):
            raise TypeError(f"Term takes a coefficient and a Monomial, got {monomial!r}")
        if not isinstance(coefficient, Fraction):
            coefficient = Fraction(coefficient)
        if coefficient == 0:
            raise ValueError("zero coefficient in Term")
        _set_coefficient(self, coefficient)
        _set_monomial(self, monomial)

    def __str__(self) -> str:
        return format_term(self.coefficient, self.monomial)


_set_coefficient, _set_monomial = (
    Term.__dict__[name].__set__ for name in Term.__slots__
)


def _term(c: Fraction, m: Monomial) -> Term:
    """The unchecked constructor, for a nonzero Fraction ``c``."""
    t = object.__new__(Term)
    _set_coefficient(t, c)
    _set_monomial(t, m)
    return t


class Polynomial(_Record):
    """Finite sum of terms, sorted strictly decreasing in the monomial order.

    The zero polynomial has an empty term tuple.  The public constructor
    takes a tuple of Terms already in that order and raises otherwise; use
    ``from_terms`` (or the arithmetic operators) to merge duplicate
    monomials, drop zero coefficients and sort.  The operations that keep
    the order by construction build through the private, unchecked
    ``_polynomial`` (see the module docstring).
    """

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[Term, ...] = ()):
        if not isinstance(terms, tuple) or not all(isinstance(t, Term) for t in terms):
            raise TypeError("Polynomial takes a tuple of Terms; use from_terms to merge pairs")
        if any(s.monomial.key <= t.monomial.key for s, t in zip(terms, terms[1:])):
            raise ValueError(
                "Polynomial terms must strictly decrease in the monomial order; "
                "use from_terms to merge and sort"
            )
        _set(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is not Polynomial:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    @staticmethod
    def from_terms(pairs: Iterable[tuple[int | Fraction, Monomial]]) -> Polynomial:
        acc: dict[Monomial, Fraction] = {}
        for c, m in pairs:
            if not isinstance(c, Fraction):
                c = Fraction(c)
            prev = acc.get(m)
            acc[m] = c if prev is None else prev + c
        ordered = sorted((m for m, c in acc.items() if c), key=_KEY, reverse=True)
        return _polynomial(tuple(_term(acc[m], m) for m in ordered))

    @staticmethod
    def zero() -> Polynomial:
        return _polynomial(())

    @staticmethod
    def constant(c: int | Fraction) -> Polynomial:
        return Polynomial.from_terms([(Fraction(c), ONE)])

    @staticmethod
    def monomial(m: Monomial, c: int | Fraction = 1) -> Polynomial:
        return Polynomial.from_terms([(Fraction(c), m)])

    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self) -> Term:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0]

    def __add__(self, other: Polynomial) -> Polynomial:
        return Polynomial.from_terms(
            [(t.coefficient, t.monomial) for t in self.terms]
            + [(t.coefficient, t.monomial) for t in other.terms]
        )

    def __neg__(self) -> Polynomial:
        return _polynomial(tuple(_term(-t.coefficient, t.monomial) for t in self.terms))

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial | int | Fraction) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero()
            return _polynomial(
                tuple(_term(t.coefficient * c, t.monomial) for t in self.terms)
            )
        return Polynomial.from_terms(
            (s.coefficient * t.coefficient, s.monomial * t.monomial)
            for s in self.terms
            for t in other.terms
        )

    __rmul__ = __mul__

    def mul_term(self, c: int | Fraction, m: Monomial) -> Polynomial:
        """Multiply by the single term c*m (exact, order preserved)."""
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero()
        return _polynomial(
            tuple(_term(t.coefficient * c, t.monomial * m) for t in self.terms)
        )

    def __str__(self) -> str:
        return to_str(self)


def _polynomial(terms: tuple[Term, ...]) -> Polynomial:
    """The unchecked constructor, for Terms that strictly decrease in the
    monomial order by construction."""
    p = object.__new__(Polynomial)
    _set(p, "terms", terms)
    return p


def l1_norm(p: Polynomial) -> Fraction:
    """Sum of the absolute values of all coefficients; 0 iff p = 0."""
    return sum((abs(t.coefficient) for t in p.terms), Fraction(0))


# ---------------------------------------------------------------------------
# text format
#
# variables   x, y, z, w<digits>
# exponent    ^<positive integer>     (variables only)
# coefficient <digits> or (<integer>/<integer>)
# terms       joined with + or -, products with *, whitespace ignored
#
# Digits are ASCII 0-9 only.  Three patterns read every token longer than
# one character: _SPACE the whitespace before each token, _INTEGER an
# optional sign and digits (a coefficient, numerator, denominator or
# exponent), and _W_INDEX the digits right after w, with nothing between.
# ``ideal.parse_generator_id`` reads its indices by _INTEGER as well.
# The recursive descent in ``_Parser`` branches on one character at a time.
# ---------------------------------------------------------------------------

_SPACE = re.compile(r"\s*")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_W_INDEX = re.compile(r"[0-9]+")


def format_term(c: Fraction, m: Monomial, leading: bool = True) -> str:
    # integer arithmetic on numerator and denominator: Fraction's own
    # comparisons and abs() cost more than the rest of the printing
    num, den = c.numerator, c.denominator
    sign = "-" if num < 0 else ""
    if not leading:
        sign = "- " if num < 0 else "+ "
    num = abs(num)
    mag = str(num) if den == 1 else f"({num}/{den})"
    if m.degree == 0:
        body = mag
    elif num == 1 and den == 1:
        body = str(m)
    else:
        body = f"{mag}*{m}"
    return sign + body


def to_str(p: Polynomial) -> str:
    """Canonical rendering, terms in decreasing monomial order.

    ``parse(to_str(p)) == p`` for every polynomial.  Raises ValueError when
    a coefficient has more digits than the interpreter converts to text
    (``sys.get_int_max_str_digits()``, 4300 by default), as the exact
    scalar of ``nf(y*w0*w20000)`` does; the command line lifts that limit
    while it runs.
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

    def peek(self) -> str:
        """The next character after whitespace, or "" at the end."""
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise self.error(f"expected '{ch}'")

    def integer(self) -> int:
        self.peek()
        match = _INTEGER.match(self.text, self.pos)
        if match is None:
            if self.text.startswith(("+", "-"), self.pos):
                self.pos += 1  # the error points past the sign
            raise self.error("expected an integer")
        return self.read(match)

    def read(self, match: re.Match) -> int:
        """The integer that ``match`` scanned; moves past it.  An integer
        with more digits than the interpreter converts
        (``sys.get_int_max_str_digits``) raises ParseError at its start."""
        try:
            value = int(match.group())
        except ValueError:
            raise self.error("integer longer than the int-str digit limit") from None
        self.pos = match.end()
        return value

    def parse_polynomial(self) -> Polynomial:
        """Terms joined by + or -, with an optional sign before the first."""
        terms: list[tuple[Fraction, Monomial]] = []
        sign = self.peek()
        while True:
            if sign in ("+", "-"):
                self.pos += 1
            c, m = self.parse_term()
            terms.append((-c if sign == "-" else c, m))
            sign = self.peek()
            if sign == "":
                return Polynomial.from_terms(terms)
            if sign not in ("+", "-"):
                raise self.error(f"unexpected character {sign!r}")

    def parse_term(self) -> tuple[Fraction, Monomial]:
        coeff, mono = self.parse_factor(first=True)
        while self.take("*"):
            c, m = self.parse_factor(first=False)
            coeff *= c
            mono = mono * m
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
        if "0" <= ch <= "9":
            return Fraction(self.integer()), ONE
        if ch == "":
            raise self.error("empty term" if first else "unexpected end of input")
        if ch not in "xyzw":
            raise self.error(f"unexpected character {ch!r}")
        self.pos += 1
        if ch == "w":
            index = _W_INDEX.match(self.text, self.pos)
            if index is None:
                raise self.error("w must carry an index, e.g. w0")
            w = self.read(index)
        e = 1
        if self.take("^"):
            start = self.pos
            e = self.integer()
            if e <= 0:
                self.pos = start
                raise self.error("exponent must be a positive integer")
        if ch == "w":
            return Fraction(1), Monomial.build(w={w: e})
        return Fraction(1), Monomial.build(**{ch: e})


def parse(text: str) -> Polynomial:
    """Parse the text grammar above into a canonical Polynomial.

    Raises ParseError (with position) on malformed input, and at its start
    on an integer with more digits than the interpreter converts
    (``sys.get_int_max_str_digits()``, 4300 by default).
    """
    parser = _Parser(text)
    if not parser.peek():
        raise ParseError("empty input", 0)
    return parser.parse_polynomial()
