"""Polynomial core: order, arithmetic, l1 norm, text round trip."""

import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachalg.ideal import nf
from banachalg.poly import (
    ONE,
    Monomial,
    ParseError,
    Polynomial,
    Term,
    Variable,
    W,
    compare,
    l1_norm,
    parse,
    to_str,
)

from conftest import random_coefficient, random_monomial, random_polynomial


def m(text):
    (term,) = parse(text).terms
    assert term.coefficient == 1
    return term.monomial


# --- monomial order ---------------------------------------------------------


def test_compare_degree_first():
    assert compare(m("x*y*z"), m("z^2")) == 1
    assert compare(m("w0"), m("x*w5")) == -1


@pytest.mark.parametrize(
    "larger,smaller",
    [
        ("z^2", "x*w0"),        # equal degree, z wins
        ("x*w1", "y*w0"),       # equal degree, x beats y
        ("y*w0*w2", "y*w1^2"),  # w-exponents from the top index down
        ("w1", "w0"),
        ("w0*w2", "w1^2"),
        ("x", "y"),
        ("z", "x"),
        ("w2*w0", "w1*w1"),
    ],
)
def test_compare_tie_breaks(larger, smaller):
    assert compare(m(larger), m(smaller)) == 1
    assert compare(m(smaller), m(larger)) == -1


def test_compare_equal():
    assert compare(m("x*w0^2"), m("w0^2*x")) == 0


mono_strategy = st.builds(
    lambda z, x, y, w: Monomial.build(z=z, x=x, y=y, w=w),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.dictionaries(st.integers(0, 8), st.integers(1, 3), max_size=4),
)


@given(mono_strategy, mono_strategy)
def test_order_total(m1, m2):
    c = compare(m1, m2)
    assert c in (-1, 0, 1)
    assert (c == 0) == (m1 == m2)
    assert compare(m2, m1) == -c


@given(mono_strategy, mono_strategy, mono_strategy)
def test_order_compatible_with_multiplication(m1, m2, n):
    if compare(m1, m2) == 1:
        assert compare(m1 * n, m2 * n) == 1


@given(mono_strategy, mono_strategy)
def test_divides_div_roundtrip(m1, m2):
    product = m1 * m2
    assert m1.divides(product)
    assert product / m1 == m2


# --- ring arithmetic --------------------------------------------------------


def test_add_cancels():
    p = parse("x*w0")
    assert (p + (-p)).is_zero()
    assert p - p == Polynomial.zero()


def test_mul_distributes_example():
    assert parse("x*w0 - z^2") * parse("y") == parse("x*y*w0 - y*z^2")


def test_mul_powers():
    assert parse("z") * parse("z") == parse("z^2")


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
poly_strategy = st.builds(
    lambda pairs: Polynomial.from_terms(pairs),
    st.lists(st.tuples(coeffs, mono_strategy), max_size=6),
)


@given(poly_strategy, poly_strategy, poly_strategy)
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


# --- l1 norm ----------------------------------------------------------------


def test_l1_norm_examples():
    assert l1_norm(parse("x*w0 - z^2")) == 2
    assert l1_norm(Polynomial.zero()) == 0
    assert l1_norm(parse("(1/2)*y*w1^2 - (1/3)*z")) == Fraction(5, 6)


@given(poly_strategy, poly_strategy)
@settings(max_examples=80)
def test_l1_norm_triangle_and_submultiplicative(p, q):
    assert l1_norm(p + q) <= l1_norm(p) + l1_norm(q)
    assert l1_norm(p * q) <= l1_norm(p) * l1_norm(q)
    assert (l1_norm(p) == 0) == p.is_zero()


# --- parse / print ----------------------------------------------------------


def test_parse_f0():
    p = parse("x*w0 - z^2")
    assert [str(t.monomial) for t in p.terms] == ["z^2", "x*w0"]
    assert [t.coefficient for t in p.terms] == [-1, 1]


def test_parse_zero_and_constants():
    assert parse("0").is_zero()
    assert parse("5") == Polynomial.constant(5)
    assert parse("(1/2)*y*w1^2").terms[0].coefficient == Fraction(1, 2)


def test_parse_merges_and_cancels():
    assert parse("x + x") == parse("2*x")
    assert parse("x - x").is_zero()
    assert parse("2*x*3") == parse("6*x")


def test_parse_whitespace_insensitive():
    assert parse(" x * w0   -  z^2 ") == parse("x*w0 - z^2")


def test_print_order_is_decreasing():
    assert to_str(parse("x*w0 - z^2")) == "-z^2 + x*w0"
    assert to_str(parse("w12 + w7")) == "w12 + w7"


def test_print_coefficient_styles():
    assert to_str(parse("-(1/2)*w0 + 2*x - (3/1)*y")) == "2*x - 3*y - (1/2)*w0"
    assert to_str(Polynomial.zero()) == "0"


@pytest.mark.parametrize(
    "bad,pos",
    [
        ("x^0", 2),        # exponents are positive
        ("x^-2", 2),
        ("w", 1),          # w needs an index
        ("x y", 2),        # juxtaposition is not a product
        ("(1/0)", 4),
        ("", 0),
        ("2 +", 3),
        ("q", 0),
    ],
)
def test_parse_errors_carry_position(bad, pos):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.position == pos


def test_roundtrip_seeded():
    rng = random.Random(7)
    for _ in range(300):
        p = random_polynomial(rng)
        assert parse(to_str(p)) == p


@given(poly_strategy)
@settings(max_examples=150)
def test_roundtrip_hypothesis(p):
    assert parse(to_str(p)) == p


@pytest.mark.parametrize(
    "bad,message",
    [
        # superscript two, then Arabic-Indic three
        ("x^\u00b2", "expected an integer (at position 2)"),
        ("w\u0663", "w must carry an index, e.g. w0 (at position 1)"),
        ("\u0663*x", "unexpected character '\u0663' (at position 0)"),
        ("\u00b2", "unexpected character '\u00b2' (at position 0)"),
    ],
)
def test_non_ascii_digits_are_parse_errors(bad, message):
    # digits are ASCII 0-9: other Unicode digits are neither read as
    # integers nor let through to int()
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert str(err.value) == message


@pytest.fixture
def int_str_limit():
    """The interpreter's default int-to-str digit limit, 4300, for one test;
    the caller's limit is restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize(
    "text, pos",
    [
        ("1" * 5000, 0),  # a coefficient
        ("x^" + "1" * 5000, 2),  # an exponent
        ("w" + "1" * 5000, 1),  # a w-index
        ("y + (-" + "1" * 5000 + "/2)", 5),  # a signed numerator
        ("(1/" + "2" * 5000 + ")*x", 3),  # a denominator
    ],
)
def test_parse_rejects_integers_beyond_the_int_str_digit_limit(int_str_limit, text, pos):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == pos
    assert "digit limit" in str(err.value)
    assert sys.get_int_max_str_digits() == int_str_limit


def test_parse_reads_integers_up_to_the_int_str_digit_limit(int_str_limit):
    digits = "1" * int_str_limit
    assert parse(digits) == Polynomial.constant(int(digits))
    assert parse("w" + digits).terms[0].monomial.w == ((int(digits), 1),)


def test_to_str_raises_beyond_the_int_str_digit_limit(int_str_limit):
    # the exact scalar of y*w0*w20000 has more than 4300 digits; the
    # command line lifts the limit, a library caller sees ValueError
    p = nf(parse("y*w0*w20000"))
    with pytest.raises(ValueError, match="int_max_str_digits"):
        to_str(p)
    assert sys.get_int_max_str_digits() == int_str_limit


@given(st.text(max_size=30))
@settings(max_examples=300)
def test_parse_returns_a_polynomial_or_a_positioned_parse_error(text):
    try:
        p = parse(text)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert isinstance(p, Polynomial)


class _LoopParser:
    """The character-loop parser that the regex scanner replaced, kept as
    the reference for ``test_scanner_matches_the_loop_parser``."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            raise self.error(f"expected '{ch}'")

    def integer(self):
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

    def parse_polynomial(self):
        terms = []
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

    def parse_term(self):
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

    def parse_factor(self, first):
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

    def parse_variable(self):
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


def _loop_parse(text):
    parser = _LoopParser(text)
    parser.skip_ws()
    if parser.pos == len(text):
        raise ParseError("empty input", 0)
    p = parser.parse_polynomial()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    return p


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as err:
        return str(err), err.position


_TOKENS = list("xyzw0123456789()/+-*^") + [" ", "\t", "w12", "(1/2)", "x^2"]


def test_scanner_matches_the_loop_parser():
    # on ASCII text the two parsers agree: the same polynomial, or a
    # ParseError with the same message and position
    rng = random.Random(15)
    for _ in range(20000):
        text = "".join(rng.choices(_TOKENS, k=rng.randint(0, 12)))
        assert _outcome(parse, text) == _outcome(_loop_parse, text), text


def test_monomial_degree_and_accessors():
    one = random_monomial(random.Random(0), max_degree=0)
    assert one.degree == 0
    q = m("z*x^2*y^3*w4^5")
    assert q.degree == 1 + 2 + 3 + 5
    assert q.w_indices() == (4,)
    assert q.w_size() == 5
    assert q.w_mass() == 20


# --- Monomial as a value type -----------------------------------------------


def fields(mono):
    return (mono.z_exp, mono.x_exp, mono.y_exp, mono.w)


def checked(z, x, y, w):
    """The expected monomial, built through the validating constructor."""
    return Monomial.build(z=z, x=x, y=y, w=w)


def assert_same_monomial(got, expected):
    assert got == expected
    assert fields(got) == fields(expected)
    assert got.key == expected.key
    assert hash(got) == hash(expected)


def assert_value_contract(a, b):
    assert (a == b) == (fields(a) == fields(b))
    assert (a != b) == (fields(a) != fields(b))
    if a == b:
        assert hash(a) == hash(b)
    twin = Monomial(*fields(a))
    assert twin == a and hash(twin) == hash(a)
    assert a != fields(a)
    assert repr(a) == (
        f"Monomial(z_exp={a.z_exp}, x_exp={a.x_exp}, y_exp={a.y_exp}, w={a.w!r})"
    )
    for clone in (
        pickle.loads(pickle.dumps(a)),
        copy.copy(a),
        copy.deepcopy(a),
    ):
        assert_same_monomial(clone, a)


def assert_arithmetic_matches_checked(a, b):
    wa, wb = dict(a.w), dict(b.w)
    product = {i: wa.get(i, 0) + wb.get(i, 0) for i in wa.keys() | wb.keys()}
    assert_same_monomial(
        a * b, checked(a.z_exp + b.z_exp, a.x_exp + b.x_exp, a.y_exp + b.y_exp, product)
    )
    lcm = {i: max(wa.get(i, 0), wb.get(i, 0)) for i in wa.keys() | wb.keys()}
    assert_same_monomial(
        a.lcm(b),
        checked(
            max(a.z_exp, b.z_exp), max(a.x_exp, b.x_exp), max(a.y_exp, b.y_exp), lcm
        ),
    )
    assert_same_monomial((a * b) / b, a)
    if b.divides(a):
        quotient = {i: e - wb.get(i, 0) for i, e in wa.items()}
        assert_same_monomial(
            a / b,
            checked(a.z_exp - b.z_exp, a.x_exp - b.x_exp, a.y_exp - b.y_exp, quotient),
        )
    else:
        with pytest.raises(ValueError):
            a / b


def test_monomial_value_contract_seeded():
    rng = random.Random(11)
    corpus = [random_monomial(rng) for _ in range(300)]
    corpus += [m("y*w0*w3"), m("y*w3*w0"), m("x*w1^2"), m("1")]
    for a, b in zip(corpus, corpus[1:] + corpus[:1]):
        assert_value_contract(a, b)
        assert_arithmetic_matches_checked(a, b)
    assert m("y*w0*w3") == m("y*w3*w0")
    assert repr(m("z*y*w0*w3^2")) == (
        "Monomial(z_exp=1, x_exp=0, y_exp=1, w=((0, 1), (3, 2)))"
    )


@given(mono_strategy, mono_strategy)
def test_monomial_value_contract_hypothesis(a, b):
    assert_value_contract(a, b)
    assert_arithmetic_matches_checked(a, b)


def test_monomial_is_read_only():
    mono = m("x*w2")
    for name in ("z_exp", "x_exp", "y_exp", "w", "key", "extra"):
        with pytest.raises(AttributeError):
            setattr(mono, name, 1)
        with pytest.raises(AttributeError):
            delattr(mono, name)
    assert fields(mono) == (0, 1, 0, ((2, 1),))


@pytest.mark.parametrize(
    "z, x, y, w",
    [
        (-1, 0, 0, ()),
        (0, -2, 0, ()),
        (0, 0, -1, ((0, 1),)),
        (0, 0, 0, ((1, 0),)),
        (0, 0, 0, ((1, -1),)),
        (0, 0, 0, ((-1, 1),)),
    ],
)
def test_monomial_rejects_invalid_exponents(z, x, y, w):
    with pytest.raises(ValueError):
        Monomial(z, x, y, w)


@pytest.mark.parametrize(
    "w", [((1, 1), (1, 1)), ((3, 1), (0, 1)), ((0, 1), (2, 1), (2, 3))]
)
def test_monomial_rejects_unsorted_or_repeated_w_indices(w):
    # the order key and the merge in from_terms both rely on strictly
    # ascending w-indices: y*w1*w1 would otherwise sit beside y*w1^2 as a
    # second term, and y*w3*w0 would escape is_standard_monomial
    with pytest.raises(ValueError, match="strictly ascend"):
        Monomial(0, 0, 1, w)


# --- Term as a value type ---------------------------------------------------


def assert_term_contract(a, b):
    pair = (a.coefficient, a.monomial)
    assert (a == b) == (pair == (b.coefficient, b.monomial))
    assert (a != b) == (pair != (b.coefficient, b.monomial))
    assert hash(a) == hash(pair)
    twin = Term(*pair)
    assert twin == a and hash(twin) == hash(a)
    assert a != pair
    assert repr(a) == f"Term(coefficient={a.coefficient!r}, monomial={a.monomial!r})"
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert clone == a and hash(clone) == hash(a)
        assert type(clone.coefficient) is Fraction


def test_term_value_contract_seeded():
    rng = random.Random(12)
    corpus = [t for _ in range(120) for t in random_polynomial(rng).terms]
    corpus += parse("x*w0 - z^2").terms + parse("(1/2)*y*w1^2 - 3").terms
    for a, b in zip(corpus, corpus[1:] + corpus[:1]):
        assert_term_contract(a, b)
    assert repr(parse("-(1/2)*y*w3").terms[0]) == (
        "Term(coefficient=Fraction(-1, 2), "
        "monomial=Monomial(z_exp=0, x_exp=0, y_exp=1, w=((3, 1),)))"
    )


@given(poly_strategy)
def test_term_value_contract_hypothesis(p):
    for a, b in zip(p.terms, p.terms[::-1]):
        assert_term_contract(a, b)


def test_term_constructor_coerces_and_rejects_zero():
    mono = m("x*w2")
    t = Term(3, mono)
    assert type(t.coefficient) is Fraction and t.coefficient == 3
    assert t == Term(Fraction(3), mono) and str(t) == "3*x*w2"
    assert Term(coefficient=Fraction(-1, 2), monomial=mono).coefficient == Fraction(-1, 2)
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError, match="zero coefficient"):
            Term(zero, mono)


def test_term_is_read_only():
    t = parse("2*x*w2").terms[0]
    for name in ("coefficient", "monomial", "extra"):
        with pytest.raises(AttributeError):
            setattr(t, name, 1)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert (t.coefficient, t.monomial) == (Fraction(2), m("x*w2"))


def test_polynomial_operations_keep_nonzero_fraction_terms():
    p = parse("2*x*w2 - (1/3)*y + z^2")
    for q in (-p, p * 3, 3 * p, p.mul_term(Fraction(-1, 4), m("w1")), p * p, p + p):
        assert all(
            type(t) is Term and type(t.coefficient) is Fraction and t.coefficient != 0
            for t in q.terms
        )
    assert -p == Polynomial.from_terms((-t.coefficient, t.monomial) for t in p.terms)
    assert p.mul_term(2, m("w1")) == p * parse("2*w1")
    assert (p * 0).is_zero() and p.mul_term(0, m("w1")).is_zero()


# --- the term merge -----------------------------------------------------------


def _merge_onto_zero(pairs):
    """Reference merge: every coefficient is added onto Fraction(0), zeros
    are skipped on the way in and the Terms go through the checked
    constructor."""
    acc = {}
    for c, mono in pairs:
        c = Fraction(c)
        if c != 0:
            acc[mono] = acc.get(mono, Fraction(0)) + c
    ordered = sorted((mono for mono, c in acc.items() if c != 0), key=lambda x: x.key)
    return Polynomial(tuple(Term(acc[mono], mono) for mono in reversed(ordered)))


def test_from_terms_matches_the_merge_onto_zero():
    rng = random.Random(14)
    seen = {"repeat": 0, "cancel": 0, "int": 0, "zero": 0}
    for _ in range(400):
        pool = [random_monomial(rng, max_degree=3, max_windex=4) for _ in range(4)]
        pairs = []
        for _ in range(rng.randint(0, 10)):
            kind = rng.randrange(4)
            c = (random_coefficient(rng), rng.randint(-9, 9), 0, Fraction(0))[kind]
            pairs.append((c, rng.choice(pool)))
        for c, mono in rng.sample(pairs, len(pairs) // 3):
            pairs.append((-c, mono))  # cancels unless mono repeats
        rng.shuffle(pairs)
        monos = [mono for _, mono in pairs]
        seen["repeat"] += len(monos) - len(set(monos))
        seen["int"] += sum(type(c) is int for c, _ in pairs)
        seen["zero"] += sum(c == 0 for c, _ in pairs)
        expected = _merge_onto_zero(pairs)
        seen["cancel"] += len(expected.terms) < len(set(monos))
        got = Polynomial.from_terms(iter(pairs))
        assert got == expected and to_str(got) == to_str(expected)
        assert all(type(t) is Term and type(t.coefficient) is Fraction for t in got.terms)
    assert min(seen.values()) > 100, seen
