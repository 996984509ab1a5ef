"""The binomial ideal, its normal form, its rewriting system and the Gröbner
certificate.

The ideal is generated by two families of homogeneous binomials:

    F0      = x*w0 - z^2
    F_{k+1} = y*w_k - (k+1)*x*w_{k+1}          for k >= 0
    G_{k,l} = (l+1)*y*w_k*w_{l+1} - (k+1)*y*w_l*w_{k+1}   for 0 <= k < l

The G family consists of the S-polynomials S(F_{k+1}, F_{l+1}); together the
two families form a Gröbner basis for the order of ``poly.compare``.  The
leading monomials are z^2, x*w_{k+1} and y*w_k*w_{l+1}, so a monomial is
*standard* iff it is divisible by none of those, and every polynomial has a
unique normal form supported on standard monomials.

``_rewrite_rule(gid)`` is the one place that writes these formulas, as
(lead, lc, tail, tc) with integer coefficients; ``generator`` builds its
Polynomial from that rule, and is the one place that makes them Fractions.
``_divisor_order`` lists the generators whose leading monomial divides a
monomial, largest leading monomial first, in an order written out rather
than sorted; it is the one place that writes this order.
``divisor_generators(m)`` is its tuple for m, and the certificate's chain
step takes its first item.  The monomial order compares total degree, then
z, x and y, then the w-exponents from the highest index down.  So every G
(degree 3) precedes F0 and the F_j (degree 2); G_{lo,hi-1}, led by
y*w_lo*w_hi, ranks by hi, then by lo; z^2 beats every x*w_j; and x*w_j
ranks by j.  ``is_standard_monomial(m)`` is ``not divisor_generators(m)``.

The module keeps two caches, both keyed by generator ids and neither by
monomials: ``F``, ``G`` and ``parse_generator_id`` return one interned
object per id, and ``_rewrite_rule`` holds one rule per id.  Each holds at
most one entry per id ever requested, (N + 1) + N(N - 1)/2 for the ids
with w-indices <= N.  The certificate's rule vectors and chain memo live
for one call.

Because the basis is binomial, every monomial m reduces to a single term
rho(m) * std(m) (Eisenbud & Sturmfels, "Binomial ideals", 1996), and one
invariant names std(m).  Let p = z // 2, size the number of w-factors and
mass the sum of their indices, both counted with multiplicity, and

    I(m) = (z mod 2,  s = x + y + p,  n = size + p,  d = mass + y).

Then std(m) is the standard monomial of the class I(m):

  * if s = 0, no rule applies to m (z < 2, no x, no y) and std(m) = m;
  * if d < s, std(m) = z^(z mod 2) * x^(s-d) * y^d * w0^n;
  * if d >= s, std(m) = z^(z mod 2) * y^s * the window of size n and mass
    d - s: the unique w-monomial of that size and mass supported on some
    {a, a+1};
  * rho(m) = Wfact(std(m)) / Wfact(m), with Wfact = prod(index!^exp).

``_class_monomial`` is the one place that picks a class's monomial;
``nf``, ``quotient._products`` (behind ``quotient.r_mul`` and
``series.residual``) and ``quotient.divide_by_x`` go through it.

Each rewrite step lead -> scalar * tail scales the coefficient by exactly
Wfact(tail) / Wfact(lead), a factor in (0, 1], so the scalars multiply up
to rho and 0 < rho <= 1.  ``nf`` evaluates this closed form one class at a
time, in integer arithmetic.  The terms c_i*m_i of p that share a class
I add up to

    Wfact(std) * sum(c_i / Wfact(m_i)) * std,

so ``nf`` keys each term by I(m) through ``_invariant``, whose one pass
over the w-part also yields Wfact(m), and hands the item (I(m), Wfact(m),
c) to ``_class_sums``, the one class accumulator.  A term with s = 0
passes through as it is, with no factorial, since I does not separate
w0*w3 from w1*w2.  ``_class_sums`` keeps a key's first item while the key
has one; a second item switches it to an integer pair holding the sum of
c/w over a least common denominator, with one gcd per added item.  Then
``_class_monomial`` runs once per key whose sum is nonzero, and each key
builds at most one reduced fraction, none for a lone term with rho = 1.
A class that sums to zero builds no monomial.  Distinct classes have
distinct standard monomials, so the result takes one sort and no merge.
The tests keep the same closed form for one monomial, with rho as two
integers, and the per-term route through it as the oracle for the class
sums.

Products by class sums.  ``quotient._products``, behind ``r_mul``, feeds
the same accumulator one pair of factor terms at a time and never builds
the product.  Let m1 and m2 have z-exponents Z1, Z2 and invariants
(z_i, s_i, n_i, d_i), so z_i = Z_i mod 2, and let the carry be
c = z1 * z2, which is 1 exactly when both z-exponents are odd.

  * I is additive up to the carry.  The exponents of x, y and z, the size
    and the mass all add under multiplication.  (Z1 + Z2) mod 2 = z1 xor
    z2, and (Z1 + Z2) // 2 = Z1 // 2 + Z2 // 2 + c, since the two odd
    remainders make one more pair exactly when c = 1.  So

        I(m1*m2) = (z1 xor z2, s1 + s2 + c, n1 + n2 + c, d1 + d2).

  * Wfact is multiplicative: the w-exponents add, and
    i!^(e1 + e2) = i!^e1 * i!^e2, so Wfact(m1*m2) = Wfact(m1) * Wfact(m2).
  * A product has s = 0 only when both factors have s = 0 and there is no
    carry: s1, s2 and c are all >= 0, and their sum is s(m1*m2).
  * So the class sum of a*b over a class I with s >= 1 is Wfact(std) times
    the sum, over the pairs of terms (c1*m1, c2*m2) with I(m1*m2) = I, of
    (c1 / Wfact(m1)) * (c2 / Wfact(m2)).  ``_products`` reads I and Wfact
    once per factor term, and feeds one item per pair, keyed by the sum above:
    for c_i = num_i / den_i, the integer num1*num2 over the integer
    w = den1*Wfact(m1)*den2*Wfact(m2).
    A pair whose product has s = 0 is keyed by the product monomial, with
    w = den1*den2: those items merge by monomial as ``from_terms`` would,
    and pass through as ``nf`` passes its s = 0 terms.  Only these pairs
    multiply monomials, and they need no Wfact, so an s = 0 factor term
    reads its invariant only when some partner term has s >= 1 or both
    z-exponents are odd.  Summing by monomial and then by class adds the
    same rationals as summing once by class, so ``r_mul(a, b)`` equals
    ``nf(a*b)`` term for term.

A Gröbner basis at every index.  The certificate below checks w-indices up
to its ``max_index``; the proof here covers all of them, and so covers
``nf`` at any index.

  * Every rule preserves I.  F0 turns z^2 into x*w0: p drops by one, x and
    size rise by one, z mod 2 and the mass stay.  F_j turns x*w_j into
    y*w_{j-1}: x falls and y rises by one, and the mass drops by one.
    G_{k,l} keeps x, y, z, size and mass.  In each case s, n and d stay.
  * A class with s >= 1 holds exactly one standard monomial.  A standard
    monomial has z < 2, so p = 0, x + y = s, size = n and mass + y = d.  If
    x >= 1, no w-index is >= 1, so mass = 0, y = d and x = s - d >= 1, which
    needs d < s.  If x = 0, then y = s >= 1, and the w-part has at most two
    indices, at distance 1: it is the window of size n and mass d - s,
    which needs d >= s.  Either way I fixes every exponent, and the
    monomial listed above is standard and has invariant I.  (For s = 0 this
    fails: w0*w3 and w1*w2 share I and are both standard.)
  * Rewriting terminates: each step lowers phi (below), and phi >= 0.  So
    every chain of rewrite steps from m, by whatever rules, ends at a
    standard monomial of class I(m), and for s >= 1 that is std(m).
  * Every leading monomial contains z^2, x or y, so every lcm of two
    leading monomials has s >= 1.  In the u-coordinates below the
    S-polynomial of two generators is K * (U(m1) - U(m2)) with m1 and m2
    one step from the lcm, so I(m1) = I(m2) and both chains end at the same
    monomial: the S-polynomial reduces to 0, at every index, and the
    chains raise no w-index.  By Buchberger's criterion the generators
    with w-indices <= N form a Gröbner basis of the ideal they generate in
    the variables x, y, z, w0 .. wN, for every N.  Any element of the ideal
    is a combination of finitely many generators, so its leading monomial
    is divisible by a leading monomial of F or G: the two families form a
    Gröbner basis, and nf is the normal form for it.

The rewriting engine ``normal_form`` reaches the same result step by step.
Reduction replaces a term c*m by c'*m' with m' < m, |c'| <= |c| and the same
total degree, and never raises a w-index, so it terminates without any
Noetherian assumption.  It records a replayable trace and serves as the
oracle for ``nf`` and for the certificate's chain engine in the tests.

A step only adds to a monomial smaller than the one it rewrites, so the
deterministic strategy and ``reduce_by_single`` make one pass over the
monomials in decreasing order.  With phi(m) = z + x + sum(i^2 * e_i), a step
lowers phi by at least 1 (F0 by 1, F_j by 2j, G_{k,l} by 2(l-k)) and moves
at least one input term one edge along its own path, so no reduction of p
takes more than ``_step_bound(p)``, the sum of phi over its terms.  Beyond
it ``ReductionLimitError`` signals a broken rewrite rule.

``groebner_certificate`` checks the basis by computation, independently of
the proof above and of the closed form that rests on it.  It uses neither
``nf`` nor ``normal_form`` for the S-polynomials of phase (iv), and it
compares no invariants.  Instead it substitutes w_i = u_i / i!.  Each
generator lc*lm + tc*tm, with the integers lc and tc of its rewrite rule,
satisfies the *rescaling lemma*

    lc * Wfact(tm) == -tc * Wfact(lm)

    F_j:      -j * (j-1)! = -j!
    G_{k,l}:  (l+1) * l! * (k+1)! = (k+1) * k! * (l+1)!
    F0:       -1 = -1

which the certificate checks in integers.  So kappa = lc / Wfact(lm) =
-tc / Wfact(tm), and the generator equals kappa * (U(lm) - U(tm)) with
U(m) = Wfact(m)*m the monomial m in the u-coordinates.  The ideal is then
a pure difference binomial ideal (Eisenbud & Sturmfels), and the
S-polynomial of two generators is K * (U(m1) - U(m2)) for two monomials
m1, m2 and one scalar K.  Phase (iv) prints that S-polynomial from the
integer products of the two rules' coefficients.  A rewrite step
m -> (m/lm)*tm changes U(m) by a multiple of a generator, with no scalar to
track, and lowers m.  So the S-polynomial reduces to 0 when the rewrite
chains of m1 and m2 end in the same monomial (Buchberger's criterion); the
certificate follows both chains step by step.

The certificate builds no Polynomial, and no Monomial until a row is read.
Each call packs the monomials of the rules it uses into integers, one
8-bit field per exponent: w_i's at bit 8*i, then y, x and z above w_N,
N = ``max_index``.  An exponent uses the low 7 bits of its field; the top
bit is a guard bit, and H, the guard bits of all fields, is one constant
per call.  Every rule is homogeneous of degree at most 3, so no exponent
on a chain passes 6; a step to one past 127 raises ValueError instead
of wrapping.
Each rule holds its lead and delta = tail - lead, made once per call, so
one integer add does what (m / lead) * tail does for monomials:

  * ``lead`` divides v iff ((v | H) - lead) & H == H, since a field of v
    smaller than lead's borrows its own guard bit and stops there;
  * a step m -> (m / lead) * tail is v + delta;
  * the lcm of two leads is p's lead raised to q's exponents on the few
    fields where q's lead is larger, a shift and an add per field;
  * with z on top and w0 at the bottom, the integer order of two vectors
    is the monomial order at equal degree, and every generator is
    homogeneous.

``_s_pair`` is the one S-pair builder of all four phases: it returns the
two terms left of S(p, q) once the leading terms cancel, (-lc_q*tc_p,
lcm + delta_p, lc_p*tc_q, lcm + delta_q), in integers.  Phases (i)-(iii)
hold polynomials as {vector: coefficient} dicts and divide one by a single
rule as ``reduce_by_single`` divides a Polynomial: largest vector first,
within ``_step_bound``'s bound and raising ``ReductionLimitError`` past it.
Phase (iv) follows the chains: a step takes the first generator of
``_divisor_order`` for the vector's w-support, checks that its lead
divides the vector (ValueError otherwise, as ``/`` raises for monomials)
and adds its delta.  Chain ends are memoised by vector within one call.

The rule table refuses what a chain could not follow, each with a
ValueError naming the generator: a w-index above N, an exponent past 127,
and a rule whose tail does not lower phi below its lead's.  Every valid
rule lowers phi (above), and a chain along one that does not might never
end.  A row keeps what its text is made from in its one text slot, as a
render tuple, and the first read of ``lhs`` or ``rhs`` puts the
formatted pair there in its place: a phase-(iv) row keeps the two rule
entries it was checked with, not its vectors, so plain text output,
which prints only failing rows, formats no passing row.  All four
phases print through one formatter, ``_text``, which turns
{vector: coefficient} terms into ``to_str``'s text by ``_vector_monomial``
and ``to_str``'s own join, without building a Polynomial.

S-polynomials use the fraction-free convention

    S(p, q) = lc(p) * (L/lm(q)) * q  -  lc(q) * (L/lm(p)) * p,

with L the lcm of the leading monomials.  Under this convention
S(F_{k+1}, F_{l+1}) equals G_{k,l} exactly and the division identities
checked by ``groebner_certificate`` are exact scalar-for-scalar.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import factorial, gcd
from operator import attrgetter

from .poly import (
    Monomial,
    Polynomial,
    Term,
    _INTEGER,
    _KEY,
    _Record,
    _join,
    _monomial,
    _polynomial,
    _set,
    _term,
)

_TERM_KEY = attrgetter("monomial.key")  # the monomial order on terms, as a sort key


class ReductionLimitError(RuntimeError):
    """A reduction took more steps than ``_step_bound`` allows for its input,
    which only a rewrite rule that does not lower its monomial can cause."""


@total_ordering
class GeneratorId(_Record):
    """F(j) or G(k, l) with k < l; ordered by (kind, a, b) and hashable.
    The constructor raises TypeError unless both indices are ``int``
    (``bool`` is refused), and ValueError for an id out of range.

    ``F``, ``G`` and ``parse_generator_id`` return one interned object per
    id; the public constructor builds a new, equal one.  The hash of
    (kind, a, b) is computed once, since ids key the rule cache and the
    certificate's lookups.  ``str`` hashes differ between processes, so
    pickling and copying rebuild the id through ``F`` or ``G``."""

    _fields = ("kind", "a", "b")
    __slots__ = (*_fields, "_hash")

    def __init__(self, kind: str, a: int, b: int = -1):
        if kind not in ("F", "G"):
            raise ValueError(f"unknown generator kind {kind!r}")
        if type(a) is not int or type(b) is not int:
            raise TypeError(f"GeneratorId indices must be ints, got a={a!r}, b={b!r}")
        if kind == "F" and b != -1:
            raise ValueError(f"F takes one index, got a second index {b}")
        if kind == "F" and a < 0:
            raise ValueError(f"invalid F index {a}")
        if kind == "G" and not 0 <= a < b:
            raise ValueError(f"G requires 0 <= k < l, got k={a}, l={b}")
        _set(self, "kind", kind)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "_hash", hash((kind, a, b)))

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other):
        if other.__class__ is not GeneratorId:
            return NotImplemented
        return (self.kind, self.a, self.b) < (other.kind, other.a, other.b)

    def __reduce__(self):
        return (F, (self.a,)) if self.kind == "F" else (G, (self.a, self.b))

    def __str__(self) -> str:
        return f"F{self.a}" if self.kind == "F" else f"G{self.a},{self.b}"


# the id cache: one GeneratorId per (kind, *indices) ever requested; typed,
# so that F(2.0) or F(True) reaches the constructor's type check even after F(2)
_generator_id = lru_cache(maxsize=None, typed=True)(GeneratorId)


def F(j: int) -> GeneratorId:
    return _generator_id("F", j)


def G(k: int, l: int) -> GeneratorId:
    return _generator_id("G", k, l)


def parse_generator_id(text: str) -> GeneratorId:
    """F<j> or G<k>,<l>, case-insensitive, each index read by the polynomial
    parser's integer rule (an optional sign, then ASCII digits).  Text of
    another shape raises "cannot parse"; a well-shaped id out of range raises
    the constructor's own error.  An index with more digits than the
    interpreter converts (``sys.get_int_max_str_digits()``, 4300 by default)
    raises a ValueError that names the id and that limit, as ``parse`` does
    for such an integer."""
    text = text.strip()
    kind = text[:1].upper()
    args = [_INTEGER.fullmatch(a.strip()) for a in text[1:].split(",")]
    if (kind, len(args)) in (("F", 1), ("G", 2)) and all(args):
        try:
            indices = [int(a.group()) for a in args]
        except ValueError:
            raise ValueError(
                f"generator id {text!r} has an index longer than the int-str digit limit"
            ) from None
        return _generator_id(kind, *indices)
    raise ValueError(f"cannot parse generator id {text!r} (expected F<j> or G<k>,<l>)")


def generator(gid: GeneratorId) -> Polynomial:
    """The exact binomial for the id, read off its rewrite rule: the one
    place where a rule's integer coefficients become Fractions."""
    lead, lc, tail, tc = _rewrite_rule(gid)
    return _polynomial((_term(Fraction(lc), lead), _term(Fraction(tc), tail)))


@lru_cache(maxsize=None)
def _rewrite_rule(gid: GeneratorId) -> tuple[Monomial, int, Monomial, int]:
    """(leading monomial, leading coeff, tail monomial, tail coeff): the one
    place that writes the F0, F_j and G_{k,l} formulas.

    The coefficients are the generators' integers; ``generator`` is the one
    place that turns them into Fractions.  Every generator is a binomial,
    so a reduction step is one division, one multiplication and one
    coefficient update.
    """
    a, b = gid.a, gid.b
    if gid.kind == "G":  # (b+1)*y*w_a*w_{b+1} - (a+1)*y*w_b*w_{a+1}
        lead = _monomial(0, 0, 1, ((a, 1), (b + 1, 1)))
        tail_w = ((b, 2),) if b == a + 1 else ((a + 1, 1), (b, 1))
        return lead, b + 1, _monomial(0, 0, 1, tail_w), -a - 1
    if a == 0:  # x*w0 - z^2
        return _monomial(2, 0, 0, ()), -1, _monomial(0, 1, 0, ((0, 1),)), 1
    # y*w_{a-1} - a*x*w_a
    return _monomial(0, 1, 0, ((a, 1),)), -a, _monomial(0, 0, 1, ((a - 1, 1),)), 1


def _rewrite_step(
    work: dict[Monomial, Fraction], m: Monomial, gid: GeneratorId
) -> tuple[Monomial, Fraction, Monomial]:
    """Cancel the term of m in ``work`` (in place) by subtracting
    scalar * multiplier * generator(gid); returns (multiplier, scalar,
    target) with target the monomial that receives the coefficient."""
    lm, lc, tail_m, tail_c = _rewrite_rule(gid)
    multiplier = m / lm
    scalar = work.pop(m) / lc
    target = multiplier * tail_m
    c = work.get(target, 0) - scalar * tail_c
    if c:
        work[target] = c
    else:
        work.pop(target, None)
    return multiplier, scalar, target


def s_polynomial(p: Polynomial, q: Polynomial) -> Polynomial:
    """Fraction-free S-polynomial; the leading terms cancel exactly."""
    ltp = p.leading_term()
    ltq = q.leading_term()
    big = ltp.monomial.lcm(ltq.monomial)
    up = big / ltp.monomial
    uq = big / ltq.monomial
    pairs = [(ltp.coefficient * t.coefficient, t.monomial * uq) for t in q.terms]
    pairs += [(-ltq.coefficient * t.coefficient, t.monomial * up) for t in p.terms]
    return Polynomial.from_terms(pairs)


def is_standard_monomial(m: Monomial) -> bool:
    """True iff m is divisible by none of z^2, x*w_{k+1}, y*w_k*w_{l+1} (k<l)."""
    return not divisor_generators(m)


def is_standard(p: Polynomial) -> bool:
    return all(is_standard_monomial(t.monomial) for t in p.terms)


def _wfact(w: tuple[tuple[int, int], ...]) -> int:
    """Wfact of a w-part: the product of index!^exp."""
    out = 1
    for i, e in w:
        out *= factorial(i) ** e
    return out


def _invariant(m: Monomial) -> tuple[tuple[int, int, int, int], int]:
    """(I(m), Wfact(m)) in one pass over the w-part; see the module
    docstring for I.  ValueError for a w-index past ``math.factorial``'s
    range (above the C ``long`` maximum)."""
    size = mass = 0
    wfact = 1
    for i, e in m.w:
        size += e
        mass += i * e
        if i > 1:
            try:
                wfact *= factorial(i) ** e
            except OverflowError:
                raise ValueError(f"w-index {i} is too large for factorial") from None
    pairs, z = divmod(m.z_exp, 2)
    return (z, m.x_exp + m.y_exp + pairs, size + pairs, mass + m.y_exp), wfact


def _class_monomial(z: int, s: int, n: int, d: int) -> tuple[Monomial | None, int]:
    """(std, Wfact(std)) for the class I = (z, s, n, d), or (None, 0) when no
    monomial has that invariant.  For s >= 1, std is the class's one
    standard monomial; for s = 0, the window-shaped one of several."""
    if s < 0 or (d > s and not n):
        return None, 0
    if d < s or not n:  # x^(s-d) * y^d * w0^n, which is y^s when n = 0
        return _monomial(z, s - d, d, ((0, n),) if n else ()), 1
    # the window: (d - s) // n copies of w_a, the remainder shifted up to w_{a+1}
    a, hi = divmod(d - s, n)
    w = ((a, n - hi), (a + 1, hi)) if hi else ((a, n),)
    return _monomial(z, 0, s, w), factorial(a) ** n * (a + 1) ** hi


def divisor_generators(m: Monomial) -> tuple[GeneratorId, ...]:
    """Generators whose leading monomial divides m, largest leading monomial
    first: ``_divisor_order`` over m's w-support."""
    return tuple(_divisor_order(m.z_exp, m.x_exp, m.y_exp, [i for i, _ in reversed(m.w)]))


def _divisor_order(z: int, x: int, y: int, idx: list[int]) -> Iterator[GeneratorId]:
    """The generators whose leading monomial divides z^z * x^x * y^y times a
    w-part with support ``idx`` (descending), largest leading monomial first:
    the one place that writes this order (see the module docstring).  Only
    finitely many can apply, and they are read off the w-support, already in
    order; a caller that needs only the first stops there."""
    if y:
        for n, hi in enumerate(idx):
            for lo in idx[n + 1 :]:
                if hi - lo >= 2:
                    yield G(lo, hi - 1)
    if z >= 2:
        yield F(0)
    if x:
        for j in idx:
            if j:
                yield F(j)


class ReductionStep(_Record):
    """One division step: subtract scalar * multiplier * generator(gen)."""

    __slots__ = _fields = ("generator", "multiplier", "scalar")

    def __init__(self, generator: GeneratorId, multiplier: Monomial, scalar: Fraction):
        _set(self, "generator", generator)
        _set(self, "multiplier", multiplier)
        _set(self, "scalar", scalar)


class ReductionTrace(_Record):
    __slots__ = _fields = ("steps", "result")

    def __init__(self, steps: tuple[ReductionStep, ...], result: Polynomial):
        _set(self, "steps", steps)
        _set(self, "result", result)

    def replay(self, start: Polynomial) -> Polynomial:
        """Apply the recorded steps to ``start``; equals ``result`` when
        ``start`` is the polynomial the trace was computed from."""
        p = start
        for s in self.steps:
            p = p - generator(s.generator).mul_term(s.scalar, s.multiplier)
        return p


def _step_bound(p: Polynomial) -> int:
    """Sum over the terms of p of z + x + sum(i^2 * e_i); see the module
    docstring for why no reduction of p takes more steps."""
    return sum(
        m.z_exp + m.x_exp + sum(i * i * e for i, e in m.w)
        for m in (t.monomial for t in p.terms)
    )


def _limit_error(bound: int) -> ReductionLimitError:
    return ReductionLimitError(
        f"no normal form within {bound} reduction steps, the bound computed "
        "from the input; a rewrite rule does not lower its monomial"
    )


def _largest_first(
    work: dict[Monomial, Fraction],
    divisors: Callable[[Monomial], tuple[GeneratorId, ...]],
    bound: int,
) -> Iterator[tuple[GeneratorId, Monomial, Fraction]]:
    """Rewrite ``work`` in place, always at its largest monomial that has
    ``divisors``, by the first of them; yields (generator, multiplier,
    scalar) per step.  ``pending`` is ascending; targets are smaller than
    the monomial just popped, so they are queued in place, once each."""
    pending = sorted(work, key=_KEY)
    steps = 0
    while pending:
        m = pending.pop()
        gens = divisors(m) if m in work else ()  # not in work: cancelled
        if not gens:
            continue
        gid = gens[0]
        if steps == bound:
            raise _limit_error(bound)
        steps += 1
        multiplier, scalar, target = _rewrite_step(work, m, gid)
        i = bisect_left(pending, target.key, key=_KEY)
        if i == len(pending) or pending[i] != target:
            pending.insert(i, target)
        yield gid, multiplier, scalar


def normal_form(
    p: Polynomial,
    *,
    strategy: str = "largest",
    rng=None,
) -> tuple[Polynomial, ReductionTrace]:
    """Reduce p to its unique standard-monomial representative modulo the
    ideal, returning the result together with a replayable trace.

    strategy 'largest' (default, deterministic): reduce the largest reducible
    monomial by the applicable generator with the largest leading monomial.
    strategy 'random': reduce a uniformly chosen reducible term by a uniformly
    chosen applicable generator, drawn from ``rng``, a ``random.Random``
    (a fresh one when None; only this strategy imports ``random``); the
    result is identical by confluence, which the test suite checks rather
    than assumes.
    Both raise ReductionLimitError past ``_step_bound(p)`` steps, which only
    a broken rewrite rule can reach.
    """
    if strategy not in ("largest", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    bound = _step_bound(p)
    # dict-backed worklist; each step touches two entries, so the canonical
    # Polynomial is rebuilt only once at the end
    work: dict[Monomial, Fraction] = {t.monomial: t.coefficient for t in p.terms}
    if strategy == "largest":
        steps = [ReductionStep(*s) for s in _largest_first(work, divisor_generators, bound)]
    else:
        import random

        rng = rng or random.Random()
        steps = []
        while reducible := [(m, gens) for m in work if (gens := divisor_generators(m))]:
            if len(steps) == bound:
                raise _limit_error(bound)
            m, gens = reducible[rng.randrange(len(reducible))]
            gid = gens[rng.randrange(len(gens))]
            multiplier, scalar, _ = _rewrite_step(work, m, gid)
            steps.append(ReductionStep(gid, multiplier, scalar))
    result = Polynomial.from_terms((c, m) for m, c in work.items())
    return result, ReductionTrace(tuple(steps), result)


def nf(p: Polynomial) -> Polynomial:
    """The normal form of p by the closed form, one class at a time; equals
    ``normal_form(p)[0]``.  See the module docstring for the arithmetic."""
    out: list[Term] = []
    items = []
    for t in p.terms:
        m = t.monomial
        if m.x_exp or m.y_exp or m.z_exp > 1:
            inv, wfact = _invariant(m)
            items.append((inv, wfact, t.coefficient))
        else:
            out.append(t)  # s = 0: no rule applies, and m is its own class
    return _class_sums(items, out)


def _class_sums(items: Iterable[tuple], out: list[Term]) -> Polynomial:
    """The class accumulator behind ``nf`` and ``quotient._products``: the
    terms of ``out`` plus sum(Wfact(std) * c / w) * std over the items
    (key, w, c), as a Polynomial.  c is a nonzero Fraction or int and w a positive int.
    An invariant key I stands for its class monomial std; a monomial key,
    which only a product with s = 0 gives, stands for itself, with
    Wfact(std) taken as 1.  The monomials of ``out`` have s = 0 and are not
    keys.  See the module docstring."""
    # key -> its one item (key, w, c); from a second item on, the integers
    # [key, den, num] with num/den the sum of c/w over its items
    classes: dict = {}
    for item in items:
        acc = classes.setdefault(item[0], item)
        if acc is item:
            continue
        key, w, c = item
        if acc.__class__ is tuple:
            acc = classes[key] = [key, acc[2].denominator * acc[1], acc[2].numerator]
        _, den, num = acc
        den_t = c.denominator * w
        g = gcd(den, den_t)
        acc[1] = den // g * den_t
        acc[2] = num * (den_t // g) + c.numerator * (den // g)
    for key, w, c in classes.values():
        if c.__class__ is int and not c:
            continue  # the class sums to zero (a lone item is nonzero)
        std, wfact_std = _class_monomial(*key) if key.__class__ is tuple else (key, 1)
        if wfact_std != w or c.__class__ is not Fraction:  # rho != 1, or an int sum
            c = Fraction(c.numerator * wfact_std, c.denominator * w)
        out.append(_term(c, std))
    # distinct classes have distinct monomials, so the keys are distinct
    out.sort(key=_TERM_KEY, reverse=True)
    return _polynomial(tuple(out))


def reduce_by_single(p: Polynomial, gid: GeneratorId) -> tuple[Polynomial, Polynomial]:
    """Divide p by the one generator gid: returns (quotient, remainder) with
    p = quotient * generator(gid) + remainder and no remainder monomial
    divisible by the generator's leading monomial.
    """
    lm = _rewrite_rule(gid)[0]
    work: dict[Monomial, Fraction] = {t.monomial: t.coefficient for t in p.terms}
    steps = _largest_first(work, lambda m: (gid,) if lm.divides(m) else (), _step_bound(p))
    quotient = Polynomial.from_terms((scalar, mult) for _, mult, scalar in steps)
    return quotient, Polynomial.from_terms((c, m) for m, c in work.items())


# ---------------------------------------------------------------------------
# Gröbner certificate
# ---------------------------------------------------------------------------


class IdentityCheck(_Record):
    """One identity of the certificate and whether it holds.

    The public constructor takes ``lhs`` and ``rhs`` as text, and raises
    TypeError unless both are ``str``.  The one slot ``_texts`` holds either
    that pair or, for a row that ``_check`` built, the render tuple
    (function, *args): the first read of ``lhs`` or ``rhs`` replaces the
    tuple with the pair function(*args) returns, so a row that is never
    printed formats nothing.  ``==``, the hash, ``repr`` and pickling read
    the text, and so agree with a row built from it."""

    _fields = ("identity", "indices", "passed", "lhs", "rhs")
    __slots__ = ("identity", "indices", "passed", "_texts")

    def __init__(self, identity: str, indices: tuple[int, ...], passed: bool, lhs: str, rhs: str):
        # the slot tells text from a render tuple by the type of its first item
        if type(lhs) is not str or type(rhs) is not str:
            raise TypeError(f"IdentityCheck takes lhs and rhs as str, got {lhs!r} and {rhs!r}")
        _set_identity(self, identity)
        _set_indices(self, indices)
        _set_passed(self, passed)
        _set_texts(self, (lhs, rhs))

    @property
    def lhs(self) -> str:
        return self._read(0)

    @property
    def rhs(self) -> str:
        return self._read(1)

    def _read(self, side: int) -> str:
        texts = self._texts
        if texts[0].__class__ is not str:
            render, *args = texts
            texts = render(*args)
            _set_texts(self, texts)
        return texts[side]

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "indices": list(self.indices),
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


_set_identity, _set_indices, _set_passed, _set_texts = (
    IdentityCheck.__dict__[name].__set__ for name in IdentityCheck.__slots__
)


def _check(identity: str, indices: tuple[int, ...], passed: bool, render: tuple) -> IdentityCheck:
    """The certificate's row builder: ``render`` is (function, *args), and
    function(*args) returns (lhs, rhs) when the row is first read."""
    row = object.__new__(IdentityCheck)
    _set_identity(row, identity)
    _set_indices(row, indices)
    _set_passed(row, passed)
    _set_texts(row, render)
    return row


class CertificateReport(_Record):
    __slots__ = _fields = ("max_index", "checks")

    def __init__(self, max_index: int, checks: tuple[IdentityCheck, ...]):
        _set(self, "max_index", max_index)
        _set(self, "checks", checks)

    @property
    def passed(self) -> int:
        return sum(c.passed for c in self.checks)

    @property
    def failed(self) -> int:
        return len(self.checks) - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "max_index": self.max_index,
            "identities": [c.to_json() for c in self.checks],
            "summary": {
                "checked": len(self.checks),
                "passed": self.passed,
                "failed": self.failed,
                "all_passed": self.all_passed,
            },
        }

    def to_text(self, verbose: bool = False) -> str:
        lines = []
        for c in self.checks:
            if verbose or not c.passed:
                status = "ok  " if c.passed else "FAIL"
                lines.append(f"{status} {c.identity} {list(c.indices)}: {c.lhs} = {c.rhs}")
        lines.append(
            f"groebner certificate (w-indices <= {self.max_index}): "
            f"{self.passed}/{len(self.checks)} identities hold"
        )
        return "\n".join(lines)


def _noncoprime_pairs(max_index: int) -> Iterator[tuple[GeneratorId, GeneratorId]]:
    """All unordered generator pairs with non-coprime leading monomials,
    every w-index bounded by max_index.  F0's leading monomial z^2 is coprime
    to every other leading monomial, so F0 never appears.
    """
    fs = [F(j) for j in range(1, max_index + 1)]
    gs = [G(k, l) for k in range(0, max_index - 1) for l in range(k + 1, max_index)]
    for i, f1 in enumerate(fs):
        for f2 in fs[i + 1 :]:
            yield f1, f2  # share x
    for g in gs:
        k, l = g.a, g.b
        yield g, F(l + 1)  # share w_{l+1}
        if k >= 1:
            yield g, F(k)  # share w_k
    for i, g1 in enumerate(gs):
        for g2 in gs[i + 1 :]:
            yield g1, g2  # share y


def groebner_certificate(max_index: int) -> CertificateReport:
    """Buchberger-style certificate with every w-index bounded by max_index.

    Checks, exactly in rational arithmetic:
      (i)   S(F_{k+1}, F_{l+1}) == G_{k,l}
      (ii)  S(G_{k,l}, F_{l+1}) == (l+1)*y*w_l * F_{k+1}, i.e. dividing by
            F_{k+1} alone leaves remainder 0 with quotient (l+1)*y*w_l
      (iii) the remainder of S(G_{k,l}, F_k) under division by F_{k+1}
            equals y * G_{k-1,l}            (k >= 1)
      (iv)  the S-polynomial of every pair with non-coprime leading
            monomials reduces to 0: both generators satisfy the rescaling
            lemma and the rewrite chains of its two monomials end in the
            same monomial (see the module docstring)
    Failures are reported in the result, never raised.  A rule table that
    the certificate cannot follow raises ValueError: a rule with a w-index
    above max_index, a rule that does not lower phi, a chain step whose
    rule's leading monomial does not divide the monomial, or an exponent
    past 127, the largest a packed field holds.

    Phase (iv) checks the lemma for the two generators of each pair, not
    for the generators a chain steps along.  Chains never raise a w-index
    and never produce z, so each generator they use is itself one of a
    checked pair, and a
    generator that breaks the lemma fails every pair it belongs to.  The
    report is all-passing only if every generator involved satisfies it.
    """
    if max_index < 2:
        raise ValueError("max_index must be at least 2")
    # the rule vectors (lemma included) and the chain memo live for this
    # call only, so every call certifies from scratch
    rules = _RuleVectors(max_index)
    guards = rules.guards
    y = 1 << rules.w_bits  # the vector of the monomial y
    checks: list[IdentityCheck] = []

    for k in range(0, max_index - 1):
        for l in range(k + 1, max_index):
            s = _s_terms(rules[F(k + 1)], rules[F(l + 1)], guards)
            g = _terms(rules[G(k, l)], 0)
            checks.append(
                _check("S(F_{k+1},F_{l+1}) = G_{k,l}", (k, l), s == g, (_texts, s, g, max_index))
            )

    for k in range(0, max_index - 1):
        for l in range(k + 1, max_index):
            remainder = _s_terms(rules[G(k, l)], rules[F(l + 1)], guards)
            quotient = _divide(remainder, rules[F(k + 1)], rules)
            expected_q = {y + (1 << 8 * l): l + 1}  # (l+1)*y*w_l
            ok = not remainder and quotient == expected_q
            checks.append(
                _check(
                    "S(G_{k,l},F_{l+1}) = (l+1)*y*w_l * F_{k+1}",
                    (k, l),
                    ok,
                    (_division_texts, quotient, remainder, expected_q, max_index),
                )
            )

    for k in range(1, max_index - 1):
        for l in range(k + 1, max_index):
            remainder = _s_terms(rules[G(k, l)], rules[F(k)], guards)
            _divide(remainder, rules[F(k + 1)], rules)
            expected = _terms(rules[G(k - 1, l)], y)
            checks.append(
                _check(
                    "rem(S(G_{k,l},F_k), F_{k+1}) = y*G_{k-1,l}",
                    (k, l),
                    remainder == expected,
                    (_texts, remainder, expected, max_index),
                )
            )

    ends = _ChainEnds(rules)
    for p_id, q_id in _noncoprime_pairs(max_index):
        p, q = rules[p_id], rules[q_id]
        _, m1, _, m2 = _s_pair(p, q, guards)
        passed = (
            p[5]  # the rescaling lemma
            and q[5]
            and (m1 == m2 or ends[m1] == ends[m2])
        )
        checks.append(
            _check("nf(S(p,q)) = 0", p[6] + q[6], passed, (_s_pair_texts, p, q, rules))
        )

    return CertificateReport(max_index, tuple(checks))


class _RuleVectors(dict):
    """gid -> (lead, delta, support, lc, tc, lemma, indices, gid) for one
    certificate call, built on first use from ``_rewrite_rule(gid)``.
    ``lead`` is the leading monomial and ``delta`` the tail minus the lead,
    as packed vectors (see ``_vector``) with N = max_index; ``support``
    holds the (shift, exponent) pairs of the lead's nonzero fields; lc and
    tc are the rule's integers; ``lemma`` says whether the rule satisfies
    the rescaling lemma lc*Wfact(tm) == -tc*Wfact(lm), in integers;
    ``indices`` are the indices of gid, as a phase-(iv) row lists them.

    A rule whose tail does not lower phi = z + x + sum(i^2 * e_i) below its
    lead's raises ValueError naming its generator, after ``_vector``'s
    checks: every valid rule lowers it (see the module docstring), and a
    chain along one that does not might never end.

    ``guards`` holds the guard bit of every field, and ``w_bits`` is the
    width of the w-part."""

    __slots__ = ("max_index", "guards", "w_bits")

    def __init__(self, max_index: int):
        super().__init__()
        self.max_index = max_index
        self.guards = int.from_bytes(b"\x80" * (max_index + 4), "little")
        self.w_bits = 8 * (max_index + 1)

    def __missing__(self, gid: GeneratorId) -> tuple:
        n = self.max_index
        lm, lc, tm, tc = _rewrite_rule(gid)
        lead = _vector(lm, gid, n)
        tail = _vector(tm, gid, n)
        phi_lead, phi_tail = _phi(lead, n), _phi(tail, n)
        if phi_tail >= phi_lead:
            raise ValueError(
                f"the rule of {gid} does not lower its monomial: phi = z + x + "
                f"sum(i^2 * e_i) goes from {phi_lead} to {phi_tail}"
            )
        fields = lead.to_bytes(n + 4, "little")
        support = tuple([(8 * i, e) for i, e in enumerate(fields) if e])
        lemma = lc * _wfact(tm.w) == -tc * _wfact(lm.w)
        indices = (gid.a,) if gid.kind == "F" else (gid.a, gid.b)
        entry = self[gid] = (lead, tail - lead, support, lc, tc, lemma, indices, gid)
        return entry


def _vector(m: Monomial, gid: GeneratorId, max_index: int) -> int:
    """m, a monomial of the rule of gid, packed into one integer: one 8-bit
    field per exponent, w_i's at bit 8*i and y, x and z in the three fields
    above w_N, N = max_index.  An exponent may use the low 7 bits; the top
    bit of each field is its guard bit.  ValueError for a w-index above N or
    an exponent above 127."""
    fields = [0] * (max_index + 1) + [m.y_exp, m.x_exp, m.z_exp]
    for i, e in m.w:
        if i > max_index:
            raise ValueError(
                f"the rule of {gid} has the w-index {i}, above max_index {max_index}"
            )
        fields[i] = e
    if max(fields) > 127:
        raise ValueError(f"the rule of {gid} has the exponent {max(fields)}, above 127")
    return int.from_bytes(bytes(fields), "little")


def _vector_monomial(v: int, max_index: int) -> Monomial:
    f = v.to_bytes(max_index + 4, "little")
    return _monomial(f[-1], f[-2], f[-3], tuple([(i, e) for i, e in enumerate(f[:-3]) if e]))


def _phi(v: int, max_index: int) -> int:
    """phi = z + x + sum(i^2 * e_i) of a packed vector."""
    f = v.to_bytes(max_index + 4, "little")
    return f[-1] + f[-2] + sum([i * i * e for i, e in enumerate(f[:-3]) if e])


def _divides(lead: int, v: int, guards: int) -> bool:
    """Whether the packed monomial ``lead`` divides ``v``, fields at most 127:
    with every guard bit set in v, a field of v below lead's borrows its
    guard bit and no other."""
    return ((v | guards) - lead) & guards == guards


def _overflow(v: int, gid: GeneratorId, max_index: int) -> ValueError:
    return ValueError(
        f"the step by {gid} from {_vector_monomial(v, max_index)} "
        "takes an exponent past 127"
    )


def _s_pair(p: tuple, q: tuple, guards: int) -> tuple:
    """(c1, m1, c2, m2) for the ``_RuleVectors`` entries p and q of two
    generators: the two terms left of their S-polynomial once the leading
    terms cancel, with integers c1, c2 and packed vectors m1, m2.  The lcm
    of the leading monomials differs from p's lead only on the support of
    q's, where it takes the larger exponent, and m_i = lcm + delta_i.
    ValueError for an exponent past 127."""
    big, delta_p, _, lc_p, tc_p, _, _, p_id = p
    _, delta_q, support_q, lc_q, tc_q, _, _, q_id = q
    for shift, e in support_q:
        e -= big >> shift & 127
        if e > 0:
            big += e << shift
    m1 = big + delta_p
    m2 = big + delta_q
    if (m1 | m2) & guards:
        raise ValueError(f"the S-polynomial of {p_id} and {q_id} has an exponent past 127")
    return -lc_q * tc_p, m1, lc_p * tc_q, m2


def _s_terms(p: tuple, q: tuple, guards: int) -> dict[int, int]:
    """The S-polynomial of the entries p and q as {vector: coefficient}, as
    ``s_polynomial(generator(p_id), generator(q_id))`` has it: the two terms
    of ``_s_pair``, merged when their vectors agree, without zeros."""
    c1, m1, c2, m2 = _s_pair(p, q, guards)
    out = {m1: c1} if c1 else {}
    c2 += out.get(m2, 0)
    if c2:
        out[m2] = c2
    else:
        out.pop(m2, None)
    return out


def _terms(entry: tuple, times: int) -> dict[int, int]:
    """{vector: coefficient} of the entry's generator times the monomial of
    the vector ``times``."""
    lead, delta, _, lc, tc, _, _, _ = entry
    return {lead + times: lc, lead + delta + times: tc}


def _divide(work: dict, entry: tuple, rules: _RuleVectors) -> dict:
    """Divide the {vector: coefficient} ``work`` by the entry's generator
    alone, in place, as ``reduce_by_single`` divides a Polynomial: always at
    the largest vector that the lead divides, within ``_step_bound``'s
    bound.  ``work`` is left as the remainder; returns the quotient.
    Integer order is the monomial order on vectors of one degree, which the
    generators' homogeneity keeps."""
    lead, delta, _, lc, tc, _, _, gid = entry
    guards = rules.guards
    bound = sum([_phi(v, rules.max_index) for v in work])
    quotient: dict = {}
    pending = sorted(work)
    steps = 0
    while pending:
        v = pending.pop()
        if v not in work or not _divides(lead, v, guards):
            continue
        if steps == bound:
            raise _limit_error(bound)
        steps += 1
        c = work.pop(v)
        scalar = c // lc if c.__class__ is int and not c % lc else Fraction(c, lc)
        quotient[v - lead] = scalar  # v is popped once, and c is not 0
        target = v + delta
        if target & guards:
            raise _overflow(v, gid, rules.max_index)
        c = work.get(target, 0) - scalar * tc
        if c:
            work[target] = c
        else:
            work.pop(target, None)
        i = bisect_left(pending, target)
        if i == len(pending) or pending[i] != target:
            pending.insert(i, target)
    return quotient


class _ChainEnds(dict):
    """v -> the last vector of the chain v -> v + delta along the first
    generator of ``_divisor_order``, for one certificate call: a missing v
    runs its chain, and every vector on the way is memoised.  ValueError
    when that generator's leading monomial does not divide the vector, or
    when a step takes an exponent past 127."""

    __slots__ = ("rules",)

    def __init__(self, rules: _RuleVectors):
        super().__init__()
        self.rules = rules

    def __missing__(self, v: int) -> int:
        rules = self.rules
        guards, w_bits = rules.guards, rules.w_bits
        w_part = (1 << w_bits) - 1
        path = []
        while v not in self:
            top = v >> w_bits  # z, x and y
            idx = []  # the w-support, descending: the top field, then those below it
            w = v & w_part
            while w:
                i = (w.bit_length() - 1) >> 3
                idx.append(i)
                w &= (1 << 8 * i) - 1
            gid = next(_divisor_order(top >> 16, top >> 8 & 127, top & 127, idx), None)
            if gid is None:
                self[v] = v
                break
            lead, delta = rules[gid][:2]
            if not _divides(lead, v, guards):
                n = rules.max_index
                raise ValueError(
                    f"{_vector_monomial(lead, n)} does not divide {_vector_monomial(v, n)}"
                )
            path.append(v)
            v += delta
            if v & guards:
                raise _overflow(path[-1], gid, rules.max_index)
        end = self[v]
        for seen in path:
            self[seen] = end
        return end


def _text(terms: dict, max_index: int) -> str:
    """``to_str`` of the {vector: coefficient} ``terms``, without building a
    Polynomial: the nonzero terms in the monomial order, through ``to_str``'s
    join."""
    pairs = [(c, _vector_monomial(v, max_index)) for v, c in terms.items() if c]
    pairs.sort(key=lambda pair: pair[1].key, reverse=True)
    return _join(pairs)


def _texts(lhs: dict, rhs: dict, max_index: int) -> tuple[str, str]:
    return _text(lhs, max_index), _text(rhs, max_index)


def _division_texts(quotient: dict, remainder: dict, expected_q: dict, max_index: int) -> tuple[str, str]:
    return (
        f"quotient {_text(quotient, max_index)}, remainder {_text(remainder, max_index)}",
        f"quotient {_text(expected_q, max_index)}, remainder 0",
    )


def _s_pair_texts(p: tuple, q: tuple, rules: _RuleVectors) -> tuple[str, str]:
    """A phase-(iv) row's text, from the ``_RuleVectors`` entries the row
    was checked with: its S-polynomial, and 0."""
    lhs = _text(_s_terms(p, q, rules.guards), rules.max_index)
    return f"S({p[7]},{q[7]}) = {lhs}", "0"
