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
``divisor_generators(m)`` lists the generators whose leading monomial
divides m, largest leading monomial first, in an order written out rather
than sorted.  The monomial order compares total degree, then z, x and y,
then the w-exponents from the highest index down.  So every G (degree 3)
precedes F0 and the F_j (degree 2); G_{lo,hi-1}, led by y*w_lo*w_hi, ranks
by hi, then by lo; z^2 beats every x*w_j; and x*w_j ranks by j.
``is_standard_monomial(m)`` is ``not divisor_generators(m)``.

The module keeps two caches, both keyed by generator ids and neither by
monomials: ``F``, ``G`` and ``parse_generator_id`` return one interned
object per id, and ``_rewrite_rule`` holds one rule per id.  Each holds at
most one entry per id ever requested, (N + 1) + N(N - 1)/2 for the ids
with w-indices <= N.  The certificate's chain memo lives for one call.

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
Chain ends are memoised within one call.

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
    _monomial,
    _polynomial,
    _rewrite_monomial,
    _set,
    _term,
    format_term,
    to_str,
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
    first.  Only finitely many can apply; they are read off the w-support,
    already in order (see the module docstring).
    """
    idx = [i for i, _ in reversed(m.w)]  # descending
    out = []
    if m.y_exp:
        out = [G(lo, hi - 1) for n, hi in enumerate(idx) for lo in idx[n + 1 :] if hi - lo >= 2]
    if m.z_exp >= 2:
        out.append(F(0))
    if m.x_exp:
        out += [F(j) for j in idx if j]
    return tuple(out)


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
    __slots__ = _fields = ("identity", "indices", "passed", "lhs", "rhs")

    def __init__(self, identity: str, indices: tuple[int, ...], passed: bool, lhs: str, rhs: str):
        _set(self, "identity", identity)
        _set(self, "indices", indices)
        _set(self, "passed", passed)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "indices": list(self.indices),
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


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
    Failures are reported in the result, never raised.

    Phase (iv) checks the lemma for the two generators of each pair, not
    for the generators a chain steps along.  Chains never raise a w-index
    and never produce z, so each generator they use is itself one of a
    checked pair, and a
    generator that breaks the lemma fails every pair it belongs to.  The
    report is all-passing only if every generator involved satisfies it.
    """
    if max_index < 2:
        raise ValueError("max_index must be at least 2")
    checks: list[IdentityCheck] = []

    for k in range(0, max_index - 1):
        for l in range(k + 1, max_index):
            s = s_polynomial(generator(F(k + 1)), generator(F(l + 1)))
            g = generator(G(k, l))
            checks.append(
                IdentityCheck(
                    "S(F_{k+1},F_{l+1}) = G_{k,l}",
                    (k, l),
                    s == g,
                    to_str(s),
                    to_str(g),
                )
            )

    for k in range(0, max_index - 1):
        for l in range(k + 1, max_index):
            s = s_polynomial(generator(G(k, l)), generator(F(l + 1)))
            quotient, remainder = reduce_by_single(s, F(k + 1))
            expected_q = Polynomial.monomial(
                Monomial.build(y=1, w={l: 1}), l + 1
            )
            ok = remainder.is_zero() and quotient == expected_q
            checks.append(
                IdentityCheck(
                    "S(G_{k,l},F_{l+1}) = (l+1)*y*w_l * F_{k+1}",
                    (k, l),
                    ok,
                    f"quotient {to_str(quotient)}, remainder {to_str(remainder)}",
                    f"quotient {to_str(expected_q)}, remainder 0",
                )
            )

    for k in range(1, max_index - 1):
        for l in range(k + 1, max_index):
            s = s_polynomial(generator(G(k, l)), generator(F(k)))
            _, remainder = reduce_by_single(s, F(k + 1))
            expected = generator(G(k - 1, l)).mul_term(1, Monomial.build(y=1))
            checks.append(
                IdentityCheck(
                    "rem(S(G_{k,l},F_k), F_{k+1}) = y*G_{k-1,l}",
                    (k, l),
                    remainder == expected,
                    to_str(remainder),
                    to_str(expected),
                )
            )

    # phase (iv): memo and lemma cache live for this call only, so every
    # call certifies from scratch
    ends: dict[Monomial, Monomial] = {}
    lemma: dict[GeneratorId, bool] = {}
    for p_id, q_id in _noncoprime_pairs(max_index):
        lm_p, lc_p, tm_p, tc_p = _rewrite_rule(p_id)
        lm_q, lc_q, tm_q, tc_q = _rewrite_rule(q_id)
        big = lm_p.lcm(lm_q)
        # the two terms left of s_polynomial once the leading terms cancel
        m1 = _rewrite_monomial(big, lm_p, tm_p)
        m2 = _rewrite_monomial(big, lm_q, tm_q)
        lhs = _binomial_str(-lc_q * tc_p, m1, lc_p * tc_q, m2)
        passed = (
            _lemma_holds(p_id, lemma)
            and _lemma_holds(q_id, lemma)
            and (m1 == m2 or _chain_end(m1, ends) == _chain_end(m2, ends))
        )
        checks.append(
            IdentityCheck(
                "nf(S(p,q)) = 0",
                _pair_indices(p_id, q_id),
                passed,
                f"S({p_id},{q_id}) = {lhs}",
                "0",
            )
        )

    return CertificateReport(max_index, tuple(checks))


def _lemma_holds(gid: GeneratorId, cache: dict[GeneratorId, bool]) -> bool:
    """The rescaling lemma lc*Wfact(tm) == -tc*Wfact(lm) for generator(gid),
    in integers: after w_i = u_i/i! the generator is a scalar multiple of a
    difference of two monomials."""
    ok = cache.get(gid)
    if ok is None:
        lm, lc, tm, tc = _rewrite_rule(gid)
        ok = cache[gid] = lc * _wfact(tm.w) == -tc * _wfact(lm.w)
    return ok


def _chain_end(m: Monomial, ends: dict[Monomial, Monomial]) -> Monomial:
    """The last monomial of the chain m -> (m/lm)*tm along the first divisor
    generator; every monomial on the way is memoised in ``ends``."""
    path = []
    while m not in ends:
        gens = divisor_generators(m)
        if not gens:
            ends[m] = m
            break
        lm, _, tm, _ = _rewrite_rule(gens[0])
        path.append(m)
        m = _rewrite_monomial(m, lm, tm)
    end = ends[m]
    for seen in path:
        ends[seen] = end
    return end


def _binomial_str(c1: int, m1: Monomial, c2: int, m2: Monomial) -> str:
    """``to_str`` of c1*m1 + c2*m2 for nonzero c1, c2, without building the
    Polynomial."""
    if m1 == m2:
        c = c1 + c2
        return format_term(c, m1) if c else "0"
    if m1.key < m2.key:
        c1, m1, c2, m2 = c2, m2, c1, m1
    return f"{format_term(c1, m1)} {format_term(c2, m2, leading=False)}"


def _pair_indices(p_id: GeneratorId, q_id: GeneratorId) -> tuple[int, ...]:
    out = [p_id.a] + ([p_id.b] if p_id.kind == "G" else [])
    out += [q_id.a] + ([q_id.b] if q_id.kind == "G" else [])
    return tuple(out)
