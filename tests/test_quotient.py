"""Quotient elements: projection, arithmetic, norms, division by x.

Two witness tests at the bottom pin down a structural fact the rest of the
suite has to live with: multiplication by x is NOT injective on the
quotient (x annihilates 3*w0*w3 - w1*w2), so division by x is only unique
on inputs whose terms contain x, or y, or keep their w-part at w0.  The
acceptance suite states the round trip for arbitrary standard inputs and is
expected to fail there; see notes on the criterion in the repository README.
"""

import random
from fractions import Fraction

import pytest

from banachalg.ideal import (
    F,
    G,
    _class_monomial,
    _invariant,
    _wfact,
    generator,
    is_standard,
    is_standard_monomial,
    nf,
)
from banachalg.poly import Monomial, Polynomial, l1_norm, parse, to_str
from banachalg.quotient import (
    R_ZERO,
    RElement,
    _products,
    divide_by_x,
    equal_mod_I,
    project,
    r_add,
    r_mul,
)

from conftest import (
    monomial_box,
    nonzero_random_standard_polynomial,
    random_coefficient,
    random_polynomial,
    standard_form,
)

X = parse("x")
Y = parse("y")


def test_project_examples():
    assert project(parse("z^2")).poly == parse("x*w0")
    assert project(parse("z^2")).norm == 1
    assert project(generator(F(0))).is_zero()
    assert project(parse("w3")).poly == parse("w3")
    assert project(parse("w3")).norm == 1


def test_relement_requires_normal_form():
    with pytest.raises(ValueError):
        RElement(parse("z^2"))


def test_relement_requires_a_polynomial():
    # not a later AttributeError on .terms
    for bad in (5, "x*w0", parse("x*w0").terms, project(parse("w1"))):
        with pytest.raises(TypeError, match="RElement takes a Polynomial"):
            RElement(bad)


def test_project_is_standard_without_the_check(monkeypatch):
    rng = random.Random(43)
    corpus = [random_polynomial(rng) for _ in range(150)]
    results = [project(p) for p in corpus]
    for p, r in zip(corpus, results):
        assert is_standard(r.poly)
        assert r == RElement(nf(p))
    pairs = [(results[i], results[i + 1]) for i in range(0, 40, 2)]
    products = [r_mul(a, b) for a, b in pairs]
    assert all(is_standard(r.poly) for r in products)

    # project, r_mul and divide_by_x skip the check; the public constructor keeps it
    def refuse(p):
        raise AssertionError("is_standard on the project path")

    monkeypatch.setattr("banachalg.quotient.is_standard", refuse)
    assert [project(p) for p in corpus] == results
    assert [r_mul(a, b) for a, b in pairs] == products
    with pytest.raises(AssertionError):
        RElement(results[0].poly)
    assert divide_by_x(project(parse("x*w0"))) == project(parse("w0"))

    monkeypatch.undo()
    for text in ("x*w1", "y*w0*w2", "w0*w2 + z^3", "x*y*w0*w3"):
        with pytest.raises(ValueError):
            RElement(parse(text))


def test_r_add_and_divide_by_x_skip_the_check(monkeypatch):
    # a sum of normal forms is one, and divide_by_x builds from class
    # monomials, which are standard: neither runs is_standard again
    rng = random.Random(44)
    corpus = [project(random_polynomial(rng)) for _ in range(120)]
    sums = [r_add(a, b) for a, b in zip(corpus, corpus[1:])]
    quotients = [divide_by_x(r) for r in corpus]
    assert all(is_standard(r.poly) for r in sums)
    assert all(is_standard(h.poly) for h in quotients if h is not None)
    assert 0 < sum(h is None for h in quotients) < len(quotients)
    calls = []
    monkeypatch.setattr("banachalg.quotient.is_standard", calls.append)
    assert [r_add(a, b) for a, b in zip(corpus, corpus[1:])] == sums
    assert [divide_by_x(r) for r in corpus] == quotients
    assert calls == []


def test_project_identifies_congruent_polynomials():
    rng = random.Random(41)
    for _ in range(60):
        p = random_polynomial(rng)
        noise = sum(
            (
                generator(gid).mul_term(
                    random_coefficient(rng), q.terms[0].monomial
                )
                for gid, q in [
                    (F(rng.randint(0, 6)), random_polynomial(rng, max_terms=1)),
                    (
                        G(*sorted(rng.sample(range(7), 2))),
                        random_polynomial(rng, max_terms=1),
                    ),
                ]
            ),
            Polynomial.zero(),
        )
        assert project(p + noise) == project(p)
        assert equal_mod_I(p + noise, p)
        assert l1_norm(p + noise) >= project(p).norm


def test_equal_mod_I_examples():
    assert equal_mod_I(parse("z^2"), parse("x*w0"))
    assert equal_mod_I(parse("y*w0"), parse("x*w1"))
    assert not equal_mod_I(parse("x"), parse("y"))


def test_r_ops():
    assert r_mul(project(X), project(parse("w0"))) == project(parse("z^2"))
    assert r_mul(project(X), project(parse("w1"))) == project(parse("y*w0"))
    assert r_add(project(parse("z^2")), project(parse("-z^2"))) == R_ZERO


# --- r_mul by class sums, against the product-then-nf route -----------------


def _product_route(a, b):
    return to_str(project(a.poly * b.poly).poly)


def _degree_six_poly(rng, terms=4):
    """The shape of the quotient-series bench's products: ``terms`` terms
    of degree 6 in z, x, y, w0 .. w10 (fewer when two coincide)."""
    names = ["z", "x", "y"] + [f"w{i}" for i in range(11)]

    def monomial():
        return parse("*".join(rng.choice(names) for _ in range(6))).terms[0].monomial

    return Polynomial.from_terms((random_coefficient(rng), monomial()) for _ in range(terms))


def _r_mul_corpus():
    pairs = [
        ("z*w1 + z*y", "z*w2 - 3*z"),  # z odd times z odd: the carry
        ("z + 2*z*w3*w4", "(1/2)*z*w0*w7"),
        ("w0 + w1*w2", "w3 + 2*w5"),  # s = 0 times s = 0, no carry
        ("w0*w3 + w1*w2", "w0*w3 - w1*w2"),
        ("z*w1 + w2", "z*w3 - w0"),  # s = 0 times s = 0, with and without the carry
        ("w0*w3 + z", "y*w1 + x"),  # s = 0 times s >= 1
        ("w300 - 5", "x*w0*w2"),
        ("x", "3*w0*w3 - w1*w2"),  # x*w0*w3 and x*w1*w2 share a class and cancel
        ("w1 + w0", "y*w0 - y*w1"),
        ("7", "y*w0*w9 + z"),
        ("0", "x + w1"),
    ]
    out = [(project(parse(a)), project(parse(b))) for a, b in pairs]
    base = parse("z + x + y + w0 + w1 + w2 + w3 + w5 + w8")
    cube = project(base * base * base)
    assert len(cube.poly.terms) == 121
    out.append((cube, cube))
    rng = random.Random(2121)
    for _ in range(300):
        out.append((project(_degree_six_poly(rng)), project(_degree_six_poly(rng))))
    for _ in range(100):
        out.append((project(random_polynomial(rng)), project(random_polynomial(rng))))
    return out


def test_r_mul_matches_the_product_route():
    corpus = _r_mul_corpus()
    for a, b in corpus:
        out = r_mul(a, b)
        assert to_str(out.poly) == _product_route(a, b)
        assert out == _products((a.poly, b.poly))
        assert all(type(t.coefficient) is Fraction for t in out.poly.terms)
    assert r_mul(*corpus[7]).is_zero()  # the cancelling class
    assert sum(r_mul(a, b).is_zero() for a, b in corpus) >= 2


def test_r_mul_builds_no_full_product(monkeypatch):
    corpus = _r_mul_corpus()[:12]

    def refuse(*args, **kwargs):
        raise AssertionError("full product built")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(Polynomial, "from_terms", staticmethod(refuse))
    with pytest.raises(AssertionError, match="full product built"):
        corpus[0][0].poly * corpus[0][1].poly  # the spies are in place
    got = [to_str(r_mul(a, b).poly) for a, b in corpus]
    monkeypatch.undo()
    assert got == [_product_route(a, b) for a, b in corpus]


def test_r_mul_computes_no_factorial_for_s0_products(monkeypatch):
    # w1*w300000 has s = 0, so it passes through: no factorial of 300000
    big, one = project(parse("w300000")), project(parse("w1"))
    odd = project(parse("z*w300000 - 2"))

    def refuse(*args):
        raise AssertionError("factorial called")

    monkeypatch.setattr("banachalg.ideal.factorial", refuse)
    assert r_mul(big, one).poly == parse("w1*w300000")
    assert r_mul(one, odd).poly == parse("z*w1*w300000 - 2*w1")  # z odd times z even
    for a, b in (("z*w2", "z*w3"), ("w2", "y")):  # the carry; a partner with s >= 1
        with pytest.raises(AssertionError, match="factorial called"):
            r_mul(project(parse(a)), project(parse(b)))


def _divide_by_merge(g):
    """divide_by_x's term-by-term pullback, merged by ``from_terms``."""
    parts = []
    for t in g.poly.terms:
        (z, s, n, d), wfact = _invariant(t.monomial)
        source, wfact_source = _class_monomial(z, s - 1, n, d)
        if source is None:
            return None
        parts.append((t.coefficient * Fraction(wfact_source, wfact), source))
    return Polynomial.from_terms(parts)


def test_divide_by_x_matches_the_merge_route():
    rng = random.Random(2122)
    cases = 0
    for _ in range(400):
        p = random_polynomial(rng)
        g = project(X * p if rng.random() < 0.8 else p)  # a fifth mostly without a quotient
        h, want = divide_by_x(g), _divide_by_merge(g)
        if want is None:
            assert h is None
            continue
        assert h.poly == want and to_str(h.poly) == to_str(want)
        cases += 1
    assert cases > 300


def test_norm_bounds_subadditive_submultiplicative():
    rng = random.Random(43)
    for _ in range(80):
        a = project(random_polynomial(rng))
        b = project(random_polynomial(rng))
        assert r_add(a, b).norm <= a.norm + b.norm
        assert r_mul(a, b).norm <= a.norm * b.norm


def test_quotient_norm_is_graded():
    """The ideal is homogeneous and nf keeps degrees, so the norm of a class
    is the sum of the norms of its homogeneous parts (used by the
    non-flatness argument in ``series``)."""
    rng = random.Random(1968)
    for _ in range(300):
        p = random_polynomial(rng)
        parts: dict[int, list] = {}
        for t in p.terms:
            parts.setdefault(t.monomial.degree, []).append((t.coefficient, t.monomial))
        graded = sum(project(Polynomial.from_terms(ts)).norm for ts in parts.values())
        assert project(p).norm == graded


def test_norm_is_exact():
    assert project(parse("3*w4")).norm == 3
    assert project(parse("-(1/2)*w0")).norm == Fraction(1, 2)
    assert R_ZERO.norm == 0
    assert project(parse("w1 + w2")).norm == 2
    assert project(parse("x")).norm == 1
    assert project(parse("w3^2")).norm == 1
    # the representative x*w0*w3 has l1 norm 1, but the class is (1/6)*y*w1^2
    assert project(parse("x*w0*w3")).norm == Fraction(1, 6)


def test_w_coefficient_purity():
    """No combination of generators contains a bare w_k monomial.  A
    structural fact about the generators; the exactness of the quotient norm
    is proved in ``quotient`` and checked by test_norm_is_exact."""
    rng = random.Random(47)
    gids = [F(j) for j in range(0, 8)] + [
        G(k, l) for k in range(0, 6) for l in range(k + 1, 7)
    ]
    for _ in range(60):
        combo = Polynomial.zero()
        for _ in range(rng.randint(1, 4)):
            gid = rng.choice(gids)
            combo = combo + generator(gid) * random_polynomial(rng, max_terms=3)
        for t in combo.terms:
            mono = t.monomial
            assert not (
                mono.x_exp == 0
                and mono.y_exp == 0
                and mono.z_exp == 0
                and sum(e for _, e in mono.w) == 1
            )


def test_x_regularity_on_random_corpus():
    """project(x*f) != 0 for random nonzero standard f: the annihilator of x
    demands exact coefficient ratios random draws never satisfy."""
    rng = random.Random(71)
    for _ in range(200):
        f = nonzero_random_standard_polynomial(rng)
        assert not project(X * f).is_zero()


def test_relement_serialization():
    e = project(parse("z^2 - (1/3)*w4"))
    assert e.to_json() == {"poly": "x*w0 - (1/3)*w4", "norm_bound": "4/3"}
    assert str(e) == "x*w0 - (1/3)*w4"


# --- division by x ----------------------------------------------------------


def test_divide_examples():
    assert divide_by_x(project(parse("z^2"))) == project(parse("w0"))
    assert divide_by_x(project(parse("y*w0"))) == project(parse("w1"))
    assert divide_by_x(project(parse("x*y"))) == project(Y)
    assert divide_by_x(R_ZERO) == R_ZERO


def test_divide_none_cases():
    assert divide_by_x(project(Y)) is None
    assert divide_by_x(project(parse("w5"))) is None
    assert divide_by_x(project(parse("z"))) is None
    assert divide_by_x(project(parse("x*w0 + w2"))) is None


def test_divide_none_oracle_degree_zero():
    # brute force: no standard h of degree 0 satisfies x*h == y
    g = project(Y)
    for c in [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)]:
        h = project(Polynomial.constant(c))
        assert r_mul(project(X), h) != g


def test_divide_result_times_x_gives_input():
    """The actual guarantee: x * divide_by_x(g) == g whenever division
    succeeds, for arbitrary standard inputs."""
    rng = random.Random(53)
    produced = 0
    while produced < 200:
        f = nonzero_random_standard_polynomial(rng)
        g = project(X * f)
        h = divide_by_x(g)
        assert h is not None
        assert r_mul(project(X), h) == g
        produced += 1


def test_divide_round_trip_on_unique_classes():
    """Round trip holds verbatim where the preimage is unique: terms with x,
    terms with y, and y-free terms whose w-part sits at w0."""
    rng = random.Random(59)
    produced = 0
    while produced < 200:
        f = nonzero_random_standard_polynomial(rng)
        safe = Polynomial.from_terms(
            (t.coefficient, t.monomial)
            for t in f.terms
            if t.monomial.x_exp >= 1
            or t.monomial.y_exp >= 1
            or all(i == 0 for i, _ in t.monomial.w)
        )
        if safe.is_zero():
            continue
        assert divide_by_x(project(X * safe)) == project(safe)
        produced += 1


def test_divide_solver_path_round_trip():
    # the shapes the series solver feeds through division: c * y * w_k
    for k in range(0, 12):
        f = Polynomial.monomial(Monomial.build(y=1, w={k: 1}), Fraction(7, 3))
        assert divide_by_x(project(X * f)) == project(f)


def test_divide_is_deterministic_window_choice():
    # y*w1^2 has several x-quotients; the window-shaped one is returned
    h = divide_by_x(project(parse("y*w1^2")))
    assert h == project(parse("2*w1*w2"))
    # and it is a genuine quotient
    assert r_mul(project(X), h) == project(parse("y*w1^2"))


def _three_branch_divide(mono):
    """The pullback of one standard monomial under x by the case analysis
    that predates the class invariant: (scalar, preimage), or None."""
    if mono.x_exp >= 1:
        return Fraction(1), mono / X.terms[0].monomial
    size, mass = sum(e for _, e in mono.w), sum(i * e for i, e in mono.w)
    if mono.y_exp >= 1 and size >= 1:
        a, hi = divmod(mass + 1, size)  # the window one mass higher
        w = {a: size - hi, a + 1: hi}
        source = Monomial.build(z=mono.z_exp, y=mono.y_exp - 1, w=w)
        return Fraction(_wfact(source.w), _wfact(mono.w)), source
    return None


def test_divide_matches_the_three_branch_rule_on_a_box():
    """Every standard monomial of degree <= 6 with w-indices <= 7."""
    standard = [mono for mono in monomial_box(6, 7) if is_standard_monomial(mono)]
    assert len(standard) == 4802
    divided = 0
    for mono in standard:
        g = RElement(Polynomial.monomial(mono))
        h = divide_by_x(g)
        expected = _three_branch_divide(mono)
        if expected is None:
            assert h is None, mono
            continue
        scalar, source = expected
        assert h == RElement(Polynomial.monomial(source, scalar)), mono
        assert project(X * h.poly) == g
        divided += 1
    assert 0 < divided < len(standard)


# --- the structural caveat, pinned as facts ---------------------------------


def test_x_is_a_zero_divisor_witness():
    """x*(3*w0*w3 - w1*w2) = w2*F1 - w0*F3 lies in the ideal while the
    cofactor is a nonzero normal form, so x annihilates a nonzero class."""
    torsion = parse("3*w0*w3 - w1*w2")
    combo = generator(F(1)).mul_term(1, parse("w2").terms[0].monomial) - generator(
        F(3)
    ).mul_term(1, parse("w0").terms[0].monomial)
    assert X * torsion == combo
    assert nf(torsion) == torsion and not torsion.is_zero()
    assert project(X * torsion).is_zero()
    # y annihilates it too: y*(3*w0*w3 - w1*w2) is exactly G(0,2)
    assert Y * torsion == generator(G(0, 2))
    assert project(Y * torsion).is_zero()


def test_criterion_4_discrepancies_lie_in_the_kernel_of_x():
    """Every way the division round trip of acceptance criterion 4 misses is
    a kernel element of x: on criterion 4's corpus the discrepancy
    d = divide_by_x(project(x*f)) - project(f) has nf(x*d) == 0, and the
    reason is scalar-exact: grouped by std(x*m), the coefficients c_m of d
    satisfy sum(c_m / Wfact(m)) == 0, since nf(x*m) = Wfact(std)/Wfact(m) * std."""
    rng = random.Random(20240801 + 4)  # the corpus of criterion 4
    x_mono = X.terms[0].monomial
    discrepancies = 0
    for _ in range(500):
        f = nonzero_random_standard_polynomial(rng)
        d = divide_by_x(project(X * f)).poly - project(f).poly
        if d.is_zero():
            continue
        discrepancies += 1
        assert nf(X * d).is_zero()
        groups: dict[Monomial, Fraction] = {}
        for t in d.terms:
            _, _, std = standard_form(t.monomial * x_mono)
            share = t.coefficient / _wfact(t.monomial.w)
            groups[std] = groups.get(std, Fraction(0)) + share
        assert all(total == 0 for total in groups.values())
    assert discrepancies > 0


def test_multiplication_by_x_merges_preimages():
    assert project(X * parse("w0*w3")).poly == parse("(1/6)*y*w1^2")
    assert project(X * parse("w1*w2")).poly == parse("(1/2)*y*w1^2")
    # scalar-exact collision: two distinct standard monomials, same image
    assert project(X * parse("w1^2*w6")) == project(X * parse("w0*w3*w5"))
    assert project(X * parse("w1^2*w6")).poly == parse("(1/30)*y*w2^2*w3")


def enumerate_standard_monomials(max_degree, max_windex):
    """Every standard monomial with total degree <= max_degree and w-indices
    <= max_windex, by filtering the full exponent grid."""
    from itertools import product

    out = []
    for z in range(0, 2):
        for x in range(0, max_degree + 1 - z):
            for y in range(0, max_degree + 1 - z - x):
                budget = max_degree - z - x - y
                for exps in product(range(budget + 1), repeat=max_windex + 1):
                    if sum(exps) > budget:
                        continue
                    mono = Monomial.build(
                        z=z, x=x, y=y, w={i: e for i, e in enumerate(exps) if e}
                    )
                    if is_standard_monomial(mono):
                        out.append(mono)
    return out


def test_multiplication_by_x_injective_outside_y_free_class():
    """Exhaustive over degree <= 4, w-index <= 5: on monomials that contain
    x, or y, or keep their w-part at w0, the images under
    multiplication-by-x-then-normal-form are pairwise distinct, scalars
    included.  The y-free multi-index class is excluded: it genuinely
    collides (see test_multiplication_by_x_merges_preimages)."""
    seen = {}
    collisions = 0
    for mono in enumerate_standard_monomials(4, 5):
        unique_class = (
            mono.x_exp >= 1
            or mono.y_exp >= 1
            or all(i == 0 for i, _ in mono.w)
        )
        if not unique_class:
            continue
        image = project(Polynomial.monomial(mono * parse("x").terms[0].monomial))
        key = tuple((t.coefficient, t.monomial) for t in image.poly.terms)
        assert key not in seen, (mono, seen[key])
        seen[key] = mono
    assert len(seen) > 100  # the class is well populated at this range


def test_divide_round_trip_exhaustive_on_unique_classes():
    for mono in enumerate_standard_monomials(4, 5):
        if (
            mono.x_exp >= 1
            or mono.y_exp >= 1
            or all(i == 0 for i, _ in mono.w)
        ):
            f = Polynomial.monomial(mono, Fraction(5, 3))
            assert divide_by_x(project(X * f)) == project(f)
