"""Generators, S-polynomials, standard monomials, normal forms, certificate."""

import contextlib
import copy
import pickle
import random
import re
import signal
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import banachalg.ideal as ideal
from banachalg.ideal import (
    F,
    G,
    GeneratorId,
    ReductionLimitError,
    ReductionStep,
    _step_bound,
    divisor_generators,
    generator,
    groebner_certificate,
    is_standard_monomial,
    nf,
    normal_form,
    parse_generator_id,
    reduce_by_single,
    s_polynomial,
)
from banachalg.poly import (
    Monomial,
    Polynomial,
    Term,
    _rewrite_monomial,
    l1_norm,
    parse,
    to_str,
)
from banachalg.quotient import project

from conftest import (
    monomial_box,
    nonzero_random_polynomial,
    random_coefficient,
    random_monomial,
    random_polynomial,
    standard_form,
    subprocess_env,
)


def m(text):
    (term,) = parse(text).terms
    return term.monomial


# --- generators -------------------------------------------------------------


def test_generator_f0():
    assert generator(F(0)) == parse("x*w0 - z^2")


def test_generator_f_family():
    assert generator(F(1)) == parse("y*w0 - x*w1")
    assert generator(F(4)) == parse("y*w3 - 4*x*w4")


def test_generator_g_family():
    assert generator(G(0, 1)) == parse("2*y*w0*w2 - y*w1^2")
    assert generator(G(1, 3)) == parse("4*y*w1*w4 - 2*y*w2*w3")


def test_generator_binomial_shape():
    for gid in [F(0), F(1), F(7), G(0, 1), G(2, 5), G(3, 4)]:
        assert len(generator(gid).terms) == 2


def test_generator_rejects_bad_ids():
    with pytest.raises(ValueError):
        G(1, 1)
    with pytest.raises(ValueError):
        G(3, 2)
    with pytest.raises(ValueError):
        GeneratorId("F", -1)
    # the stray second index is named, not the valid first one
    with pytest.raises(ValueError, match="second index 5"):
        GeneratorId("F", 3, 5)


@pytest.mark.parametrize(
    "args",
    [("F", 1.5), ("F", True), ("G", 0, 2.0), ("G", False, 2)],
    ids=["float-F", "bool-F", "float-G", "bool-G"],
)
def test_generator_id_rejects_indices_that_are_not_ints(args):
    # GeneratorId("F", 1.5) would give generator() = -(3/2)*x*w1.5 + y*w0.5,
    # and GeneratorId("F", True) would print as FTrue
    with pytest.raises(TypeError, match="GeneratorId indices must be ints"):
        GeneratorId(*args)
    # the interned ids check too, also once an equal int id is cached
    kind, *indices = args
    build = F if kind == "F" else G
    build(*map(int, indices))
    with pytest.raises(TypeError, match="GeneratorId indices must be ints"):
        build(*indices)


def test_generator_ids_are_interned():
    assert F(3) is F(3)
    assert G(1, 4) is G(1, 4)
    assert parse_generator_id("g1,4") is G(1, 4)
    assert parse_generator_id("F3") is F(3)
    assert pickle.loads(pickle.dumps(G(1, 4))) is G(1, 4)


def _ideal_caches():
    return {
        name: obj for name, obj in vars(ideal).items() if hasattr(obj, "cache_info")
    }


def test_module_caches_are_keyed_by_ids_and_bounded():
    # no cache keyed by monomials: the chain engine memoises per call
    assert set(_ideal_caches()) == {"_rewrite_rule", "_generator_id"}
    assert not hasattr(divisor_generators, "cache_info")
    assert not hasattr(generator, "cache_info")
    for cache in _ideal_caches().values():
        cache.cache_clear()
    groebner_certificate(12)
    bound = len(_all_gids(12))  # ids with every w-index <= 12
    assert bound == 13 + 66
    for name, cache in _ideal_caches().items():
        assert cache.cache_info().currsize <= bound, name


def _gid_fields(gid):
    return (gid.kind, gid.a, gid.b)


def test_generator_id_value_contract():
    ids = [F(j) for j in range(7)] + [G(k, l) for k in range(6) for l in range(k + 1, 7)]
    for g, h in zip(ids, ids[1:] + ids[:1]):
        for a, b in ((g, g), (g, h)):
            assert (a == b) == (_gid_fields(a) == _gid_fields(b))
            assert (a < b) == (_gid_fields(a) < _gid_fields(b))
            assert (a <= b) == (_gid_fields(a) <= _gid_fields(b))
        assert hash(g) == hash(_gid_fields(g))
        twin = GeneratorId(*_gid_fields(g))
        assert twin == g and hash(twin) == hash(g)
        for clone in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert clone == g and hash(clone) == hash(g)
    assert sorted(reversed(ids)) == sorted(ids, key=_gid_fields)
    assert repr(F(2)) == "GeneratorId(kind='F', a=2, b=-1)"
    assert repr(G(1, 3)) == "GeneratorId(kind='G', a=1, b=3)"
    assert (str(F(2)), str(G(1, 3))) == ("F2", "G1,3")
    with pytest.raises(AttributeError):
        F(2).a = 3


def test_generator_id_unpickles_with_this_process_hash():
    # str hashes are salted per process: an id pickled elsewhere must not
    # carry that process's cached hash into this one
    code = (
        "import pickle, sys; from banachalg.ideal import F, G; "
        "sys.stdout.write(pickle.dumps([F(3), G(1, 3)]).hex())"
    )
    env = subprocess_env()
    env["PYTHONHASHSEED"] = "12345"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    f3, g13 = pickle.loads(bytes.fromhex(proc.stdout))
    assert hash(f3) == hash(F(3)) and hash(g13) == hash(G(1, 3))
    assert {F(3): 1, G(1, 3): 2}[g13] == 2
    assert generator(g13) == generator(G(1, 3))


def test_parse_generator_id():
    assert parse_generator_id("F3") == F(3)
    assert parse_generator_id("g0,2") == G(0, 2)
    with pytest.raises(ValueError):
        parse_generator_id("H1")
    with pytest.raises(ValueError):
        parse_generator_id("G2")
    # a well-shaped id out of range keeps the constructor's own message
    for text, message in (
        ("G1,1", "G requires 0 <= k < l"),
        ("G2,1", "G requires 0 <= k < l"),
        ("F-1", "invalid F index"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_generator_id(text)
    # indices are read by the polynomial parser's integer rule: case,
    # surrounding whitespace and a sign are kept, while digit separators
    # and non-ASCII digits do not parse
    assert parse_generator_id(" g1,4\t") is G(1, 4)
    assert parse_generator_id("f+2") is F(2)
    for text in ("F1_0", "G1,1_2", "F\u0663", "G\u0661,3", "F", "G1,", "F1,2"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_generator_id(text)


@pytest.mark.parametrize("text", ["F" + "1" * 5000, "G1," + "1" * 5000], ids=["F", "G"])
def test_parse_generator_id_beyond_the_int_str_digit_limit(int_str_limit, text):
    # neither "cannot parse" nor a range error: the message names the id
    # and the limit, and the limit itself is left as it was
    with pytest.raises(ValueError) as err:
        parse_generator_id(text)
    message = str(err.value)
    assert message.startswith(f"generator id {text!r} ")
    assert message.endswith("longer than the int-str digit limit")
    assert sys.get_int_max_str_digits() == int_str_limit


# --- leading terms ----------------------------------------------------------


def test_leading_terms_of_generators():
    lt = generator(F(0)).leading_term()
    assert (lt.coefficient, lt.monomial) == (Fraction(-1), m("z^2"))
    lt = generator(F(1)).leading_term()
    assert (lt.coefficient, lt.monomial) == (Fraction(-1), m("x*w1"))
    lt = generator(G(0, 1)).leading_term()
    assert (lt.coefficient, lt.monomial) == (Fraction(2), m("y*w0*w2"))


def test_leading_term_zero_raises():
    with pytest.raises(ValueError):
        Polynomial.zero().leading_term()


# --- S-polynomials ----------------------------------------------------------


def test_spoly_ff_equals_g():
    assert s_polynomial(generator(F(1)), generator(F(2))) == generator(G(0, 1))
    assert s_polynomial(generator(F(2)), generator(F(4))) == generator(G(1, 3))


def test_spoly_gf():
    # equals (l+1) * y*w_l * F_{k+1}; at k=0, l=1 the quotient is 2*y*w1
    s = s_polynomial(generator(G(0, 1)), generator(F(2)))
    assert s == parse("2*y^2*w0*w1 - 2*x*y*w1^2")
    assert s == generator(F(1)).mul_term(2, m("y*w1"))


def test_spoly_self_is_zero():
    p = generator(F(3))
    assert s_polynomial(p, p).is_zero()


def test_spoly_leading_terms_cancel():
    rng = random.Random(11)
    for _ in range(50):
        p = nonzero_random_polynomial(rng)
        q = nonzero_random_polynomial(rng)
        s = s_polynomial(p, q)
        big = p.leading_term().monomial.lcm(q.leading_term().monomial)
        if not s.is_zero():
            assert s.leading_term().monomial.key < big.key


# --- standard monomials -----------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("w0*w3", True),
        ("x*w2", False),
        ("y*w0*w2", False),
        ("z^3", False),
        ("w5", True),
        ("x*y*w0", True),      # x next to w0 only is fine
        ("x^3*y^2*w0^4", True),
        ("x*w0*w1", False),    # x with any w index >= 1
        ("y*w1^2", True),
        ("y*w0*w1", True),     # adjacent support window
        ("y*w1*w2^3", True),
        ("y*w0*w1*w2", False), # three support indices
        ("y^2*w3*w5", False),  # gap two
        ("z*w0*w4", True),     # y-free: any support
        ("z^2*w0", False),
        ("1", True),
        ("z", True),
    ],
)
def test_is_standard_monomial(text, expected):
    assert is_standard_monomial(m(text)) is expected


def test_divisor_generators_ordering():
    # x*w1*w2 is divisible by the leading monomials of F1 and F2; x*w2 is the
    # larger, so F2 comes first for the deterministic strategy
    gens = divisor_generators(m("x*w1*w2"))
    assert gens == (F(2), F(1))
    assert divisor_generators(m("y*w0^2*w2*w4")) == (
        G(2, 3),
        G(0, 3),
        G(0, 1),
    )
    assert divisor_generators(m("w0*w9")) == ()


def _exponents(mono):
    """The exponent vector of mono, keyed by 'z', 'x', 'y' and w-indices."""
    return Counter({"z": mono.z_exp, "x": mono.x_exp, "y": mono.y_exp, **dict(mono.w)})


def _from_exponents(e):
    w = {i: n for i, n in e.items() if isinstance(i, int)}
    return Monomial.build(z=e["z"], x=e["x"], y=e["y"], w=w)


def test_one_build_rewrite_matches_divide_then_multiply():
    # * and / build through _rewrite_monomial, so the reference works on
    # exponent vectors and builds through the checked constructor
    rng = random.Random(41)
    pool = [F(j) for j in range(11)]
    pool += [G(k, l) for k in range(10) for l in range(k + 1, 10)]
    divisible = refused = 0
    for _ in range(600):
        mono = random_monomial(rng)
        for gid in list(divisor_generators(mono)) + rng.sample(pool, 3):
            lm, _, tm, _ = ideal._rewrite_rule(gid)
            have, lead = _exponents(mono), _exponents(lm)
            if all(have[v] >= e for v, e in lead.items()):
                assert lm.divides(mono)
                expected = _from_exponents(have - lead + _exponents(tm))
                for got in (_rewrite_monomial(mono, lm, tm), (mono / lm) * tm):
                    assert got == expected
                    assert (got.key, hash(got)) == (expected.key, hash(expected))
                divisible += 1
            else:
                assert not lm.divides(mono)
                message = f"^{re.escape(f'{lm} does not divide {mono}')}$"
                with pytest.raises(ValueError, match=message):
                    _rewrite_monomial(mono, lm, tm)
                with pytest.raises(ValueError, match=message):
                    mono / lm
                refused += 1
    assert divisible > 300 and refused > 300


# --- normal form ------------------------------------------------------------


@pytest.mark.parametrize(
    "source,target",
    [
        ("z^2", "x*w0"),
        ("y*w0*w2", "(1/2)*y*w1^2"),
        ("z^2*w1", "y*w0^2"),
        ("w5", "w5"),
        ("x*w0*w3", "(1/6)*y*w1^2"),
        ("x*w1*w2", "(1/2)*y*w1^2"),
        ("x*w1", "y*w0"),
        ("x^2*w2", "(1/2)*y^2*w0"),
        ("0", "0"),
    ],
)
def test_normal_form_examples(source, target):
    assert nf(parse(source)) == parse(target)


def test_normal_form_of_generators_is_zero():
    for gid in [F(0), F(1), F(5), G(0, 1), G(0, 4), G(2, 3), G(3, 7)]:
        assert nf(generator(gid)).is_zero()


def test_normal_form_result_is_standard():
    rng = random.Random(23)
    for _ in range(200):
        p = random_polynomial(rng)
        result = nf(p)
        assert all(is_standard_monomial(t.monomial) for t in result.terms)


def test_confluence_of_strategies():
    rng = random.Random(5)
    for _ in range(200):
        p = random_polynomial(rng)
        deterministic = nf(p)
        randomized, _ = normal_form(p, strategy="random", rng=random.Random(rng.random()))
        assert deterministic == randomized


def test_idempotence():
    rng = random.Random(29)
    for _ in range(100):
        p = random_polynomial(rng)
        once = nf(p)
        assert nf(once) == once


def test_trace_replays_and_certifies_membership():
    rng = random.Random(31)
    for _ in range(100):
        p = random_polynomial(rng)
        result, trace = normal_form(p)
        assert trace.result == result
        assert trace.replay(p) == result
        # p - result is an explicit combination of generators, so reduces to 0
        assert nf(p - result).is_zero()


def test_norm_monotonicity_and_degree_preservation():
    rng = random.Random(37)
    for _ in range(150):
        p = random_polynomial(rng)
        result = nf(p)
        assert l1_norm(result) <= l1_norm(p)
        if not result.is_zero():
            assert max(t.monomial.degree for t in result.terms) <= max(
                t.monomial.degree for t in p.terms
            )


def test_per_step_factor_in_unit_interval():
    # each rewrite multiplies the moved coefficient by |tail/lead| in (0, 1]
    for gid in [F(0)] + [F(j) for j in range(1, 12)] + [
        G(k, l) for k in range(0, 6) for l in range(k + 1, 7)
    ]:
        lead, tail = generator(gid).terms
        r = abs(tail.coefficient / lead.coefficient)
        assert 0 < r <= 1


def test_homogeneous_steps():
    # generators are homogeneous, so every intermediate keeps term degrees
    p = parse("z^2*w3 + x*w1*w4 - 2*y*w0*w5")
    result, trace = normal_form(p)
    for step in trace.steps:
        g = generator(step.generator)
        degs = {t.monomial.degree for t in g.terms}
        assert len(degs) == 1


# --- one pass and the step bound -----------------------------------------------


def _rescan_normal_form(p):
    """Reference: after every step, re-sort the whole worklist and rewrite
    its largest reducible monomial by its first divisor generator."""
    work = {t.monomial: t.coefficient for t in p.terms}
    steps = []
    while True:
        for mono in sorted(work, key=lambda mono: mono.key, reverse=True):
            if gens := divisor_generators(mono):
                break
        else:
            return Polynomial.from_terms((c, mono) for mono, c in work.items()), steps
        multiplier, scalar, _ = ideal._rewrite_step(work, mono, gens[0])
        steps.append(ReductionStep(gens[0], multiplier, scalar))


def _pass_corpus():
    """Seeded polynomials, long G chains and a dense power with seeded
    coefficients (495 terms, many steps landing on queued monomials)."""
    rng = random.Random(43)
    corpus = [random_polynomial(rng) for _ in range(150)]
    corpus += [random_polynomial(rng, 12, 9, 15) for _ in range(50)]
    oracle = _oracle_corpus(rng)
    corpus += [
        Polynomial.from_terms((random_coefficient(rng), mono) for mono in oracle[i : i + 6])
        for i in range(0, len(oracle), 6)
    ]
    corpus += [parse(f"y*w0*w{n}") for n in (50, 200)]
    linear = Polynomial.from_terms(
        (random_coefficient(rng), m(v)) for v in "z x y w0 w1 w2 w3 w5 w8".split()
    )
    corpus.append(linear * linear * linear * linear)
    return corpus


def test_one_pass_matches_the_rescan_reference():
    for p in _pass_corpus():
        result, trace = normal_form(p)
        assert (result, list(trace.steps)) == _rescan_normal_form(p)


def test_steps_within_the_bound_for_both_strategies():
    for i, p in enumerate(_pass_corpus()):
        bound = _step_bound(p)
        assert len(normal_form(p)[1].steps) <= bound
        randomized = normal_form(p, strategy="random", rng=random.Random(i))
        assert len(randomized[1].steps) <= bound


@pytest.mark.parametrize("strategy", ["largest", "random"])
def test_broken_rule_raises_instead_of_looping(broken_f0, strategy):
    with pytest.raises(ReductionLimitError):
        normal_form(parse("z^2 + x*w3"), strategy=strategy, rng=random.Random(0))


# --- closed form against the rewriting engine ---------------------------------


def _oracle_corpus(rng):
    """Seeded monomials covering every branch of the closed form."""
    corpus = [random_monomial(rng, max_degree=9, max_windex=15) for _ in range(300)]
    for _ in range(60):
        # odd and even z-powers, x-heavy, mixed y and w
        corpus.append(
            Monomial.build(
                z=rng.randint(0, 5),
                x=rng.randint(0, 6),
                y=rng.randint(0, 2),
                w={rng.randint(0, 8): rng.randint(1, 3), rng.randint(0, 8): 1},
            )
        )
    for _ in range(20):
        # high-index y*w_a*w_b: long G chains
        a = rng.randint(0, 20)
        corpus.append(Monomial.build(y=1, w={a: 1, rng.randint(a, 200): 1}))
    return corpus


def test_nf_matches_rewriting_engine():
    rng = random.Random(41)
    corpus = _oracle_corpus(rng)
    for i in range(0, len(corpus), 4):
        p = Polynomial.from_terms(
            (random_coefficient(rng), mono) for mono in corpus[i : i + 4]
        )
        expected = nf(p)
        assert normal_form(p)[0] == expected
        randomized, _ = normal_form(p, strategy="random", rng=random.Random(i))
        assert randomized == expected


def test_nf_and_project_do_not_use_the_rewriting_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("normal_form called")

    monkeypatch.setattr("banachalg.ideal.normal_form", refuse)
    assert nf(parse("z^2*w1 + x*w0*w3")) == parse("y*w0^2 + (1/6)*y*w1^2")
    assert str(project(parse("y*w0*w2"))) == "(1/2)*y*w1^2"


def test_nf_builds_one_monomial_per_nonzero_class(monkeypatch):
    # z^2*w1 and -y*w0^2 share a class and cancel, so only the class of
    # x*w0*w3 reaches _class_monomial
    p = parse("z^2*w1 + x*w0*w3 - y*w0^2")
    calls = []
    pick = ideal._class_monomial

    def spy(*inv):
        calls.append(inv)
        return pick(*inv)

    monkeypatch.setattr("banachalg.ideal._class_monomial", spy)
    assert to_str(nf(p)) == "(1/6)*y*w1^2"
    assert calls == [ideal._invariant(m("x*w0*w3"))[0]]


def _reference_nf(p):
    """The per-term route, kept as the oracle for nf's class sums: rho of
    each term as a Fraction, then from_terms merges by monomial."""
    pairs = []
    for t in p.terms:
        a, b, std = standard_form(t.monomial)
        pairs.append((t.coefficient * Fraction(a, b), std))
    return Polynomial.from_terms(pairs)


def _nf_corpus(rng):
    """Dense powers, ideal members that cancel to zero, y*w0*w_n."""
    unit = parse("z + x + y + w0 + w1 + w2 + w3 + w5 + w8")
    seeded = Polynomial.from_terms(
        (random_coefficient(rng), t.monomial) for t in unit.terms
    )
    corpus = []
    for base, power in ((unit, 5), (seeded, 4)):
        p = Polynomial.constant(1)
        for _ in range(power):
            p = p * base
        corpus.append(p)
    members = [parse("x*w0 - z^2")]
    gids = [F(j) for j in range(12)] + [G(k, l) for k in range(8) for l in range(k + 1, 9)]
    for _ in range(60):
        member = Polynomial.zero()
        for gid in rng.sample(gids, rng.randint(1, 3)):
            multiplier = random_monomial(rng, max_degree=3, max_windex=9)
            member = member + generator(gid).mul_term(random_coefficient(rng), multiplier)
        members.append(member)
    corpus += members
    corpus += [parse(f"y*w0*w{n}") for n in range(0, 2001, 7)] + [parse("y*w0*w2000")]
    return corpus, members


def _assert_canonical(out):
    keys = [t.monomial.key for t in out.terms]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    for t in out.terms:
        assert type(t) is Term and type(t.coefficient) is Fraction
        assert t.coefficient != 0


def test_nf_is_canonical_and_matches_the_fraction_route():
    corpus, members = _nf_corpus(random.Random(909))
    for p in corpus:
        out = nf(p)
        assert out == _reference_nf(p)
        _assert_canonical(out)
        assert all(is_standard_monomial(t.monomial) for t in out.terms)
    assert all(nf(p).is_zero() for p in members)
    assert sum(not p.is_zero() for p in members) > 50


@pytest.mark.parametrize(
    "text, expected",
    [
        ("z^2*w1 - y*w0^2", "0"),  # one class, rho = 1 on both terms
        ("z^2*w1 - y*w0^2 + 2*y*w0^2", "2*y*w0^2"),
        ("6*x*w0*w3 - y*w1^2", "0"),  # one class, Wfact 6 against 1
        ("6*x*w0*w3 - 2*y*w1^2 + (1/3)*x*w1*w2", "-(5/6)*y*w1^2"),
        ("(1/2)*x*w0*w3 + (1/3)*x*w1*w2", "(1/4)*y*w1^2"),
        ("w0*w3 + w1*w2", "w0*w3 + w1*w2"),  # s = 0: two classes, not one
        ("w0*w3 - w1*w2", "w0*w3 - w1*w2"),
        ("z*w0*w3 - z*w1*w2 + z^3", "z*x*w0 + z*w0*w3 - z*w1*w2"),
    ],
)
def test_nf_sums_each_class_once(text, expected):
    p = parse(text)
    out = nf(p)
    assert to_str(out) == expected
    assert out == _reference_nf(p)
    _assert_canonical(out)


def test_nf_class_sums_match_the_per_term_route_on_a_dense_power():
    rng = random.Random(1818)
    base = Polynomial.from_terms(
        (random_coefficient(rng), mono)
        for mono in [m("z"), m("x"), m("y")] + [m(f"w{i}") for i in range(9)]
    )
    p = Polynomial.constant(1)
    for _ in range(5):
        p = p * base
    out = nf(p)
    assert out == _reference_nf(p) == normal_form(p)[0]
    assert len(out.terms) < len(p.terms)
    _assert_canonical(out)


def test_nf_goes_through_the_closed_form(monkeypatch):
    # keeps test_certificate_does_not_use_the_closed_form from passing
    # vacuously: patching _class_monomial does reach nf
    def refuse(*args, **kwargs):
        raise AssertionError("closed form called")

    monkeypatch.setattr("banachalg.ideal._class_monomial", refuse)
    with pytest.raises(AssertionError, match="closed form called"):
        nf(parse("x*w1"))


def test_nf_computes_no_factorial_when_no_rule_applies(monkeypatch):
    # s = 0 (no x, no y, z < 2): the monomial is its own normal form, so
    # w300000 must not cost 300000!
    def refuse(*args):
        raise AssertionError("factorial called")

    monkeypatch.setattr("banachalg.ideal.factorial", refuse)
    for text in ("w300000", "z*w3*w9", "7"):
        p = parse(text)
        assert nf(p) == p
        assert project(p).poly == p
    with pytest.raises(AssertionError, match="factorial called"):
        nf(parse("y*w0*w2"))


def test_certificate_does_not_use_the_closed_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("closed form called")

    for name in ("nf", "_invariant", "_class_monomial"):
        monkeypatch.setattr(f"banachalg.ideal.{name}", refuse)
    assert groebner_certificate(4).all_passed


# --- finite orbits ----------------------------------------------------------


def forward_backward_orbit(start: Monomial, index_bound: int, cap: int = 20000):
    """All monomials reachable from ``start`` by forward or backward rewrite
    steps keeping every w-index <= index_bound (scalars ignored)."""
    seen = {start}
    frontier = [start]
    while frontier:
        assert len(seen) <= cap, "orbit exploded"
        mono = frontier.pop()
        neighbours = []
        for gid in divisor_generators(mono):
            lead, _, tail, _ = _rule(gid)
            neighbours.append((mono / lead) * tail)
        for gid in _all_gids(index_bound):
            lead, _, tail, _ = _rule(gid)
            if tail.divides(mono) and max(
                [i for i, _ in ((mono / tail) * lead).w] or [0]
            ) <= index_bound:
                neighbours.append((mono / tail) * lead)
        for n in neighbours:
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    return seen


def _rule(gid):
    g = generator(gid)
    lead, tail = g.terms
    return lead.monomial, lead.coefficient, tail.monomial, tail.coefficient


def _all_gids(index_bound):
    out = [F(j) for j in range(index_bound + 1)]
    out += [G(k, l) for k in range(index_bound - 1) for l in range(k + 1, index_bound)]
    return out


@pytest.mark.parametrize(
    "text", ["y*w0*w2", "z^2*w3", "x*w1*w2", "w0*w3", "x*w0*w3", "x*w1*w2*w5"]
)
def test_orbits_are_finite_and_homogeneous(text):
    start = m(text)
    orbit = forward_backward_orbit(start, index_bound=8)
    assert len(orbit) < 500
    assert {mono.degree for mono in orbit} == {start.degree}
    # one standard monomial per orbit, reached with 0 < rho <= 1: the facts
    # behind the exact quotient norm (see the quotient module docstring)
    forms = [(Fraction(a, b), s) for a, b, s in map(standard_form, orbit)]
    (std,) = {s for _, s in forms}
    assert std in orbit
    assert all(0 < rho <= 1 for rho, _ in forms)
    a, b, s = standard_form(std)
    assert (Fraction(a, b), s) == (1, std)


# --- the class invariant on a finite box -------------------------------------


def _invariant(mono):
    """I(m) = (z mod 2, x + y + z//2, size + z//2, mass + y) as the module
    docstring defines it, computed here without ``ideal``."""
    p = mono.z_exp // 2
    return (
        mono.z_exp % 2,
        mono.x_exp + mono.y_exp + p,
        sum(e for _, e in mono.w) + p,
        sum(i * e for i, e in mono.w) + mono.y_exp,
    )


@pytest.fixture(scope="module")
def box():
    """Every monomial of degree <= 6 with w-indices <= 7."""
    return monomial_box(6, 7)


def test_every_rule_preserves_the_invariant(box):
    assert len(box) == 12376
    rules = [_rule(gid) for gid in _all_gids(7)]
    applied = 0
    for mono in box:
        inv = _invariant(mono)
        for lead, _, tail, _ in rules:
            if lead.divides(mono):
                assert _invariant((mono / lead) * tail) == inv, (mono, lead)
                applied += 1
        # the package's invariant is the one defined above, and the closed
        # form stays inside the class
        assert ideal._invariant(mono)[0] == inv
        std = standard_form(mono)[2]
        assert _invariant(std) == inv and is_standard_monomial(std)
    assert applied > 10000


def test_invariant_is_injective_on_standard_monomials(box):
    standard = [mono for mono in box if is_standard_monomial(mono)]
    assert len(standard) == 4802
    seen = {}
    for mono in standard:
        if _invariant(mono)[1] >= 1:
            assert seen.setdefault(_invariant(mono), mono) == mono
    assert len(seen) == 512  # the other 4290 have s = 0: no x, no y, z < 2
    # at s = 0 it is not: both standard, one invariant
    assert _invariant(m("w0*w3")) == _invariant(m("w1*w2"))


def _old_divisor_generators(mono):
    """The divisor list as collected before the order was written out: every
    applicable id, then a sort by leading monomial, largest first."""
    out = []
    idx = [i for i, _ in mono.w]
    if mono.y_exp >= 1:
        for i_pos, lo in enumerate(idx):
            for hi in idx[i_pos + 1 :]:
                if hi - lo >= 2:
                    out.append(G(lo, hi - 1))
    if mono.x_exp >= 1:
        out += [F(j) for j in idx if j >= 1]
    if mono.z_exp >= 2:
        out.append(F(0))
    out.sort(key=lambda g: ideal._rewrite_rule(g)[0].key, reverse=True)
    return tuple(out)


def _old_is_standard_monomial(mono):
    """The three-condition predicate that read the leading monomials by hand."""
    if mono.z_exp >= 2:
        return False
    idx = [i for i, _ in mono.w]
    if mono.x_exp >= 1 and any(i >= 1 for i in idx):
        return False
    if mono.y_exp >= 1:
        if any(hi - lo >= 2 for lo, hi in zip(idx, idx[1:])) or len(idx) >= 3:
            return False
    return True


def _old_generator(gid):
    """The generator formulas as written with the checked constructors."""
    if gid.kind == "F":
        j = gid.a
        if j == 0:
            return Polynomial.from_terms(
                [(1, Monomial.build(x=1, w={0: 1})), (-1, Monomial.build(z=2))]
            )
        return Polynomial.from_terms(
            [(1, Monomial.build(y=1, w={j - 1: 1})), (-j, Monomial.build(x=1, w={j: 1}))]
        )
    k, l = gid.a, gid.b
    second = {}
    for i in (l, k + 1):
        second[i] = second.get(i, 0) + 1
    return Polynomial.from_terms(
        [
            (l + 1, Monomial.build(y=1, w={k: 1, l + 1: 1})),
            (-(k + 1), Monomial.build(y=1, w=second)),
        ]
    )


def test_divisor_order_matches_the_sort_by_leading_monomial(box):
    reducible = 0
    for mono in box:
        gens = divisor_generators(mono)
        assert gens == _old_divisor_generators(mono), mono
        assert all(ideal._rewrite_rule(g)[0].divides(mono) for g in gens)
        reducible += bool(gens)
    assert reducible == len(box) - 4802


def test_is_standard_monomial_matches_the_three_conditions(box):
    for mono in box:
        assert is_standard_monomial(mono) is _old_is_standard_monomial(mono), mono


def test_rewrite_rules_match_the_written_formulas():
    ids = [F(j) for j in range(31)]
    ids += [G(k, l) for k in range(31) for l in range(k + 1, 31)]
    for gid in ids:
        expected = _old_generator(gid)
        assert generator(gid) == expected
        # the rule holds integers; generator() is where they become Fractions
        assert all(type(t.coefficient) is Fraction for t in generator(gid).terms)
        lead, tail = expected.terms
        rule = ideal._rewrite_rule(gid)
        assert rule == (lead.monomial, lead.coefficient, tail.monomial, tail.coefficient)
        assert all(type(c) is int for c in rule[1::2])
        for got, want in zip(rule[::2], (lead.monomial, tail.monomial)):
            assert (got.key, hash(got), got.w) == (want.key, hash(want), want.w)


# --- certificate ------------------------------------------------------------


def test_certificate_small_index_passes():
    report = groebner_certificate(3)
    assert report.all_passed
    # F-F pairs with w-indices <= 3: C(3,2); G's: (0,1),(0,2),(1,2)
    assert len(report.checks) >= 3 + 3 + 2 + 3 + 3
    assert report.to_json()["summary"]["all_passed"] is True


def test_certificate_identity_counts():
    report = groebner_certificate(4)
    by_name = {}
    for c in report.checks:
        by_name.setdefault(c.identity, []).append(c)
    assert len(by_name["S(F_{k+1},F_{l+1}) = G_{k,l}"]) == 6  # pairs k<l<=3
    assert len(by_name["S(G_{k,l},F_{l+1}) = (l+1)*y*w_l * F_{k+1}"]) == 6
    assert len(by_name["rem(S(G_{k,l},F_k), F_{k+1}) = y*G_{k-1,l}"]) == 3
    # non-coprime pairs: 6 F-F, 6 G-F(l+1), 3 G-F(k), 15 G-G
    assert len(by_name["nf(S(p,q)) = 0"]) == 6 + 6 + 3 + 15


def test_certificate_remainder_identity_example():
    # k=1, l=2: remainder of S(G_{1,2}, F_1) under division by F_2 is y*G_{0,2}
    s = s_polynomial(generator(G(1, 2)), generator(F(1)))
    assert s == parse("3*y^2*w0*w3 - 2*x*y*w2^2")
    quotient, remainder = reduce_by_single(s, F(2))
    assert remainder == generator(G(0, 2)).mul_term(1, m("y"))
    assert quotient == parse("y*w2")


def test_certificate_rejects_tiny_index():
    with pytest.raises(ValueError):
        groebner_certificate(1)


def test_certificate_text_rendering():
    report = groebner_certificate(2)
    text = report.to_text()
    assert "identities hold" in text
    assert report.failed == 0


PHASE_IV = "nf(S(p,q)) = 0"


def _phase_iv_rows(report):
    return [c for c in report.checks if c.identity == PHASE_IV]


def test_certificate_phase_iv_matches_the_rewriting_engine():
    # each pair's row does not depend on max_index, so one oracle pass over
    # the pairs of max_index 12 covers every smaller certificate
    oracle = {}
    for p_id, q_id in ideal._noncoprime_pairs(12):
        s = s_polynomial(generator(p_id), generator(q_id))
        oracle[p_id, q_id] = (
            normal_form(s)[0].is_zero(),
            f"S({p_id},{q_id}) = {to_str(s)}",
        )
    for n in range(2, 13):
        rows = _phase_iv_rows(groebner_certificate(n))
        pairs = list(ideal._noncoprime_pairs(n))
        assert len(rows) == len(pairs)
        for row, pair in zip(rows, pairs):
            assert (row.passed, row.lhs) == oracle[pair]
            assert row.indices == _pair_indices(*pair)
            assert row.rhs == "0"


def _pair_indices(p_id, q_id):
    return tuple(i for gid in (p_id, q_id) for i in (gid.a, gid.b) if i >= 0)


def test_certificate_does_not_use_the_rewriting_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("normal_form called")

    monkeypatch.setattr("banachalg.ideal.normal_form", refuse)
    assert groebner_certificate(8).all_passed


def _phase_i_to_iii_oracle(max_index):
    """(identity, (k, l)) -> (passed, lhs, rhs) for phases (i)-(iii), each
    row rebuilt from s_polynomial of the two generators, reduce_by_single
    and to_str, as the certificate computed them before it formed its
    S-pairs on exponent vectors."""
    out = {}
    for k in range(0, max_index - 1):
        for l in range(k + 1, max_index):
            s = s_polynomial(generator(F(k + 1)), generator(F(l + 1)))
            g = generator(G(k, l))
            out["S(F_{k+1},F_{l+1}) = G_{k,l}", (k, l)] = (s == g, to_str(s), to_str(g))
            s = s_polynomial(generator(G(k, l)), generator(F(l + 1)))
            q, r = reduce_by_single(s, F(k + 1))
            expected_q = Polynomial.monomial(Monomial.build(y=1, w={l: 1}), l + 1)
            out["S(G_{k,l},F_{l+1}) = (l+1)*y*w_l * F_{k+1}", (k, l)] = (
                r.is_zero() and q == expected_q,
                f"quotient {to_str(q)}, remainder {to_str(r)}",
                f"quotient {to_str(expected_q)}, remainder 0",
            )
            if k:
                s = s_polynomial(generator(G(k, l)), generator(F(k)))
                _, r = reduce_by_single(s, F(k + 1))
                expected = generator(G(k - 1, l)).mul_term(1, m("y"))
                out["rem(S(G_{k,l},F_k), F_{k+1}) = y*G_{k-1,l}", (k, l)] = (
                    r == expected,
                    to_str(r),
                    to_str(expected),
                )
    return out


def test_certificate_phases_i_to_iii_match_the_s_polynomial_route():
    # like the phase-(iv) oracle: a row depends on (k, l) only, so one pass
    # over max_index 12 covers every smaller certificate
    oracle = _phase_i_to_iii_oracle(12)
    for n in range(2, 13):
        rows = [c for c in groebner_certificate(n).checks if c.identity != PHASE_IV]
        assert len(rows) == 3 * (n - 1) * n // 2 - (n - 1)
        for row in rows:
            assert (row.passed, row.lhs, row.rhs) == oracle[row.identity, row.indices]


def test_certificate_does_not_call_s_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("s_polynomial called")

    monkeypatch.setattr("banachalg.ideal.s_polynomial", refuse)
    report = groebner_certificate(8)
    assert report.all_passed
    report.to_json()  # rendering every row does not call it either


@pytest.mark.parametrize(
    "d_lc, d_tc", [(1, 0), (-1, 0), (0, 1), (0, -1)], ids=["lc+1", "lc-1", "tc+1", "tc-1"]
)
@pytest.mark.parametrize("wrong", [F(3), G(1, 3)], ids=str)
def test_certificate_catches_a_wrong_generator(monkeypatch, wrong, d_lc, d_tc):
    # F3 = y*w2 - 3*x*w3 or G1,3 = 4*y*w1*w4 - 2*y*w2*w3 with one integer
    # coefficient off by one breaks the rescaling lemma; the chains alone
    # read only monomials and would not notice
    rule = ideal._rewrite_rule

    def perturbed(gid):
        lm, lc, tm, tc = rule(gid)
        return (lm, lc + d_lc, tm, tc + d_tc) if gid == wrong else (lm, lc, tm, tc)

    monkeypatch.setattr("banachalg.ideal._rewrite_rule", perturbed)
    report = groebner_certificate(5)
    assert not report.all_passed
    rows = _phase_iv_rows(report)
    pairs = list(ideal._noncoprime_pairs(5))
    failing = {pair for row, pair in zip(rows, pairs) if not row.passed}
    assert failing
    assert failing == {pair for pair in pairs if wrong in pair}


def test_phase_iv_prints_integer_products(monkeypatch):
    # the S-pair coefficients are products of the rules' integers, formed
    # and printed without a Fraction
    seen = []
    binomial_str = ideal._binomial_str

    def spy(c1, m1, c2, m2):
        seen.append((type(c1), type(c2)))
        return binomial_str(c1, m1, c2, m2)

    monkeypatch.setattr("banachalg.ideal._binomial_str", spy)
    report = groebner_certificate(6)
    assert report.all_passed
    # rows format their text when read, so read every one before counting
    for row in report.checks:
        row.lhs
    assert len(seen) == len(_phase_iv_rows(report)) > 0
    assert set(seen) == {(int, int)}


@pytest.mark.parametrize(
    "wrong, lead, message",
    [
        (G(0, 2), {0: 1, 4: 1}, "y*w0*w4 does not divide y*w0*w3"),
        (G(0, 2), {0: 2, 3: 1}, "y*w0^2*w3 does not divide y*w0*w3"),
        (G(1, 3), {1: 1, 5: 1}, "y*w1*w5 does not divide y*w1*w4"),
    ],
)
def test_certificate_refuses_a_lead_that_does_not_divide(monkeypatch, wrong, lead, message):
    # the divisor order picks the generator by its written formula; a rule
    # whose lead does not divide the monomial so picked must stop the chain
    # rather than step into negative exponents
    rule = ideal._rewrite_rule

    def wrapped(gid):
        lm, lc, tm, tc = rule(gid)
        return (Monomial.build(y=1, w=lead), lc, tm, tc) if gid == wrong else (lm, lc, tm, tc)

    monkeypatch.setattr("banachalg.ideal._rewrite_rule", wrapped)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        groebner_certificate(6)


@pytest.mark.parametrize("wrong", [F(3), G(1, 3)], ids=str)
def test_certificate_names_a_rule_past_max_index(monkeypatch, wrong):
    rule = ideal._rewrite_rule

    def wrapped(gid):
        lm, lc, tm, tc = rule(gid)
        if gid == wrong:
            tm = Monomial.build(y=1, w={9: 1})
        return lm, lc, tm, tc

    monkeypatch.setattr("banachalg.ideal._rewrite_rule", wrapped)
    with pytest.raises(ValueError, match=f"^the rule of {wrong} has the w-index 9, above max_index 5$"):
        groebner_certificate(5)


@pytest.mark.parametrize("wrong", [G(1, 3), F(3)], ids=str)
def test_certificate_refuses_a_rule_that_does_not_lower_phi(monkeypatch, wrong):
    # a rule whose tail is its lead steps a chain to itself forever; every
    # valid rule lowers phi = z + x + sum(i^2 * e_i), so the rule table
    # refuses one that does not before any chain runs
    rule = ideal._rewrite_rule

    def wrapped(gid):
        lm, lc, tm, tc = rule(gid)
        return (lm, lc, lm, tc) if gid == wrong else (lm, lc, tm, tc)

    monkeypatch.setattr("banachalg.ideal._rewrite_rule", wrapped)
    phi = 17 if wrong.kind == "G" else 10  # y*w1*w4 and x*w3
    message = f"the rule of {wrong} does not lower its monomial: phi = z + x + sum(i^2 * e_i) goes from {phi} to {phi}"
    with _within_a_second(), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        groebner_certificate(5)


@contextlib.contextmanager
def _within_a_second():
    """Raise TimeoutError in the block after one second: a lost check
    that would let a loop spin for ever fails the test instead."""

    def hung(signum, frame):
        raise TimeoutError("still running after 1 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_certificate_refuses_a_chain_step_past_a_field(monkeypatch):
    # every G tail with 70 more y's: the first chain with two G steps would
    # reach y^141, past the 127 that a packed field holds, and must not wrap
    rule = ideal._rewrite_rule

    def wrapped(gid):
        lm, lc, tm, tc = rule(gid)
        if gid.kind == "G":
            tm = Monomial.build(y=tm.y_exp + 70, w=dict(tm.w))
        return lm, lc, tm, tc

    monkeypatch.setattr("banachalg.ideal._rewrite_rule", wrapped)
    message = "the step by G1,2 from y^71*w1*w3 takes an exponent past 127"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        groebner_certificate(5)


def test_certificate_builds_no_polynomial_until_a_row_is_read(monkeypatch):
    import banachalg.poly as poly

    oracle = _phase_i_to_iii_oracle(8)  # also fills the rule cache up to index 8
    calls = Counter()

    def spying(name, real):
        def spy(*args):
            calls[name] += 1
            return real(*args)

        return spy

    monkeypatch.setattr(ideal, "reduce_by_single", spying("reduce_by_single", reduce_by_single))
    monkeypatch.setattr(
        Polynomial, "from_terms", staticmethod(spying("from_terms", Polynomial.from_terms))
    )
    for module in (poly, ideal):
        monkeypatch.setattr(module, "_monomial", spying("_monomial", module._monomial))
    report = groebner_certificate(8)
    assert report.all_passed
    assert not calls
    for row in report.checks:
        row.lhs
    assert calls["from_terms"] and calls["_monomial"] and not calls["reduce_by_single"]
    rows = [c for c in report.checks if c.identity != PHASE_IV]
    assert len(rows) == 3 * 7 * 8 // 2 - 7
    for row in rows:
        assert (row.passed, row.lhs, row.rhs) == oracle[row.identity, row.indices]


def test_packed_vectors_divide_and_step_as_monomials():
    # the guard-bit test against Monomial.divides and a step v + delta
    # against _rewrite_monomial, on seeded monomials with w-indices <= 12
    n = 12
    rules = ideal._RuleVectors(n)
    rng = random.Random(32)

    def monomial(top):
        e = [rng.choice((0, 0, 0, 1, rng.randint(1, top))) for _ in range(n + 4)]
        return Monomial.build(z=e[0], x=e[1], y=e[2], w=dict(enumerate(e[3:])))

    def vector(mono):
        v = ideal._vector(mono, None, n)
        assert ideal._vector_monomial(v, n) == mono
        return v

    divides = 0
    for _ in range(2000):
        a = monomial(127)
        b = a * monomial(4) if rng.random() < 0.5 else monomial(127)
        if max(b.z_exp, b.x_exp, b.y_exp, *(e for _, e in b.w)) > 127:
            continue
        got = ideal._divides(vector(a), vector(b), rules.guards)
        assert got is a.divides(b), (a, b)
        divides += got
    assert divides > 500

    gids = [F(j) for j in range(n + 1)]
    gids += [G(k, l) for k in range(n - 1) for l in range(k + 1, n)]
    for gid in gids:
        lm, _, tm, _ = ideal._rewrite_rule(gid)
        lead, delta = rules[gid][:2]
        assert vector(lm) == lead
        for _ in range(10):
            mono = lm * monomial(4)
            v = vector(mono)
            assert ideal._divides(lead, v, rules.guards)
            got = ideal._vector_monomial(v + delta, n)
            want = _rewrite_monomial(mono, lm, tm)
            assert (got, got.key, hash(got)) == (want, want.key, hash(want))


def test_certificate_division_stops_at_the_step_bound():
    # the rule table refuses a rule that does not lower phi, so only an
    # entry built past it can reach the bound: delta 0 rewrites v to itself
    rules = ideal._RuleVectors(3)
    lead, _, *rest = rules[F(1)]
    with _within_a_second(), pytest.raises(ReductionLimitError, match="^no normal form within 2 reduction steps"):
        ideal._divide({lead: 1}, (lead, 0, *rest), rules)


def test_certificate_division_refuses_a_step_past_a_field():
    rules = ideal._RuleVectors(3)
    lead, delta, *rest = rules[F(1)]
    y = 1 << rules.w_bits
    v = lead + 100 * y  # y^100*x*w1
    message = "the step by F1 from x*y^100*w1 takes an exponent past 127"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ideal._divide({v: 1}, (lead, delta + 40 * y, *rest), rules)


def test_certificate_division_matches_reduce_by_single():
    # seeded homogeneous dicts, the only kind phases (ii)-(iii) hold,
    # divided by one generator against reduce_by_single
    n = 6
    rules = ideal._RuleVectors(n)
    rng = random.Random(3211)
    gids = [F(j) for j in range(n + 1)] + [G(k, l) for k in range(n - 1) for l in range(k + 1, n)]

    def monomial(degree):
        e = Counter(rng.choices(range(n + 4), k=degree))
        return Monomial.build(z=e[0], x=e[1], y=e[2], w={i: e[i + 3] for i in range(n + 1)})

    def as_polynomial(terms):
        return Polynomial.from_terms((c, ideal._vector_monomial(v, n)) for v, c in terms.items())

    divided = 0
    for _ in range(300):
        gid = rng.choice(gids)
        lead = ideal._rewrite_rule(gid)[0]
        extra = rng.randint(0, 2)
        p = Polynomial.from_terms(
            (
                rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 4))]),
                lead * monomial(extra) if rng.random() < 0.6 else monomial(lead.degree + extra),
            )
            for _ in range(rng.randint(1, 6))
        )
        work = {ideal._vector(t.monomial, None, n): t.coefficient for t in p.terms}
        quotient = ideal._divide(work, rules[gid], rules)
        assert (as_polynomial(quotient), as_polynomial(work)) == reduce_by_single(p, gid), (p, gid)
        divided += bool(quotient)
    assert divided > 150
