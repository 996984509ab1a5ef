"""Shared corpus generators for the seeded randomized checks.

The acceptance criteria fix the corpus shape: total degree <= 6, w-index
<= 10, at most 8 terms, coefficients in [-9, 9] with denominators <= 4.
Everything is driven by an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction

import pytest

import banachalg
import banachalg.ideal as ideal
from banachalg.ideal import F, is_standard_monomial
from banachalg.poly import Monomial, Polynomial

VARIABLES = ["z", "x", "y"] + [f"w{i}" for i in range(11)]


def random_coefficient(rng: random.Random) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 4))


def random_monomial(rng: random.Random, max_degree: int = 6, max_windex: int = 10) -> Monomial:
    degree = rng.randint(0, max_degree)
    z = x = y = 0
    w: dict[int, int] = {}
    for _ in range(degree):
        v = rng.choice(VARIABLES[: 3 + max_windex + 1])
        if v == "z":
            z += 1
        elif v == "x":
            x += 1
        elif v == "y":
            y += 1
        else:
            i = int(v[1:])
            w[i] = w.get(i, 0) + 1
    return Monomial.build(z=z, x=x, y=y, w=w)


def random_polynomial(
    rng: random.Random,
    max_terms: int = 8,
    max_degree: int = 6,
    max_windex: int = 10,
) -> Polynomial:
    n = rng.randint(1, max_terms)
    return Polynomial.from_terms(
        (random_coefficient(rng), random_monomial(rng, max_degree, max_windex))
        for _ in range(n)
    )


def random_standard_monomial(
    rng: random.Random, max_degree: int = 6, max_windex: int = 10
) -> Monomial:
    while True:
        m = random_monomial(rng, max_degree, max_windex)
        if is_standard_monomial(m):
            return m


def random_standard_polynomial(
    rng: random.Random,
    max_terms: int = 8,
    max_degree: int = 6,
    max_windex: int = 10,
) -> Polynomial:
    n = rng.randint(1, max_terms)
    return Polynomial.from_terms(
        (random_coefficient(rng), random_standard_monomial(rng, max_degree, max_windex))
        for _ in range(n)
    )


def monomial_box(max_degree: int, max_windex: int) -> list[Monomial]:
    """Every monomial of total degree <= max_degree in z, x, y and
    w0 .. w_{max_windex}."""
    nvars = 3 + max_windex + 1
    out = []
    for degree in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), degree):
            e = [combo.count(v) for v in range(nvars)]
            w = {i: e[3 + i] for i in range(max_windex + 1)}
            out.append(Monomial.build(z=e[0], x=e[1], y=e[2], w=w))
    return out


def nonzero_random_polynomial(rng: random.Random, **kw) -> Polynomial:
    while True:
        p = random_polynomial(rng, **kw)
        if not p.is_zero():
            return p


def nonzero_random_standard_polynomial(rng: random.Random, **kw) -> Polynomial:
    while True:
        p = random_standard_polynomial(rng, **kw)
        if not p.is_zero():
            return p


@pytest.fixture
def broken_f0(monkeypatch):
    """A faulty F0 rule whose tail equals its lead: rewriting z^2 gives z^2
    back with the same coefficient, so reduction never ends by itself."""
    rule = ideal._rewrite_rule

    def broken(gid):
        lm, lc, tm, tc = rule(gid)
        return (lm, lc, lm, tc) if gid == F(0) else (lm, lc, tm, tc)

    monkeypatch.setattr("banachalg.ideal._rewrite_rule", broken)


def subprocess_env() -> dict:
    """The environment for a child interpreter that imports this checkout's
    banachalg."""
    src = os.path.dirname(os.path.dirname(banachalg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
