"""Correctness references that do not use the package under test.

Monomials are plain tuples ``(z, x, y, w)`` with ``w`` a tuple of
``(index, exponent)`` pairs, ascending and free of zero exponents; a
polynomial is a dict from such tuples to ``Fraction``.  Outputs of the
package are read back through their canonical text rendering with the
small parser below, so a change of the package's internal representation
does not change what is checked.

The reference normal form uses the closed form of the binomial ideal:
every monomial ``m`` is congruent to ``rho(m) * std(m)`` with

  * each pair ``z^2`` turned into ``x*w0``;
  * each x lowering the w-mass (sum of w-indices) by one and becoming a y,
    for ``min(#x, mass)`` steps;
  * with a y present, the w-part replaced by the window ``{a, a+1}`` of the
    same size and mass;
  * ``rho = Wfact(std(m)) / Wfact(m)``, ``Wfact = prod(index!^exp)``,

because every generator rewrites ``lead -> scalar * tail`` with ``scalar``
exactly the ratio of the two ``Wfact`` values.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import comb, factorial

# ---------------------------------------------------------------------------
# monomials and polynomials as tuples
# ---------------------------------------------------------------------------


def mono(z=0, x=0, y=0, w=None):
    return (z, x, y, tuple(sorted((i, e) for i, e in (w or {}).items() if e)))


def mono_mul(a, b):
    w = dict(a[3])
    for i, e in b[3]:
        w[i] = w.get(i, 0) + e
    return mono(a[0] + b[0], a[1] + b[1], a[2] + b[2], w)


def poly_add(*polys):
    out: dict = {}
    for p in polys:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def poly_mul(p, q):
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def l1(p) -> Fraction:
    return sum((abs(c) for c in p.values()), Fraction(0))


def _mono_text(m) -> str:
    parts = []
    for name, e in zip("zxy", m[:3]):
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    parts += [f"w{i}" if e == 1 else f"w{i}^{e}" for i, e in m[3]]
    return "*".join(parts) or "1"


def render(p) -> str:
    """Text in the package's input grammar; term order is irrelevant there."""
    if not p:
        return "0"
    out = []
    for m, c in p.items():
        mag = abs(c)
        coeff = str(mag.numerator) if mag.denominator == 1 else f"({mag})"
        out.append(("- " if c < 0 else "+ ") + f"{coeff}*{_mono_text(m)}")
    return " ".join(out)


def parse_output(text: str):
    """Read the package's canonical rendering ``c*m + c*m - ...`` back."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    if tokens[0].startswith("-"):
        tokens = ["-", tokens[0][1:]] + tokens[1:]
    else:
        tokens = ["+"] + tokens
    if len(tokens) % 2:
        raise ValueError(f"malformed rendering {text!r}")
    out = {}
    for sign, body in zip(tokens[::2], tokens[1::2]):
        if sign not in "+-":
            raise ValueError(f"malformed rendering {text!r}")
        coeff = Fraction(1)
        z = x = y = 0
        w: dict = {}
        for factor in body.split("*"):
            if factor.startswith("("):
                coeff *= Fraction(factor.strip("()"))
                continue
            if factor[0].isdigit():
                coeff *= int(factor)
                continue
            name, _, exp = factor.partition("^")
            e = int(exp) if exp else 1
            if name == "z":
                z += e
            elif name == "x":
                x += e
            elif name == "y":
                y += e
            elif name[0] == "w":
                w[int(name[1:])] = w.get(int(name[1:]), 0) + e
            else:
                raise ValueError(f"unknown factor {factor!r} in {text!r}")
        m = mono(z, x, y, w)
        if m in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[m] = -coeff if sign == "-" else coeff
    return out


# ---------------------------------------------------------------------------
# the ideal, from its definition
# ---------------------------------------------------------------------------


def generator_F(j):
    if j == 0:
        return {mono(x=1, w={0: 1}): Fraction(1), mono(z=2): Fraction(-1)}
    return {mono(y=1, w={j - 1: 1}): Fraction(1), mono(x=1, w={j: 1}): Fraction(-j)}


def generator_G(k, l):
    second: dict = {}
    for i in (l, k + 1):
        second[i] = second.get(i, 0) + 1
    return {
        mono(y=1, w={k: 1, l + 1: 1}): Fraction(l + 1),
        mono(y=1, w=second): Fraction(-(k + 1)),
    }


def is_standard(m) -> bool:
    """Divisible by none of z^2, x*w_{k+1}, y*w_k*w_{l+1} (k < l)."""
    z, x, y, w = m
    idx = [i for i, _ in w]
    if z >= 2:
        return False
    if x and any(i >= 1 for i in idx):
        return False
    if y and idx and idx[-1] - idx[0] > 1:
        return False
    return True


def _wfact(w) -> int:
    out = 1
    for i, e in w:
        out *= factorial(i) ** e
    return out


def window(size: int, mass: int):
    a, hi = divmod(mass, size)
    return tuple((i, e) for i, e in ((a, size - hi), (a + 1, hi)) if e)


def std_monomial(m):
    """(rho, std) with m congruent to rho * std modulo the ideal."""
    z, x, y, w = m
    pairs, z = divmod(z, 2)
    wd = dict(w)
    if pairs:
        wd[0] = wd.get(0, 0) + pairs
        x += pairs
    size = sum(wd.values())
    mass = sum(i * e for i, e in wd.items())
    steps = min(x, mass)
    x, y, mass = x - steps, y + steps, mass - steps
    out_w = window(size, mass) if y and size else tuple(sorted(wd.items()))
    return Fraction(_wfact(out_w), _wfact(w)), (z, x, y, out_w)


def nf_ref(p):
    out: dict = {}
    for m, c in p.items():
        rho, s = std_monomial(m)
        out[s] = out.get(s, 0) + c * rho
    return {m: c for m, c in out.items() if c}


def nf_check(inp):
    """Check on the rendered normal form of ``inp``: standard support, l1 not
    above the input's, and equality with the closed form."""
    ref = nf_ref(inp)
    bound = l1(inp)

    def check(text: str) -> bool:
        out = parse_output(text)
        return (
            all(is_standard(m) for m in out) and l1(out) <= bound and out == ref
        )

    return check


# ---------------------------------------------------------------------------
# certificate, series and disc references
# ---------------------------------------------------------------------------


def identity_counts(n: int) -> tuple[int, int, int, int]:
    """Identities in phases (i)..(iv) of the certificate at max index n."""
    pairs = comb(n, 2)           # (k, l) with 0 <= k < l <= n-1
    pairs_k1 = comb(n - 1, 2)    # the same with k >= 1
    phase_iv = pairs + (pairs + pairs_k1) + comb(pairs, 2)  # FxF, GxF, GxG
    return pairs, pairs, pairs_k1, phase_iv


# identity counts as stated for the certificate; the formula must agree
PINNED_IDENTITIES = {4: 45, 10: 1242, 15: 6062, 20: 19057, 25: 46602}


def series_coefficient(k: int):
    """k! * w_k, the solution coefficient of (x - y*t) f = z^2."""
    return {mono(w={k: 1}): Fraction(factorial(k))}


def divergence_index(bound: Fraction, order: int):
    """Least k in 1..order with k! >= bound^k, else None."""
    for k in range(1, order + 1):
        if factorial(k) >= bound**k:
            return k
    return None


def disc_order_ok(family: int, c: int, order) -> bool:
    """Residual t-order at least c + 1 (family 1) or c (family 2)."""
    return order is not None and order >= (c + 1 if family == 1 else c)


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()
