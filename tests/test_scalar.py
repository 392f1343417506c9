"""Exact scalar arithmetic and q-combinatorics."""

import random
from fractions import Fraction
from math import gcd

import pytest

from weyldouble.polys import p_add, p_mul
from weyldouble.scalar import (ParseError, Scalar, ScalarContext, _normalize,
                               parse_scalar, q_binomial, q_factorial, q_int)


def quantum_plane_binomial(m, n, q):
    """Independent oracle: expand (u+v)^m in the algebra vu = q uv and
    collect the coefficient of u^n v^(m-n).

    Each of the 2^m words contributes q^(number of vu-inversions).
    """
    ctx = q.ctx
    total = ctx.zero
    for mask in range(2 ** m):
        positions = [(mask >> t) & 1 for t in range(m)]  # 0 = u, 1 = v
        if positions.count(0) != n:
            continue
        inversions = 0
        seen_v = 0
        for letter in positions:
            if letter == 1:
                seen_v += 1
            else:
                inversions += seen_v
        total = total + q ** inversions
    return total


@pytest.fixture(scope="module")
def param_ctx():
    return ScalarContext.parameters("q", "r")


def scalar_test_set(ctx):
    """Generic q, -1, and primitive roots of unity zeta_3..zeta_12 realized
    in their own cyclotomic sessions."""
    values = [("generic", ctx.generator("q")), ("-1", ctx.integer(-1))]
    for order in (3, 4, 5, 12):
        cyc = ScalarContext.cyclotomic(order)
        values.append((f"zeta{order}", cyc.root_of_unity()))
    return values


def test_q_int_defining_values(param_ctx):
    q = param_ctx.generator("q")
    assert q_int(0, q).is_zero()
    assert q_int(1, q).is_one()
    assert q_int(3, param_ctx.one) == param_ctx.integer(3)
    assert q_int(-2, q) == -(param_ctx.one + q)
    with pytest.raises(ValueError):
        q_int(2, param_ctx.zero)


def test_q_factorial_values(param_ctx):
    q = param_ctx.generator("q")
    assert q_factorial(0, q).is_one()
    assert q_factorial(2, param_ctx.integer(-1)).is_zero()
    expected = (param_ctx.one + q) * (param_ctx.one + q + q * q)
    assert q_factorial(3, q) == expected


def test_q_binomial_against_quantum_plane(param_ctx):
    q = param_ctx.generator("q")
    for m in range(0, 7):
        for n in range(-1, m + 2):
            assert q_binomial(m, n, q) == quantum_plane_binomial(m, n, q) \
                if 0 <= n <= m else q_binomial(m, n, q).is_zero()


def test_q_binomial_memo_independent_of_call_order():
    # the Pascal rows are memoized per context: asking for a high row first,
    # then lower ones, then a higher one again must agree with the oracle
    for q in (ScalarContext.parameters("q").generator("q"),
              ScalarContext.cyclotomic(5).root_of_unity()):
        for m in (6, 2, 0, 4, 7):
            for n in range(0, m + 1):
                assert q_binomial(m, n, q) == quantum_plane_binomial(m, n, q), (m, n)
        assert len(q.ctx.q_binomial_rows[q.payload]) == 8


def test_q_binomial_edge_rows(param_ctx):
    q = param_ctx.generator("q")
    for m in range(0, 9):
        assert q_binomial(m, 0, q).is_one()
        assert q_binomial(m, m, q).is_one()
        if m >= 1:
            assert q_binomial(m, 1, q) == q_int(m, q)
            assert q_binomial(m, m - 1, q) == q_int(m, q)


def test_q_binomial_fourth_root_vanishing():
    # frozen from the quantum-plane oracle: C(4,2) at zeta_4 is zero
    ctx = ScalarContext.cyclotomic(4)
    z = ctx.root_of_unity()
    assert quantum_plane_binomial(4, 2, z).is_zero()
    assert q_binomial(4, 2, z).is_zero()
    assert q_int(4, z).is_zero() and not q_factorial(3, z).is_zero()


def test_pascal_identities_both_forms(param_ctx):
    for _, q in scalar_test_set(param_ctx):
        ctx = q.ctx
        for m in range(0, 8):
            for n in range(0, m + 2):
                lhs = q_binomial(m, n - 1, q) + q ** n * q_binomial(m, n, q)
                mid = (q ** (m - n + 1) * q_binomial(m, n - 1, q)
                       + q_binomial(m, n, q))
                rhs = q_binomial(m + 1, n, q)
                assert lhs == rhs and mid == rhs, (m, n)


def test_q_binomial_contiguous_relation(param_ctx):
    # [n+1] C(m, n+1) = [m-n] C(m, n)
    for _, q in scalar_test_set(param_ctx):
        for m in range(0, 9):
            for n in range(0, m):
                lhs = q_int(n + 1, q) * q_binomial(m, n + 1, q)
                rhs = q_int(m - n, q) * q_binomial(m, n, q)
                assert lhs == rhs, (m, n)


def test_vanishing_row_at_roots_of_unity():
    # whenever [m]_q = 0 and [m-1]!_q != 0, the whole inner row vanishes
    for m in range(2, 13):
        ctx = ScalarContext.cyclotomic(m)
        z = ctx.root_of_unity()
        assert q_int(m, z).is_zero()
        assert not q_factorial(m - 1, z).is_zero()
        for n in range(1, m):
            assert q_binomial(m, n, z).is_zero(), (m, n)


def random_scalar(ctx, rng):
    if ctx.backend == "cyclotomic":
        coeffs = [rng.randint(-3, 3) for _ in range(ctx.degree)]
        out = ctx.zero
        z = ctx.root_of_unity()
        for k, c in enumerate(coeffs):
            out = out + ctx.integer(c) * z ** k
        return out
    out = ctx.zero
    for _ in range(rng.randint(1, 3)):
        exps = [rng.randint(-2, 2) for _ in ctx.names]
        out = out + ctx.monomial(Fraction(rng.randint(-4, 4)), exps)
    return out


@pytest.mark.parametrize("make_ctx", [
    lambda: ScalarContext.parameters("q", "r"),
    lambda: ScalarContext.cyclotomic(5),
])
def test_field_axioms_randomized(make_ctx):
    ctx = make_ctx()
    rng = random.Random(0)
    for _ in range(40):
        a, b, c = (random_scalar(ctx, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if not a.is_zero():
            assert (a * a.inverse()).is_one()
            assert (a ** -2) * a * a == ctx.one


def test_canonical_form_idempotence(param_ctx):
    q, r = param_ctx.generator("q"), param_ctx.generator("r")
    a = (q ** 2 - param_ctx.one) / (q - param_ctx.one)
    b = q + param_ctx.one
    assert a.payload == b.payload and hash(a) == hash(b)
    c = (q * r - r) / (r * (q + param_ctx.one))
    d = (q - param_ctx.one) / (q + param_ctx.one)
    assert c == d


def test_parser_literals(param_ctx):
    q, r = param_ctx.generator("q"), param_ctx.generator("r")
    assert parse_scalar(param_ctx, "-1") == param_ctx.integer(-1)
    assert parse_scalar(param_ctx, "3/2") == param_ctx.rational(Fraction(3, 2))
    assert parse_scalar(param_ctx, "q^-2") == q ** -2
    assert parse_scalar(param_ctx, "q*r^3") == q * r ** 3
    assert parse_scalar(param_ctx, "(q + 1)*(q - 1)") == q * q - param_ctx.one
    cyc = ScalarContext.cyclotomic(4)
    assert parse_scalar(cyc, "z^2") == cyc.integer(-1)
    assert parse_scalar(cyc, "z^-1") == cyc.root_of_unity(3)


def test_parser_round_trip(param_ctx):
    q, r = param_ctx.generator("q"), param_ctx.generator("r")
    samples = [q ** -2 * r + param_ctx.rational(Fraction(1, 3)),
               (q + r) / (q - r), param_ctx.zero, -q,
               (q ** 2 - param_ctx.one) * r ** -5]
    for x in samples:
        assert parse_scalar(param_ctx, str(x)) == x
    cyc = ScalarContext.cyclotomic(12)
    z = cyc.root_of_unity()
    for x in [z ** 7 - cyc.integer(2), (cyc.one + z).inverse(), cyc.zero]:
        assert parse_scalar(cyc, str(x)) == x


def test_parser_rejects_with_position(param_ctx):
    for text, bad_pos in [("q^^2", 2), ("q *", 3), ("(q", 2), ("s + 1", 0)]:
        with pytest.raises(ParseError) as err:
            parse_scalar(param_ctx, text)
        assert err.value.pos == bad_pos, text


def test_multiplicative_order():
    ctx = ScalarContext.cyclotomic(12)
    z = ctx.root_of_unity()
    assert z.multiplicative_order() == 12
    assert (z ** 4).multiplicative_order() == 3
    assert (-ctx.one).multiplicative_order() == 2
    assert ctx.integer(2).multiplicative_order() is None
    assert (ctx.one + z).multiplicative_order() is None
    param = ScalarContext.parameters("q")
    assert param.generator("q").multiplicative_order() is None
    assert param.integer(-1).multiplicative_order() == 2


# differential tests of the arithmetic kernels ------------------------------------

def _random_poly(ctx, rng, terms, max_exp=2):
    poly = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in ctx.names)
        poly[exps] = poly.get(exps, 0) + rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    return {e: c for e, c in poly.items() if c}


def _random_operand(ctx, rng):
    """A canonical scalar built by _normalize itself: zero, a Laurent
    polynomial (single-term denominator, any sign and content), or a
    fraction with a polynomial denominator."""
    kind = rng.choice(["zero", "laurent", "laurent", "laurent", "general"])
    if kind == "zero":
        return ctx.zero
    num = _random_poly(ctx, rng, rng.randint(1, 3))
    if not num:
        return ctx.zero
    if kind == "laurent":
        den = {tuple(rng.randint(0, 3) for _ in ctx.names): rng.choice([-6, -2, 1, 2, 3, 4])}
    else:
        den = _random_poly(ctx, rng, rng.randint(2, 3))
        if len(den) < 2:
            den = {(1,) + (0,) * (len(ctx.names) - 1): 1, (0,) * len(ctx.names): -1}
    return Scalar(ctx, _normalize(num, den))


def _reference(ctx, num, den):
    return Scalar(ctx, _normalize(num, den))


@pytest.mark.parametrize("names", [("q",), ("q", "r")])
def test_parameter_kernels_match_normalize(names):
    # every result must be the payload (and hash) of the plain _normalize
    # route on the unreduced numerator and denominator
    ctx = ScalarContext.parameters(*names)
    rng = random.Random(f"kernels:{names}")
    laurent_pairs = 0
    for _ in range(200):
        a, b = _random_operand(ctx, rng), _random_operand(ctx, rng)
        for x, y in ((a, b), (b, a)):
            n1, d1 = dict(x.payload[0]), dict(x.payload[1])
            n2, d2 = dict(y.payload[0]), dict(y.payload[1])
            laurent_pairs += len(d1) == 1 and len(d2) == 1
            want_mul = _reference(ctx, p_mul(n1, n2), p_mul(d1, d2))
            want_add = _reference(ctx, p_add(p_mul(n1, d2), p_mul(n2, d1)), p_mul(d1, d2))
            for got, want in ((x * y, want_mul), (x + y, want_add)):
                assert got.payload == want.payload, (x, y)
                assert hash(got) == hash(want)
        if not a.is_zero():
            want = _reference(ctx, dict(a.payload[1]), dict(a.payload[0]))
            assert a.inverse().payload == want.payload, a
            power = ctx.one
            for k in range(1, 3):
                power = _reference(ctx, p_mul(dict(power.payload[0]), dict(a.payload[0])),
                                   p_mul(dict(power.payload[1]), dict(a.payload[1])))
                assert (a ** k).payload == power.payload, (a, k)
                assert (a ** -k).payload == power.inverse().payload, (a, k)
    assert laurent_pairs > 150


def test_laurent_content_is_reduced():
    ctx = ScalarContext.parameters("q")
    q = ctx.generator("q")
    half = ctx.rational(Fraction(1, 2))
    # q * (1/2): the denominator keeps its content 2, coprime to q
    assert (q * half).payload == ((((1,), 1),), (((0,), 2),))
    assert (ctx.integer(2) * half).payload == ctx.one.payload
    assert (ctx.integer(6) * q / (ctx.integer(4) * q ** 3)).payload == \
        ((((0,), 3),), (((2,), 2),))
    assert (half * q + half * q).payload == q.payload
    assert (q / ctx.integer(-3)).payload == ((((1,), -1),), (((0,), 3),))


# Phi_N, constant term first, written out independently of the program
PHI = {3: [1, 1, 1], 4: [1, 0, 1], 5: [1, 1, 1, 1, 1], 8: [1, 0, 0, 0, 1],
       12: [1, 0, -1, 0, 1]}


def _ref_reduce(coeffs, n):
    phi = PHI[n]
    deg = len(phi) - 1
    coeffs = [Fraction(c) for c in coeffs] + [Fraction(0)] * deg
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        for i, p in enumerate(phi):
            coeffs[k - deg + i] -= c * p
    return coeffs[:deg]


def _ref_mul(a, b, n):
    conv = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _ref_reduce(conv, n)


def _ref_str(coeffs):
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            mono = "" if k == 0 else "z" if k == 1 else f"z^{k}"
            if not mono:
                body = str(abs(c))
            else:
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in parts[1:])


def _as_fractions(x):
    coeffs, den = x.payload
    assert den > 0 and gcd(den, *coeffs) == 1, x.payload
    return [Fraction(c, den) for c in coeffs]


def _from_fractions(ctx, coeffs):
    z = ctx.root_of_unity()
    out = ctx.zero
    for k, c in enumerate(coeffs):
        out = out + ctx.rational(c) * z ** k
    return out


@pytest.mark.parametrize("order", sorted(PHI))
def test_cyclotomic_kernels_match_fraction_reference(order):
    ctx = ScalarContext.cyclotomic(order)
    deg = len(PHI[order]) - 1
    one = [Fraction(1)] + [Fraction(0)] * (deg - 1)
    rng = random.Random(f"cyclotomic:{order}")
    for _ in range(60):
        ra, rb = ([Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 6]))
                   for _ in range(deg)] for _ in range(2))
        if rng.random() < 0.1:
            ra = [Fraction(0)] * deg
        a, b = _from_fractions(ctx, ra), _from_fractions(ctx, rb)
        assert _as_fractions(a) == ra and _as_fractions(b) == rb
        assert str(a) == _ref_str(ra)
        assert _as_fractions(a * b) == _ref_mul(ra, rb, order)
        assert _as_fractions(a + b) == [x + y for x, y in zip(ra, rb)]
        assert _as_fractions(a - b) == [x - y for x, y in zip(ra, rb)]
        power = one
        for k in range(4):
            assert _as_fractions(a ** k) == power
            power = _ref_mul(power, ra, order)
        if any(ra):
            inv = _as_fractions(a.inverse())
            assert _ref_mul(ra, inv, order) == one
            assert _as_fractions(a ** -2) == _ref_mul(inv, inv, order)
            assert str(a.inverse()) == _ref_str(inv)
