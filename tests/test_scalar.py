"""Exact scalar arithmetic and q-combinatorics."""

import random
from fractions import Fraction

import pytest

from weyldouble.scalar import (ParseError, ScalarContext, parse_scalar,
                               q_binomial, q_factorial, q_int)


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
