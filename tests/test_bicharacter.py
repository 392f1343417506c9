"""Bicharacter evaluation, transforms, Cartan data, reflections, heights."""

import gc
import random

import pytest

from weyldouble.bicharacter import (CAP, FINITE, INFINITE, Bicharacter,
                                    NotPFiniteError, basis_vector,
                                    mat_identity, mat_mul_int)
from weyldouble.scalar import ScalarContext
from weyldouble.serialize import bicharacter_from_json, bicharacter_to_json


@pytest.fixture(scope="module")
def ctx():
    return ScalarContext.parameters("q", "r")


@pytest.fixture(scope="module")
def chi(ctx):
    q, r = ctx.generator("q"), ctx.generator("r")
    return Bicharacter(ctx, [[q ** 2, r], [q ** -2 * r ** -1, q ** 2]])


def test_eval_biadditive(chi, ctx):
    rng = random.Random(3)
    assert chi.value((0, 0), (5, -2)).is_one()
    assert chi.value((1, 0), (0, 1)) == chi.entries[0][1]
    assert chi.value((1, 1), (1, 0)) == chi.entries[0][0] * chi.entries[1][0]
    for _ in range(20):
        a, b, c = (tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3))
        ab = tuple(x + y for x, y in zip(a, b))
        assert chi.value(ab, c) == chi.value(a, c) * chi.value(b, c)
        assert chi.value(c, ab) == chi.value(c, a) * chi.value(c, b)


def test_derived_bicharacters_are_interned():
    ctx = ScalarContext.parameters("q", "r")
    q, r = ctx.generator("q"), ctx.generator("r")
    entries = [[q ** 2, r], [q ** -2 * r ** -1, q ** 2]]
    chi = Bicharacter(ctx, entries)
    assert Bicharacter.interned(ctx, entries) is chi
    assert chi.op().op() is chi
    assert chi.inverse().inverse() is chi
    for p in range(chi.rank):
        s, image = chi.reflect(p)
        assert image.reflect(p) == (s, chi) and image.reflect(p)[1] is chi
        assert chi.pullback(s) is image
    # the public constructor on a known key builds a separate instance
    # but leaves the registered one in place
    twin = Bicharacter(ctx, entries)
    assert twin == chi and twin is not chi
    assert Bicharacter.interned(ctx, entries) is chi
    assert twin.op().op() is chi


def test_interning_table_holds_weak_references():
    ctx = ScalarContext.parameters("q")
    q = ctx.generator("q")
    chi = Bicharacter(ctx, [[q ** 2, q ** -1], [q ** -1, q ** 2]])
    chi.reflect(0)
    chi.inverse()
    assert len(ctx.bicharacters) == 2
    del chi
    gc.collect()
    assert len(ctx.bicharacters) == 0


def test_transforms(chi):
    assert chi.op().op() is chi.op().op()  # cached instance
    assert chi.op().op().key == chi.key
    assert chi.inverse().inverse().key == chi.key
    assert chi.pullback(mat_identity(2)).key == chi.key
    w1 = ((0, 1), (1, 0))
    w2 = ((1, 1), (0, 1))
    lhs = chi.pullback(mat_mul_int(w1, w2))
    rhs = chi.pullback(w2).pullback(w1)
    assert lhs.key == rhs.key  # (w w')^* chi = w^*(w'^* chi)


def test_cartan_matrix_examples(ctx, chi):
    assert chi.cartan_matrix() == ((2, -1), (-1, 2))
    q = ctx.generator("q")
    rank1 = Bicharacter(ctx, [[q]])
    assert rank1.cartan_matrix() == ((2,),)
    minus = ctx.integer(-1)
    mixed = Bicharacter(ctx, [[minus, minus], [ctx.one, minus]])
    # m = 0 fails since q_12 q_21 = -1 != 1; m = 1 gives [2]_{-1} = 0
    assert mixed.cartan_entry(0, 1) == -1


def test_p_finiteness_tristate(ctx):
    q = ctx.generator("q")
    one = ctx.one
    # proven infinite: q_pp = q is not a root of unity and q^m * q = 1 has
    # no solution with m >= 0
    inf = Bicharacter(ctx, [[q, q], [one, q]])
    assert inf.p_probe(0, 1).status == INFINITE
    with pytest.raises(NotPFiniteError):
        inf.cartan_entry(0, 1)
    # monomial solve beyond the scan cap
    far = Bicharacter(ctx, [[q, q ** -70], [one, q]])
    probe = far.p_probe(0, 1, cap=8)
    assert probe.status == FINITE and probe.m == 70
    # undecided: non-monomial q_pp
    hard = Bicharacter(ctx, [[q + one, q], [one, q]])
    assert hard.p_probe(0, 1, cap=8).status == CAP


def test_reflection_round_trip(chi):
    for p in range(2):
        s, image = chi.reflect(p)
        s2, back = image.reflect(p)
        assert s2 == s
        assert back.key == chi.key
        for j in range(2):
            assert image.cartan_entry(p, j) == chi.cartan_entry(p, j)


def test_reflection_closed_form(chi):
    # entries of r_p(chi) against the direct formulas
    for p in range(2):
        _, image = chi.reflect(p)
        q = chi.entries
        for i in range(2):
            for j in range(2):
                cpi = chi.cartan_entry(p, i)
                cpj = chi.cartan_entry(p, j)
                if i == p and j == p:
                    want = q[p][p]
                elif i == p:
                    want = q[p][j].inverse() * q[p][p] ** cpj
                elif j == p:
                    want = q[i][p].inverse() * q[p][p] ** cpi
                else:
                    want = (q[i][j] * q[i][p] ** -cpj * q[p][j] ** -cpi
                            * q[p][p] ** (cpi * cpj))
                assert image.entries[i][j] == want, (p, i, j)


def test_symmetric_cartan_type_is_fixed(ctx):
    q = ctx.generator("q")
    sym = Bicharacter(ctx, [[q ** 2, q ** -1], [q ** -1, q ** 2]])
    for p in range(2):
        _, image = sym.reflect(p)
        assert image.key == sym.key


def test_lambda_factor_symmetries(chi):
    one = chi.ctx.one
    for p in range(2):
        i = 1 - p
        c = chi.cartan_entry(p, i)
        if c == 0:
            assert chi.lambda_factor(p, i).is_one()
            continue
        qpp = chi.entries[p][p]
        t = chi.entries[p][i] * chi.entries[i][p]
        _, image = chi.reflect(p)
        assert image.lambda_factor(p, i) == \
            (qpp ** -c * t) ** c * chi.lambda_factor(p, i)
        assert chi.inverse().lambda_factor(p, i) == \
            (-(qpp ** (-c - 1) * t)) ** c * chi.lambda_factor(p, i)
    with pytest.raises(ValueError):
        chi.lambda_factor(0, 0)


def test_lambda_trivial_when_entry_zero():
    ctx = ScalarContext.parameters("q")
    q = ctx.generator("q")
    disconnected = Bicharacter(ctx, [[q, ctx.one], [ctx.one, q]])
    assert disconnected.cartan_entry(0, 1) == 0
    assert disconnected.lambda_factor(0, 1).is_one()


def test_heights(chi, ctx):
    assert chi.height((0, 0)) is None          # chi(0,0) = 1
    minus = ctx.integer(-1)
    sup = Bicharacter(ctx, [[minus, ctx.one], [ctx.one, minus]])
    assert sup.height(basis_vector(2, 0)) == 2
    cyc = ScalarContext.cyclotomic(6)
    z = cyc.root_of_unity()
    zb = Bicharacter(cyc, [[z]])
    assert zb.height((1,)) == 6
    assert zb.height((2,)) == 3   # chi(2a, 2a) = z^4 has order 3
    assert zb.height((6,)) is None  # z^36 = 1


def test_height_reflection_invariance(chi):
    rng = random.Random(5)
    for p in range(2):
        s, image = chi.reflect(p)
        for _ in range(10):
            mu = tuple(rng.randint(-2, 2) for _ in range(2))
            s_mu = tuple(sum(s[a][b] * mu[b] for b in range(2)) for a in range(2))
            assert image.height(s_mu) == chi.height(mu)


def test_cartan_invariant_under_op_inverse(chi):
    assert chi.op().cartan_matrix() == chi.cartan_matrix()
    assert chi.inverse().cartan_matrix() == chi.cartan_matrix()


def test_json_round_trip(chi):
    data = bicharacter_to_json(chi)
    rebuilt = bicharacter_from_json(data)
    assert rebuilt.key == chi.key
    assert bicharacter_to_json(rebuilt) == data


def test_rejects_zero_entries(ctx):
    with pytest.raises(ValueError):
        Bicharacter(ctx, [[ctx.zero]])


def test_p_finiteness_rational_base(ctx):
    # q_pp = 2: never a vanishing q-integer, but 2^m = 8 solves the
    # second branch at m = 3
    two = ctx.integer(2)
    eighth = ctx.rational("1/8")
    chi = Bicharacter(ctx, [[two, eighth], [ctx.one, two]])
    probe = chi.p_probe(0, 1, cap=1)
    assert probe.status == FINITE and probe.m == 3
    never = Bicharacter(ctx, [[two, ctx.integer(3)], [ctx.one, two]])
    assert never.p_probe(0, 1, cap=5).status == INFINITE
