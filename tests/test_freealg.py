"""Free-algebra arithmetic, skew-derivations, coproduct, Nichols machinery."""

import random
import sys
import threading

import pytest

from weyldouble.bicharacter import Bicharacter, basis_vector
from weyldouble.freealg import (E_SIDE, F_SIDE, FreeElement, SideMismatch,
                                act_k, act_l, braided_coproduct, der_k, der_l,
                                e_minus, e_minus_closed, e_plus, e_plus_closed,
                                f_minus, f_plus, nichols_dim, nichols_is_zero,
                                serre_element, uplus_subalgebra_membership,
                                word_degree, words_of_degree)
from weyldouble.groupoid import explore, real_roots
from weyldouble.linalg import rank
from weyldouble.scalar import ScalarContext, q_binomial, q_factorial, q_int


def tiny_derivation_counit(chi, u, w):
    """Independent oracle for the derivation pairing on words: peel the
    innermost derivation index directly from the definition."""
    if not u or not w:
        return chi.ctx.one if u == w else chi.ctx.zero
    total = chi.ctx.zero
    i = u[-1]
    for t, letter in enumerate(w):
        if letter == i:
            factor = chi.value(basis_vector(chi.rank, i),
                               word_degree(chi.rank, w[t + 1:]))
            total = total + factor * tiny_derivation_counit(
                chi, u[:-1], w[:t] + w[t + 1:])
    return total


def random_element(chi, rng, degree, nterms=3):
    words = words_of_degree(chi.rank, degree)
    picks = rng.sample(words, min(nterms, len(words)))
    return FreeElement.from_terms(
        chi, E_SIDE, [(w, chi.ctx.integer(rng.randint(1, 5))) for w in picks])


def test_product_and_unit(a2):
    e1, e2 = FreeElement.generator(a2, 0), FreeElement.generator(a2, 1)
    one = FreeElement.unit(a2)
    assert (e1 * e2).terms == {(0, 1): a2.ctx.one}
    assert one * e1 == e1 and e1 * one == e1
    assert ((e1 + e2) * e1).terms == {(0, 0): a2.ctx.one, (1, 0): a2.ctx.one}
    with pytest.raises(SideMismatch):
        e1 * FreeElement.generator(a2, 0, side=F_SIDE)


def test_group_action(a2):
    e2 = FreeElement.generator(a2, 1)
    assert act_k(basis_vector(2, 0), e2) == e2.scale(a2.entries[0][1])
    assert act_l(basis_vector(2, 0), e2) == e2.scale(a2.entries[1][0].inverse())
    assert act_k((0, 0), e2) == e2
    f2 = FreeElement.generator(a2, 1, side=F_SIDE)
    assert act_l(basis_vector(2, 0), f2) == f2.scale(a2.entries[1][0])


def test_derivation_base_cases(a2):
    e1, e2 = FreeElement.generator(a2, 0), FreeElement.generator(a2, 1)
    assert der_k(0, e1).counit().is_one() and der_k(0, e2).is_zero()
    assert der_l(0, e1).counit().is_one() and der_l(1, e1).is_zero()
    assert der_k(0, FreeElement.unit(a2)).is_zero()
    with pytest.raises(SideMismatch):
        der_k(0, FreeElement.generator(a2, 0, side=F_SIDE))


def test_derivation_power_formula(a2):
    qpp = a2.entries[0][0]
    power = FreeElement.unit(a2)
    e1 = FreeElement.generator(a2, 0)
    for m in range(1, 7):
        power = power * e1
        want = FreeElement(a2, E_SIDE, {(0,) * (m - 1): q_int(m, qpp)})
        assert der_k(0, power) == want
        assert der_l(0, power) == want
        assert der_k(1, power).is_zero() and der_l(1, power).is_zero()


def test_derivation_table_for_root_vectors(two_param):
    """All eight derivation formulas on E^+/E^- (m <= 4), on a bicharacter
    with chi != chi^op so twist factors are visible."""
    chi = two_param
    one = chi.ctx.one
    p, i = 0, 1
    qpp, qpi, qip = chi.entries[p][p], chi.entries[p][i], chi.entries[i][p]
    for m in range(0, 5):
        ep, em = e_plus(chi, p, i, m), e_minus(chi, p, i, m)
        assert der_k(p, ep).is_zero()
        assert der_l(p, em).is_zero()
        prod_plus = one
        for s in range(m):
            prod_plus = prod_plus * (one - qpp ** s * qpi * qip)
        want = FreeElement(chi, E_SIDE, {(p,) * m: prod_plus}
                           if not prod_plus.is_zero() else {})
        assert der_k(i, ep) == want
        prod_minus = one
        for s in range(m):
            prod_minus = prod_minus * (one - qpp ** -s * (qpi * qip).inverse())
        coeff = qpi ** m * prod_minus
        want = FreeElement(chi, E_SIDE, {(p,) * m: coeff}
                           if not coeff.is_zero() else {})
        assert der_l(i, em) == want
        if m >= 1:
            assert der_l(p, ep) == e_plus(chi, p, i, m - 1).scale(
                q_int(m, qpp) * (one - qpp ** (m - 1) * qpi * qip))
            # the q_pi prefactor here is forced by the commutator identity
            # [E, F_p] = derK(E) K_p - L_p derL(E) and the coproduct route
            assert der_k(p, em) == e_minus(chi, p, i, m - 1).scale(
                qpi * q_int(m, qpp) * (one - qpp ** (1 - m) * (qpi * qip).inverse()))
        else:
            assert der_l(i, ep).counit().is_one()
            assert der_k(i, em).counit().is_one()


def test_derivations_commute(two_param):
    rng = random.Random(11)
    for degree in [(2, 1), (2, 2), (3, 1)]:
        x = random_element(two_param, rng, degree)
        for a in range(2):
            for b in range(2):
                assert der_k(a, der_l(b, x)) == der_l(b, der_k(a, x))


def test_coproduct_of_powers(a2):
    qpp = a2.entries[0][0]
    for m in range(0, 6):
        x = FreeElement(a2, E_SIDE, {(0,) * m: a2.ctx.one})
        cop = braided_coproduct(x)
        assert set(cop) == {((0,) * r, (0,) * (m - r)) for r in range(m + 1)}
        for r in range(m + 1):
            assert cop[((0,) * r, (0,) * (m - r))] == q_binomial(m, r, qpp)


def test_coproduct_of_root_vectors(two_param):
    chi = two_param
    one = chi.ctx.one
    p, i = 0, 1
    qpp, qpi, qip = chi.entries[p][p], chi.entries[p][i], chi.entries[i][p]
    for m in range(0, 4):
        ep = e_plus(chi, p, i, m)
        cop = braided_coproduct(ep)
        expected = {(w, ()): c for w, c in ep.terms.items()}
        for r in range(m + 1):
            coeff = q_binomial(m, r, qpp)
            for s in range(1, r + 1):
                coeff = coeff * (one - qpp ** (m - s) * qpi * qip)
            if coeff.is_zero():
                continue
            for w, c in e_plus(chi, p, i, m - r).terms.items():
                key = ((p,) * r, w)
                acc = expected.get(key, chi.ctx.zero) + coeff * c
                if acc.is_zero():
                    expected.pop(key, None)
                else:
                    expected[key] = acc
        assert cop == expected, m
        em = e_minus(chi, p, i, m)
        cop = braided_coproduct(em)
        expected = {((), w): c for w, c in em.terms.items()}
        for r in range(m + 1):
            coeff = qpi ** r * q_binomial(m, r, qpp)
            for s in range(1, r + 1):
                coeff = coeff * (one - qpp ** (s - m) * (qpi * qip).inverse())
            if coeff.is_zero():
                continue
            for w, c in e_minus(chi, p, i, m - r).terms.items():
                key = (w, (p,) * r)
                acc = expected.get(key, chi.ctx.zero) + coeff * c
                if acc.is_zero():
                    expected.pop(key, None)
                else:
                    expected[key] = acc
        assert cop == expected, m


def test_derivation_from_coproduct(two_param):
    # der_k(a) equals the coproduct component with a single letter rightleg
    rng = random.Random(2)
    for degree in [(2, 1), (3, 2), (2, 2)]:
        x = random_element(two_param, rng, degree)
        for p in range(2):
            collected = {}
            for (a, b), c in braided_coproduct(x).items():
                if b == (p,):
                    acc = collected.get(a, two_param.ctx.zero) + c
                    collected[a] = acc
            collected = {w: c for w, c in collected.items() if not c.is_zero()}
            assert FreeElement(two_param, E_SIDE, collected) == der_k(p, x)


def test_closed_forms_match_recursion(entries):
    for name in ("A2", "B2", "G2", "A2-twoparam", "A2-super"):
        chi = entries[name]
        for p, i in ((0, 1), (1, 0)):
            for m in range(0, 7):
                assert e_plus(chi, p, i, m) == e_plus_closed(chi, p, i, m)
                assert e_minus(chi, p, i, m) == e_minus_closed(chi, p, i, m)


def test_f_side_transport_matches_recursion(a2):
    fp = FreeElement.generator(a2, 0, side=F_SIDE)
    for m in range(0, 4):
        direct = FreeElement.generator(a2, 1, side=F_SIDE)
        for _ in range(m):
            direct = fp * direct - act_l(basis_vector(2, 0), direct) * fp
        assert f_plus(a2, 0, 1, m) == direct
        direct = FreeElement.generator(a2, 1, side=F_SIDE)
        for _ in range(m):
            direct = fp * direct - act_k(basis_vector(2, 0), direct) * fp
        assert f_minus(a2, 0, 1, m) == direct


def test_root_vector_memo_under_threads():
    # more threads than cores extend the e_plus / e_minus memo lists of
    # one interned bicharacter at once; a lost or doubled append would
    # misplace an index and break the closed forms
    ctx = ScalarContext.parameters("q")
    q = ctx.generator("q")
    chi = Bicharacter.interned(ctx, [[q ** 2, q ** -1], [q ** -1, q ** 2]])
    top = 5
    errors = []

    def work(seed):
        order = [(f, p, 1 - p, m) for f in (e_plus, e_minus)
                 for p in (0, 1) for m in range(top + 1)]
        random.Random(seed).shuffle(order)
        try:
            for f, p, i, m in order:
                f(chi, p, i, m)
        except Exception as err:  # reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for name, closed in (("e_plus", e_plus_closed), ("e_minus", e_minus_closed)):
        for p in (0, 1):
            memo = chi._cache[(name, p, 1 - p)]
            assert len(memo) == top + 1
            assert all(memo[m] == closed(chi, p, 1 - p, m) for m in range(top + 1))


def test_e_plus_minus_difference(entries):
    for name in ("A2", "B2", "G2", "A2-twoparam"):
        chi = entries[name]
        for p, i in ((0, 1), (1, 0)):
            m = 1 - chi.cartan_entry(p, i)
            diff = e_plus(chi, p, i, m) - e_minus(chi, p, i, m)
            assert set(diff.terms) <= {(i,) + (p,) * m}
            if not q_factorial(m, chi.entries[p][p]).is_zero():
                assert diff.is_zero()
    sup = entries["A2-super"]
    m = 1 - sup.cartan_entry(1, 0)
    diff = e_plus(sup, 1, 0, m) - e_minus(sup, 1, 0, m)
    assert q_factorial(m, sup.entries[1][1]).is_zero()
    assert set(diff.terms) == {(0,) + (1,) * m}  # nonzero, in the allowed span


def test_nichols_zero_examples(a2):
    ctx = a2.ctx
    minus = Bicharacter(ctx, [[ctx.integer(-1)]])
    e = FreeElement.generator(minus, 0)
    assert nichols_is_zero(e * e)
    assert not nichols_is_zero(e)
    e1, e2 = FreeElement.generator(a2, 0), FreeElement.generator(a2, 1)
    assert not nichols_is_zero(e1 * e2)
    assert nichols_is_zero(serre_element(a2, 0, 1))
    assert nichols_is_zero(serre_element(a2, 1, 0))
    assert nichols_is_zero(FreeElement.zero(a2))
    # inhomogeneous input splits per component
    assert not nichols_is_zero(serre_element(a2, 0, 1) + e1)


def test_nichols_zero_f_side_transport(a2):
    mirrored = FreeElement(a2, F_SIDE,
                           dict(serre_element(a2.op(), 0, 1).terms))
    assert nichols_is_zero(mirrored)


def test_nichols_dim_small_a2(a2):
    # (1,1): 2x2 derivation Gram matrix, rank 2 (independent evaluation)
    words = words_of_degree(2, (1, 1))
    gram = [[tiny_derivation_counit(a2, u, w) for w in words] for u in words]
    assert rank(gram) == 2
    assert nichols_dim(a2, (1, 1)) == 2
    # (2,1): 3x3 matrix of rank 2
    words = words_of_degree(2, (2, 1))
    gram = [[tiny_derivation_counit(a2, u, w) for w in words] for u in words]
    assert rank(gram) == 2
    assert nichols_dim(a2, (2, 1)) == 2
    assert nichols_dim(a2, (1, 0)) == 1
    assert nichols_dim(a2, (0, 0)) == 1


def test_nichols_dim_rank1_roots_of_unity():
    for order in (3, 4, 5):
        ctx = ScalarContext.cyclotomic(order)
        chi = Bicharacter(ctx, [[ctx.root_of_unity()]])
        for m in range(0, order + 3):
            assert nichols_dim(chi, (m,)) == (1 if m < order else 0)


def pbw_monomial_count(positive_roots, heights, mu):
    """DP enumeration of restricted monomials in the positive roots."""
    def rec(idx, rest):
        if idx == len(positive_roots):
            return 0 if any(rest) else 1
        total, m = 0, 0
        while True:
            used = tuple(r - m * c for r, c in zip(rest, positive_roots[idx]))
            if any(x < 0 for x in used):
                break
            if heights[idx] is not None and m >= heights[idx]:
                break
            total += rec(idx + 1, used)
            m += 1
        return total
    return rec(0, mu)


def test_pbw_consistency_a2(a2):
    scheme = explore(a2)
    roots = real_roots(scheme, a2.key).positive
    heights = [a2.height(r) for r in roots]
    for total in range(0, 7):
        for a in range(total + 1):
            mu = (a, total - a)
            assert nichols_dim(a2, mu) == pbw_monomial_count(roots, heights, mu)


def test_pbw_consistency_root_of_unity(entries):
    chi = entries["A2-zeta3"]
    scheme = explore(chi)
    roots = real_roots(scheme, chi.key).positive
    heights = [chi.height(r) for r in roots]
    assert heights == [3, 3, 3]
    for total in range(0, 7):
        for a in range(total + 1):
            mu = (a, total - a)
            assert nichols_dim(chi, mu) == pbw_monomial_count(roots, heights, mu)


def test_dims_invariant_under_op_and_inverse(two_param):
    for total in range(0, 5):
        for a in range(total + 1):
            mu = (a, total - a)
            d = nichols_dim(two_param, mu)
            assert nichols_dim(two_param.op(), mu) == d
            assert nichols_dim(two_param.inverse(), mu) == d


def test_membership_in_coideal_subalgebras(a2):
    e1 = FreeElement.generator(a2, 0)
    assert uplus_subalgebra_membership(a2, 0, e_plus(a2, 0, 1, 1), "+")
    assert uplus_subalgebra_membership(a2, 0, e_minus(a2, 0, 1, 1), "-")
    assert not uplus_subalgebra_membership(a2, 0, e1, "+")
    assert not uplus_subalgebra_membership(a2, 0, e1, "-")
    assert uplus_subalgebra_membership(a2, 0, FreeElement.unit(a2), "+")


def free_dimension(mu):
    import math
    total = sum(mu)
    out = math.factorial(total)
    for m in mu:
        out //= math.factorial(m)
    return out


def test_tensor_decomposition_dimensions(a2):
    """Products of the E^+ generators span a complement of the E_p powers:
    their component dimensions solve dim_free(mu) = sum_j d(mu - j a_p)."""
    p, i = 0, 1
    d_plus = {}
    for total in range(0, 5):
        for a in range(total + 1):
            mu = (a, total - a)
            acc = free_dimension(mu)
            j = 1
            while mu[p] - j >= 0:
                acc -= d_plus[(mu[0] - j, mu[1])]
                j += 1
            d_plus[mu] = acc
    gens = [e_plus(a2, p, i, m) for m in range(0, 5)]

    def monomials(mu):
        if not any(mu):
            yield FreeElement.unit(a2)
        for g in gens:
            nu = g.degree()
            rest = tuple(m - v for m, v in zip(mu, nu))
            if any(x < 0 for x in rest):
                continue
            for tail in monomials(rest):
                yield g * tail

    for total in range(0, 5):
        for a in range(total + 1):
            mu = (a, total - a)
            words = words_of_degree(2, mu)
            index = {w: t for t, w in enumerate(words)}
            rows = []
            for mono in monomials(mu):
                row = [a2.ctx.zero] * len(words)
                for w, c in mono.terms.items():
                    row[index[w]] = c
                rows.append(row)
            got = rank(rows) if rows else 0
            assert got == d_plus[mu], (mu, got, d_plus[mu])
            # ... and together with E_p powers they span everything
            e_p = FreeElement.generator(a2, p)
            full = list(rows)
            for j in range(1, mu[p] + 1):
                power = FreeElement.unit(a2)
                for _ in range(j):
                    power = power * e_p
                for mono in monomials((mu[0] - j, mu[1])):
                    prod = mono * power
                    row = [a2.ctx.zero] * len(words)
                    for w, c in prod.terms.items():
                        row[index[w]] = c
                    full.append(row)
            assert rank(full) == free_dimension(mu), mu


def test_golden_rendering(a2):
    assert e_plus(a2, 0, 1, 1).render() == "E1*E2 - q^-1*E2*E1"
    assert serre_element(a2, 0, 1).render() == \
        "E1*E1*E2 + ((-q^2 - 1)/(q))*E1*E2*E1 + E2*E1*E1"
    assert FreeElement.zero(a2).render() == "0"
    assert FreeElement.unit(a2).render() == "1"


def test_pbw_consistency_b2(entries):
    chi = entries["B2"]
    scheme = explore(chi)
    roots = real_roots(scheme, chi.key).positive
    heights = [chi.height(r) for r in roots]
    for total in range(0, 6):
        for a in range(total + 1):
            mu = (a, total - a)
            assert nichols_dim(chi, mu) == pbw_monomial_count(roots, heights, mu)


def test_degree_cap_errors(a2):
    from weyldouble.freealg import DegreeCapExceeded
    e1 = FreeElement.generator(a2, 0)
    big = FreeElement.unit(a2)
    for _ in range(5):
        big = big * e1
    with pytest.raises(DegreeCapExceeded):
        nichols_is_zero(big, degree_cap=4)
    with pytest.raises(DegreeCapExceeded):
        nichols_dim(a2, (3, 3), degree_cap=4)


def test_pbw_consistency_super_type(entries):
    # heights 2 on two of the three positive roots truncate the counts
    chi = entries["A2-super"]
    scheme = explore(chi)
    roots = real_roots(scheme, chi.key).positive
    heights = [chi.height(r) for r in roots]
    assert sorted(str(h) for h in heights) == ["2", "2", "None"]
    for total in range(0, 7):
        for a in range(total + 1):
            mu = (a, total - a)
            assert nichols_dim(chi, mu) == pbw_monomial_count(roots, heights, mu)
