"""Transport maps: well-definedness, inverses, commutations, Coxeter
relations, longest-element factorization, and the Serre characterization."""

import pytest

from weyldouble.bicharacter import Bicharacter, basis_vector, mat_vec
from weyldouble.double import (DoubleElement, blocks_ratio, is_zero_in_u,
                               nichols_functionals, phi_2, phi_3, phi_4,
                               phi_diag)
from weyldouble.freealg import e_minus, e_plus, f_plus, serre_element
from weyldouble.groupoid import explore, morphisms_from, rank2_M, real_roots
from weyldouble.lusztig import (IdealAnnihilators, build_ideal,
                                build_lusztig_map, chain_apply,
                                check_defining_relations, coxeter_check,
                                derivation_intertwiner_check,
                                longest_factorization, lusztig_chain,
                                nichols_characterization,
                                serre_family, serre_image_proportionality,
                                solve_ratio_mod_nichols,
                                w_image_in_positive_part)
from weyldouble.scalar import ScalarContext, q_int


def embed(x):
    return DoubleElement.from_free(x)


# --- ideals -------------------------------------------------------------------


def test_ideal_generic_is_serre_only(a2):
    ideal = build_ideal(a2, 0)
    assert ideal.height is None
    assert ideal.generators == [e_plus(a2, 0, 1, 2)]
    assert ideal.f_generators == [f_plus(a2, 0, 1, 2)]


def test_ideal_at_root_of_unity(entries):
    chi = entries["A2-zeta3"]
    ideal = build_ideal(chi, 0)
    assert ideal.height == 3
    degrees = sorted(g.degree() for g in ideal.generators)
    assert degrees == [(2, 1), (3, 0)]  # Serre element and the cube


def test_ideal_rank1(entries):
    assert build_ideal(entries["A1"], 0).generators == []
    ctx = ScalarContext.cyclotomic(5)
    chi = Bicharacter(ctx, [[ctx.root_of_unity()]])
    ideal = build_ideal(chi, 0)
    assert ideal.height == 5
    assert [g.degree() for g in ideal.generators] == [(5,)]


def test_ideal_requires_p_finite():
    ctx = ScalarContext.parameters("q")
    q = ctx.generator("q")
    from weyldouble.bicharacter import NotPFiniteError
    bad = Bicharacter(ctx, [[q, q], [ctx.one, q]])
    with pytest.raises(NotPFiniteError):
        build_ideal(bad, 0)


# --- the generator-image tables -------------------------------------------------


def test_map_table(a2):
    tmap = build_lusztig_map(a2, 0)
    target = tmap.target
    assert tmap.k_images[0] == DoubleElement.gen_k(target, (-1, 0))
    assert tmap.k_images[1] == DoubleElement.gen_k(target, (1, 1))
    assert tmap.l_images[0] == DoubleElement.gen_l(target, (-1, 0))
    lp_inv = DoubleElement.gen_l(target, (-1, 0))
    assert tmap.e_images[0] == DoubleElement.gen_f(target, 0) * lp_inv
    assert tmap.e_images[1] == embed(e_plus(target, 0, 1, 1))
    kp_inv = DoubleElement.gen_k(target, (-1, 0))
    assert tmap.f_images[0] == kp_inv * DoubleElement.gen_e(target, 0)
    lam = target.lambda_factor(0, 1)
    assert tmap.f_images[1] == embed(f_plus(target, 0, 1, 1)).scale(lam.inverse())
    back = build_lusztig_map(a2, 0, "-")
    assert back.e_images[0] == kp_inv * DoubleElement.gen_f(target, 0)
    assert back.f_images[0] == DoubleElement.gen_e(target, 0) * lp_inv
    sign = a2.ctx.integer(-1) ** a2.cartan_entry(0, 1)
    assert back.f_images[1] == embed(f_minus_target(target)).scale(sign)


def f_minus_target(target):
    from weyldouble.freealg import f_minus
    return f_minus(target, 0, 1, 1)


def test_defining_relations_all_catalog(entries):
    for name in ("A2", "B2", "G2", "A3", "A2-zeta3", "A2-zeta4",
                 "A2-super", "A2-twoparam"):
        chi = entries[name]
        scheme = explore(chi)
        for key, ob in scheme.objects.items():
            for p in range(chi.rank):
                for direction in "+-":
                    rep = check_defining_relations(
                        build_lusztig_map(ob, p, direction))
                    assert rep.passed, (name, p, direction, rep.failures)


def test_forward_backward_identity(entries):
    for name in ("A2", "B2", "A2-super", "A2-twoparam"):
        chi = entries[name]
        for p in range(chi.rank):
            forward = build_lusztig_map(chi, p)
            backward = build_lusztig_map(forward.target, p, "-")
            assert backward.target.key == chi.key
            for k in range(chi.rank):
                for gen in (DoubleElement.gen_e, DoubleElement.gen_f,
                            DoubleElement.gen_k, DoubleElement.gen_l):
                    x = gen(chi, k)
                    assert is_zero_in_u(
                        backward.apply(forward.apply(x)) - x), (name, p, k)
                    y = gen(forward.target, k)
                    assert is_zero_in_u(
                        forward.apply(backward.apply(y)) - y), (name, p, k)


def test_root_vector_images(two_param):
    """T_p on E^-_{i,t} and T_p^- on E^+_{i,t}: the stated scalars for
    t <= -c_pi, zero beyond."""
    chi = two_param
    one = chi.ctx.one
    p, i = 0, 1
    c = chi.cartan_entry(p, i)
    tmap = build_lusztig_map(chi, p)
    target = tmap.target
    qb = target.entries
    qpp, qpi, qip = qb[p][p], qb[p][i], qb[i][p]
    for t in range(0, -c + 1):
        image = tmap.apply(embed(e_minus(chi, p, i, t)))
        coeff = qpp ** t
        for s in range(t):
            coeff = coeff * q_int(-c - s, qpp)
        for s in range(1, t + 1):
            coeff = coeff * (one - qpp ** (-c - s) * qpi * qip)
        want = embed(e_plus(target, p, i, -c - t)).scale(coeff)
        assert is_zero_in_u(image - want), t
        back = build_lusztig_map(chi, p, "-")
        image = back.apply(embed(e_plus(chi, p, i, t)))
        coeff = one
        for s in range(1, -c - t + 1):
            coeff = coeff * q_int(s, qpp.inverse()).inverse()
        for s in range(0, -c - t):
            coeff = coeff * (qpp ** -s * (qpi * qip).inverse() - one).inverse()
        want = embed(e_minus(target, p, i, -c - t)).scale(coeff)
        assert is_zero_in_u(image - want), t
    for t in range(-c + 1, -c + 3):
        assert is_zero_in_u(tmap.apply(embed(e_minus(chi, p, i, t))))
        back = build_lusztig_map(chi, p, "-")
        assert is_zero_in_u(back.apply(embed(e_plus(chi, p, i, t))))


def test_alternating_chain_images(entries):
    """Images of E_j along alternating chains of length m < M stay in the
    positive part with the reflected degree; at m = M the image collapses
    onto F L^-1."""
    for name in ("A2", "B2"):
        chi = entries[name]
        scheme = explore(chi)
        i, j = 0, 1
        from weyldouble.groupoid import rank2_M
        M = rank2_M(chi, i, j)
        word = tuple(i if t % 2 == 0 else j for t in range(M))
        maps = lusztig_chain(chi, word)
        current = DoubleElement.gen_e(chi, j)
        matrix = None
        from weyldouble.bicharacter import mat_identity, mat_mul_int
        matrix = mat_identity(chi.rank)
        source = chi
        for m, tmap in enumerate(maps, start=1):
            current = tmap.apply(current)
            matrix = mat_mul_int(source.reflect(word[m - 1])[0], matrix)
            source = tmap.target
            degree = mat_vec(matrix, basis_vector(chi.rank, j))
            if m < M:
                rest = DoubleElement(current.chi, {
                    key: c for key, c in current.terms.items()
                    if key[0] or any(key[1]) or any(key[2])})
                assert is_zero_in_u(rest), (name, m)
                assert current.zi_degree() == degree or \
                    current.e_part().degree() == degree, (name, m)
            else:
                last = word[-1]
                pattern = (DoubleElement.gen_f(source, last)
                           * DoubleElement.gen_l(source,
                                                 tuple(-x for x in
                                                       basis_vector(chi.rank, last))))
                ratio = solve_ratio_mod_nichols(current, pattern)
                assert ratio is not None and not ratio.is_zero(), name


def test_coxeter_relations(entries, monkeypatch):
    built = []
    init = Bicharacter.__init__

    def recording_init(self, ctx, entries):
        init(self, ctx, entries)
        built.append(self)
    monkeypatch.setattr(Bicharacter, "__init__", recording_init)
    for name, M in (("A2", 3), ("B2", 4), ("G2", 6),
                    ("A2-super", 3), ("A2-twoparam", 3), ("A2-zeta4", 3)):
        rep = coxeter_check(entries[name], 0, 1)
        assert rep.M == M, name
        assert all(not a.is_zero() for a in rep.twist)
    # no key got a second instance, so the Gram matrices of G2 were
    # built once, on the catalog object itself
    keys = [(chi.ctx, chi.key) for chi in built]
    assert len(keys) == len(set(keys))
    g2 = entries["G2"]
    assert all(chi.key != g2.key for chi in built)
    assert g2._cache["gram"]


def test_chain_targets_are_shared_instances(entries):
    # on G2 at generic q every r_p fixes chi, and each stage lands on chi
    chi = entries["G2"]
    for direction in ("+", "-"):
        maps = lusztig_chain(chi, (0, 1) * 3, direction)
        assert all(m.source is chi and m.target is chi for m in maps)


def test_coxeter_orthogonal_pair():
    ctx = ScalarContext.parameters("q")
    q = ctx.generator("q")
    chi = Bicharacter(ctx, [[q, ctx.one], [ctx.one, q ** 2]])
    rep = coxeter_check(chi, 0, 1)
    assert rep.M == 2


def test_coxeter_a3_all_pairs(entries):
    a3 = entries["A3"]
    for i, j, want in ((0, 1, 3), (1, 2, 3), (0, 2, 2)):
        rep = coxeter_check(a3, i, j)
        assert rep.M == want, (i, j)


# --- images in the positive part -------------------------------------------------


def test_image_in_positive_part(a2):
    scheme = explore(a2)
    assert w_image_in_positive_part(scheme, (0,), 1)
    assert w_image_in_positive_part(scheme, (1,), 0)
    assert w_image_in_positive_part(scheme, (0, 1), 1)
    with pytest.raises(ValueError):
        # w(alpha_0) is negative for this word
        w_image_in_positive_part(scheme, (0, 1), 0)
    with pytest.raises(ValueError):
        # not reduced
        w_image_in_positive_part(scheme, (0, 0, 1), 1)


def test_image_in_positive_part_exhaustive(entries):
    for name in ("A2", "B2"):
        chi = entries[name]
        scheme = explore(chi)
        checked = 0
        for mor in morphisms_from(scheme, chi.key):
            if not mor.word:
                continue
            for p in range(chi.rank):
                wa = mat_vec(mor.matrix, basis_vector(chi.rank, p))
                if all(x >= 0 for x in wa):
                    assert w_image_in_positive_part(scheme, mor.word, p), \
                        (name, mor.word, p)
                    checked += 1
        assert checked > 0


# --- longest element --------------------------------------------------------------


def test_longest_factorization(entries):
    # A3's longest element realizes the diagram flip
    expects = {"A2": (1, 0), "B2": (0, 1), "G2": (0, 1), "A1": (0,),
               "A3": (2, 1, 0)}
    for name, tau in expects.items():
        scheme = explore(entries[name])
        fact = longest_factorization(scheme)
        assert fact.tau == tau, name
        assert len(fact.word) == len(real_roots(scheme,
                                                entries[name].key).positive)
        assert all(not lam.is_zero() for lam in fact.lambdas)


def test_longest_rank1_scalar(entries):
    scheme = explore(entries["A1"])
    fact = longest_factorization(scheme)
    # T_1(E_1) = F_1 L_1^-1 exactly, so the twist scalar is 1
    assert fact.lambdas[0].is_one()


# --- Serre sufficiency -------------------------------------------------------------


def test_serre_sufficiency(entries):
    # the super-type entry passes too: its truncated powers plus the
    # twisted Serre elements generate the whole defining ideal
    for name in ("A2", "B2", "G2", "A3", "A2-twoparam", "A2-super"):
        scheme = explore(entries[name])
        rep = nichols_characterization(scheme, serre_family(scheme))
        assert rep.passed, (name, rep.precondition_failures, rep.failures)


def test_gram_and_serre_functionals_agree(entries):
    # where the Serre family generates the Nichols ideal, its annihilators
    # and the Gram rows are two descriptions of one quotient: the ratios
    # that coxeter_check solves agree through both
    for name in ("A2", "B2", "A2-twoparam"):
        chi = entries[name]
        scheme = explore(chi)
        family = serre_family(scheme)
        M = rank2_M(chi, 0, 1)
        maps_lhs = lusztig_chain(chi, tuple((0, 1)[t % 2] for t in range(M)))
        maps_rhs = lusztig_chain(chi, tuple((1, 0)[t % 2] for t in range(M)))
        target = maps_lhs[-1].target
        by_gram = nichols_functionals(target)
        by_family = IdealAnnihilators(target, family[target.key]).annihilator
        for k in range(chi.rank):
            for gen in (DoubleElement.gen_e, DoubleElement.gen_f):
                lhs = chain_apply(maps_lhs, gen(chi, k))
                rhs = chain_apply(maps_rhs, gen(chi, k))
                ratio = blocks_ratio(lhs, rhs, by_gram)
                assert ratio is not None and not ratio.is_zero(), (name, k)
                assert blocks_ratio(lhs, rhs, by_family) == ratio, (name, k)


def test_serre_mutation_fails(a2):
    scheme = explore(a2)
    family = {a2.key: [serre_element(a2, 0, 1)]}  # drop (ad E_2)^2 E_1
    rep = nichols_characterization(scheme, family)
    assert not rep.passed
    # dropping a generator breaks the containment hypothesis and produces
    # a nonzero image among the defining relations
    assert rep.precondition_failures
    assert any("relation EF" in f[2] for f in rep.failures), rep.failures


def test_serre_image_proportionality(entries):
    # hard cases c_ip in {-2, -3} included
    seen = set()
    for name in ("A2", "B2", "G2"):
        chi = entries[name]
        for p in range(2):
            i = 1 - p
            ratio = serre_image_proportionality(chi, p, i)
            assert ratio is not None and not ratio.is_zero(), (name, p)
            seen.add(chi.cartan_entry(i, p))
    assert {-1, -2, -3} <= seen


# --- commutations with the automorphisms (solved twists) ---------------------------


def images_equal_mod_s(pairs):
    return all(is_zero_in_u(lhs - rhs) for lhs, rhs in pairs)


def generator_list(chi):
    out = []
    for k in range(chi.rank):
        out.extend([DoubleElement.gen_e(chi, k), DoubleElement.gen_f(chi, k),
                    DoubleElement.gen_k(chi, k), DoubleElement.gen_l(chi, k)])
    return out


def test_commutation_with_diagonal(two_param):
    chi = two_param
    p = 0
    tmap = build_lusztig_map(chi, p)
    av = [chi.ctx.generator("q") ** 2, chi.ctx.generator("r")]
    bv = [av[i] * av[p] ** -chi.cartan_entry(p, i) for i in range(2)]
    inner = phi_diag(chi, av)
    outer = phi_diag(tmap.target, bv)
    pairs = [(tmap.apply(inner.apply(g)), outer.apply(tmap.apply(g)))
             for g in generator_list(chi)]
    assert images_equal_mod_s(pairs)
    back = build_lusztig_map(chi, p, "-")
    outer = phi_diag(back.target, bv)
    pairs = [(back.apply(inner.apply(g)), outer.apply(back.apply(g)))
             for g in generator_list(chi)]
    assert images_equal_mod_s(pairs)


def test_commutation_with_phi2(two_param):
    # T_p phi_2 = phi_2 T_p^- phi_a with a_i = (-1)^(delta_ip)
    chi = two_param
    p = 0
    minus = chi.ctx.integer(-1)
    av = [minus if i == p else chi.ctx.one for i in range(2)]
    lhs_t = build_lusztig_map(chi.inverse(), p)
    back = build_lusztig_map(chi, p, "-")
    outer = phi_2(back.target)
    assert lhs_t.target.key == outer.target.key
    p2 = phi_2(chi)
    pa = phi_diag(chi, av)
    pairs = [(lhs_t.apply(p2.apply(g)), outer.apply(back.apply(pa.apply(g))))
             for g in generator_list(chi)]
    assert images_equal_mod_s(pairs)


def test_commutation_with_phi3(two_param):
    # T_p phi_3 = phi_3 T_p phi_lambda, lambda_p = q_pp^-1,
    # lambda_i = lambda_i(r_p(chi))^-1
    chi = two_param
    p, i = 0, 1
    tmap = build_lusztig_map(chi, p)
    lam = [None, None]
    lam[p] = chi.entries[p][p].inverse()
    lam[i] = tmap.target.lambda_factor(p, i).inverse()
    lhs_t = build_lusztig_map(chi.op(), p)
    outer = phi_3(tmap.target)
    assert lhs_t.target.key == outer.target.key
    p3 = phi_3(chi)
    pl = phi_diag(chi, lam)
    pairs = [(lhs_t.apply(p3.apply(g)), outer.apply(tmap.apply(pl.apply(g))))
             for g in generator_list(chi)]
    assert images_equal_mod_s(pairs)


def test_commutation_with_phi3_minus(two_param):
    # T_p^- phi_3 = phi_3 T_p^- phi_lambda, lambda_p = q_pp^-1,
    # lambda_i = (-1)^(c_pi) lambda_i(r_p(chi^-1))
    chi = two_param
    p, i = 0, 1
    c = chi.cartan_entry(p, i)
    back = build_lusztig_map(chi, p, "-")
    lam = [None, None]
    lam[p] = chi.entries[p][p].inverse()
    lam[i] = (chi.ctx.integer(-1) ** c
              * back.target.inverse().lambda_factor(p, i))
    lhs_t = build_lusztig_map(chi.op(), p, "-")
    outer = phi_3(back.target)
    assert lhs_t.target.key == outer.target.key
    p3 = phi_3(chi)
    pl = phi_diag(chi, lam)
    pairs = [(lhs_t.apply(p3.apply(g)), outer.apply(back.apply(pl.apply(g))))
             for g in generator_list(chi)]
    assert images_equal_mod_s(pairs)


def test_commutation_with_phi4_solved_twist(two_param):
    # T_p phi_4 = phi_4 T_p^- phi_a for some a: solve a on the E's and
    # confirm on every generator
    chi = two_param
    p = 0
    tmap = build_lusztig_map(chi, p)
    back = build_lusztig_map(chi, p, "-")
    p4_src = phi_4(chi)
    p4_tgt = phi_4(back.target)
    av = []
    for k in range(chi.rank):
        lhs = tmap.apply(p4_src.apply(DoubleElement.gen_e(chi, k)))
        rhs = p4_tgt.apply(back.apply(DoubleElement.gen_e(chi, k)))
        a_k = solve_ratio_mod_nichols(lhs, rhs)
        assert a_k is not None and not a_k.is_zero(), k
        av.append(a_k)
    pa = phi_diag(chi, av)
    pairs = [(tmap.apply(p4_src.apply(g)),
              p4_tgt.apply(back.apply(pa.apply(g))))
             for g in generator_list(chi)]
    assert images_equal_mod_s(pairs)


def test_derivation_intertwiner(entries):
    for name in ("A2", "B2", "A2-twoparam"):
        chi = entries[name]
        factors, consistent = derivation_intertwiner_check(chi, 0, 1)
        assert consistent, (name, [(mu, str(f)) for mu, f in factors])


def test_ideal_images_under_phi(two_param):
    """phi images of the root-vector generator sets land in the stated
    mirror ideals (span equality at generator degrees)."""
    chi = two_param
    p = 0
    ideal = build_ideal(chi, p, verify=False)
    inv_ideal = build_ideal(chi.inverse(), p, verify=False)
    op_ideal = build_ideal(chi.op(), p, verify=False)
    for g in ideal.generators:
        x = embed(g)
        # phi_2 -> I^-(chi^-1), phi_3 -> I^-(chi^op), phi_4 -> I^-(chi)
        img = phi_2(chi).apply(x)
        assert _f_span_member(img, inv_ideal.f_generators)
        img = phi_3(chi).apply(x)
        assert _f_span_member(img, op_ideal.f_generators)
        img = phi_4(chi).apply(x)
        assert _f_span_member(img, ideal.f_generators)


def _f_span_member(img, f_gens):
    """img must be an F-side element proportional to a span member of the
    generators at its degree."""
    free = img.f_part()
    if DoubleElement.from_free(free) != img:
        return False
    from weyldouble.freealg import words_of_degree
    chi = free.chi
    degree = free.degree()
    words = words_of_degree(chi.rank, degree)
    from weyldouble.linalg import in_span
    rows = []
    for g in f_gens:
        if g.degree() == degree:
            rows.append([g.terms.get(w, chi.ctx.zero) for w in words])
    target = [free.terms.get(w, chi.ctx.zero) for w in words]
    return in_span(rows, target, chi.ctx)


def test_serre_insufficient_at_roots_of_unity(entries):
    """At a root of unity the Serre + simple-power family does not
    generate the Nichols ideal; the transported simple powers are the
    failing witnesses."""
    for name in ("A2-zeta3", "A2-zeta4"):
        chi = entries[name]
        scheme = explore(chi)
        rep = nichols_characterization(scheme, serre_family(scheme))
        assert not rep.passed
        assert not rep.precondition_failures  # hypotheses hold, (3) fails
        assert any(f[2] == "generator image" for f in rep.failures), name


def test_augmented_family_at_zeta3(entries):
    """Adding the cube of the non-simple root vector yields a certified
    presentation at a primitive third root of unity."""
    chi = entries["A2-zeta3"]
    scheme = explore(chi)
    family = serre_family(scheme)
    e12 = e_plus(chi, 0, 1, 1)
    augmented = {chi.key: family[chi.key] + [e12 * e12 * e12]}
    rep = nichols_characterization(scheme, augmented)
    assert rep.passed, (rep.precondition_failures, rep.failures)
    # dimension bookkeeping: exactly one generator was missing at (3,3)
    from weyldouble.freealg import nichols_dim, words_of_degree
    from weyldouble.linalg import rank
    from weyldouble.lusztig import ideal_span_rows
    free_dim = len(words_of_degree(2, (3, 3)))
    assert free_dim - nichols_dim(chi, (3, 3)) == 18
    assert rank(ideal_span_rows(chi, family[chi.key], (3, 3))) == 17
    assert rank(ideal_span_rows(chi, augmented[chi.key], (3, 3))) == 18


def test_image_in_positive_part_super_orbit(entries):
    """Transport through genuinely distinct objects: the super-type orbit
    has six objects, so the chains change structure constants at every
    stage."""
    chi = entries["A2-super"]
    scheme = explore(chi)
    assert len(scheme.objects) == 6
    checked = 0
    for mor in morphisms_from(scheme, chi.key):
        if not mor.word:
            continue
        for p in range(2):
            wa = mat_vec(mor.matrix, basis_vector(2, p))
            if all(x >= 0 for x in wa):
                assert w_image_in_positive_part(scheme, mor.word, p), \
                    (mor.word, p)
                checked += 1
    assert checked >= 4


def test_image_in_positive_part_g2_words(entries):
    # length-bounded sweep on the G2 group: chains hit the -3 Cartan entry
    chi = entries["G2"]
    scheme = explore(chi)
    checked = 0
    for mor in morphisms_from(scheme, chi.key):
        if not (1 <= len(mor.word) <= 3):
            continue
        for p in range(2):
            wa = mat_vec(mor.matrix, basis_vector(2, p))
            if all(x >= 0 for x in wa):
                assert w_image_in_positive_part(scheme, mor.word, p), \
                    (mor.word, p)
                checked += 1
    assert checked == 6
