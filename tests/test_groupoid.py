"""Orbit exploration, root systems, lengths, and the Cartan-scheme axioms."""

import pytest

from weyldouble.bicharacter import Bicharacter, basis_vector, mat_identity, mat_vec
from weyldouble.groupoid import (InfiniteGroupoidError, TruncatedSchemeError,
                                 check_cm, explore, is_finite, length,
                                 longest_into, longest_word_from,
                                 morphisms_from, rank2_M, real_roots,
                                 verify_root_axioms)
from weyldouble.scalar import ScalarContext
from weyldouble.serialize import scheme_from_json, scheme_to_json

# classical Weyl group data, frozen
CLASSICAL = {
    "A1": {"orbit": 1, "positive": 1, "weyl": 2, "longest": 1},
    "A2": {"orbit": 1, "positive": 3, "weyl": 6, "longest": 3},
    "B2": {"orbit": 1, "positive": 4, "weyl": 8, "longest": 4},
    "G2": {"orbit": 1, "positive": 6, "weyl": 12, "longest": 6},
    "A3": {"orbit": 1, "positive": 6, "weyl": 24, "longest": 6},
}


@pytest.fixture(scope="module")
def schemes(entries):
    return {name: explore(chi) for name, chi in entries.items()}


def test_symmetric_cartan_orbits(entries, schemes):
    for name, data in CLASSICAL.items():
        scheme = schemes[name]
        assert len(scheme.objects) == data["orbit"], name
        assert scheme.complete and scheme.verify_axioms()


def test_weyl_group_orders(entries, schemes):
    for name, data in CLASSICAL.items():
        report = is_finite(schemes[name])
        assert report.finite is True
        assert report.morphism_count == data["weyl"], name


def test_positive_root_counts(entries, schemes):
    for name, data in CLASSICAL.items():
        entry = real_roots(schemes[name], entries[name].key)
        assert len(entry.positive) == data["positive"], name


def test_b2_and_g2_root_lists(entries, schemes):
    b2 = real_roots(schemes["B2"], entries["B2"].key)
    assert set(b2.positive) == {(0, 1), (1, 0), (1, 1), (1, 2)}
    g2 = real_roots(schemes["G2"], entries["G2"].key)
    assert set(g2.positive) == {(0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3)}


def test_rank1_roots(entries, schemes):
    entry = real_roots(schemes["A1"], entries["A1"].key)
    assert entry.positive == ((1,),)


def test_root_axioms_all_catalog(schemes):
    for name, scheme in schemes.items():
        assert verify_root_axioms(scheme) == [], name


def test_cartan_entry_from_root_strings(schemes):
    for name, scheme in schemes.items():
        assert check_cm(scheme) == [], name


def test_check_cm_values(entries, schemes):
    # A2: max m with a_2 + m a_1 a positive root is 1 = -c_12
    a2 = set(real_roots(schemes["A2"], entries["A2"].key).positive)
    assert max(m for m in range(5) if (m, 1) in a2 or m == 0) == 1
    # G2 short-long pair: the string a_1 + m a_2 runs to m = 3 = -c_21
    g2 = set(real_roots(schemes["G2"], entries["G2"].key).positive)
    assert max(m for m in range(6) if (1, m) in g2) == 3
    assert -entries["G2"].cartan_matrix()[1][0] == 3


def test_lengths_and_longest(entries, schemes):
    for name, data in CLASSICAL.items():
        scheme = schemes[name]
        key = entries[name].key
        w0 = longest_into(scheme, key)
        assert len(w0.word) == data["longest"], name
        assert length(scheme, w0) == data["longest"]
        identity = next(m for m in morphisms_from(scheme, key)
                        if m.matrix == mat_identity(scheme.rank)
                        and m.target == key)
        assert length(scheme, identity) == 0


def test_longest_word_is_reduced(entries, schemes):
    scheme = schemes["A3"]
    word = longest_word_from(scheme, entries["A3"].key)
    assert len(word) == 6
    # the composed matrix sends every simple root to a negative root
    chi = entries["A3"]
    current, matrix = chi, mat_identity(3)
    from weyldouble.bicharacter import mat_mul_int
    for p in word:
        s, current = current.reflect(p)
        matrix = mat_mul_int(s, matrix)
    for i in range(3):
        image = mat_vec(matrix, basis_vector(3, i))
        assert all(x <= 0 for x in image)


def test_rank2_m_values(entries):
    assert rank2_M(entries["A2"], 0, 1) == 3
    assert rank2_M(entries["B2"], 0, 1) == 4
    assert rank2_M(entries["B2"], 1, 0) == 4
    assert rank2_M(entries["G2"], 0, 1) == 6
    ctx = ScalarContext.parameters("q")
    q = ctx.generator("q")
    orthogonal = Bicharacter(ctx, [[q, ctx.one], [ctx.one, q]])
    assert rank2_M(orthogonal, 0, 1) == 2
    with pytest.raises(ValueError):
        rank2_M(entries["A2"], 1, 1)


def test_rank2_m_matches_root_count(entries, schemes):
    # independent cross-check of the alternating-word computation
    for name in ("A2", "B2", "G2", "A3"):
        chi = entries[name]
        entry = real_roots(schemes[name], chi.key)
        for i in range(chi.rank):
            for j in range(chi.rank):
                if i != j:
                    assert rank2_M(chi, i, j) == entry.m_table[i][j], (name, i, j)


def test_super_type_orbit(entries, schemes):
    # frozen from the exhaustive closure: 6 objects, |R+| = 3, 6 morphisms
    scheme = schemes["A2-super"]
    assert len(scheme.objects) == 6
    report = is_finite(scheme)
    assert report.finite and report.morphism_count == 6
    entry = real_roots(scheme, entries["A2-super"].key)
    assert entry.positive == ((0, 1), (1, 0), (1, 1))


def test_two_param_orbit(entries, schemes):
    scheme = schemes["A2-twoparam"]
    assert len(scheme.objects) == 2   # frozen from the exhaustive closure
    entry = real_roots(scheme, entries["A2-twoparam"].key)
    assert len(entry.positive) == 3


def test_affine_type_does_not_close():
    ctx = ScalarContext.parameters("q")
    q = ctx.generator("q")
    affine = Bicharacter(ctx, [[q ** 2, q ** -2], [q ** -2, q ** 2]])
    assert affine.cartan_matrix() == ((2, -2), (-2, 2))
    scheme = explore(affine)
    report = is_finite(scheme, morphism_cap=500)
    assert report.finite is None
    with pytest.raises(InfiniteGroupoidError):
        real_roots(scheme, affine.key, morphism_cap=500)


def test_truncated_scheme_is_refused(entries):
    # orbit of the super-type entry has six objects; cap below that
    scheme = explore(entries["A2-super"], object_cap=2)
    assert not scheme.complete
    with pytest.raises(TruncatedSchemeError):
        real_roots(scheme, entries["A2-super"].key)


def test_morphism_identity_and_words(entries, schemes):
    scheme = schemes["A2"]
    key = entries["A2"].key
    morphisms = morphisms_from(scheme, key)
    words = {m.word for m in morphisms}
    assert () in words
    # two words of the same morphism are identified: only 6 distinct states
    assert len(morphisms) == 6


def test_scheme_json_round_trip(schemes):
    for name in ("A2", "A2-super", "A2-zeta3"):
        scheme = schemes[name]
        data = scheme_to_json(scheme)
        rebuilt = scheme_from_json(data)
        assert scheme_to_json(rebuilt) == data
        assert rebuilt.verify_axioms()
        assert_reflections_are_scheme_objects(rebuilt)


def assert_reflections_are_scheme_objects(scheme):
    for key, ob in scheme.objects.items():
        for p in range(ob.rank):
            target = scheme.objects[scheme.edges[(key, p)]]
            assert ob.reflect(p)[1] is target, (key, p)


def test_reflections_land_on_scheme_objects(schemes):
    # A2-super has six objects; every reflection image is the scheme's
    # own instance, so caches on the objects serve the reflections too
    assert len(schemes["A2-super"].objects) == 6
    for name in ("A2-super", "A2-twoparam", "A3"):
        assert_reflections_are_scheme_objects(schemes[name])


def test_op_and_inverse_schemes_match(entries):
    # the orbit of chi^op / chi^-1 mirrors the orbit of chi edge-for-edge
    chi = entries["A2-twoparam"]
    scheme = explore(chi)
    for transform in (Bicharacter.op, Bicharacter.inverse):
        mirrored = explore(transform(chi))
        assert len(mirrored.objects) == len(scheme.objects)
        for (key, p), target in scheme.edges.items():
            source_t = transform(scheme.objects[key])
            target_t = transform(scheme.objects[target])
            assert mirrored.edges[(source_t.key, p)] == target_t.key
            assert mirrored.cartan[source_t.key] == scheme.cartan[key]


def test_equal_root_sets_equal_cartans_along_morphisms(entries, schemes):
    """Catalog entries with identical positive root sets have identical
    Cartan matrices along every reflection word."""
    names = ("A2", "A2-zeta3", "A2-twoparam")
    for name in names:
        entry = real_roots(schemes[name], entries[name].key)
        assert entry.positive == ((0, 1), (1, 0), (1, 1)), name
    words = [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)]
    for left in names:
        for right in names:
            for word in words:
                a, b = entries[left], entries[right]
                for p in word:
                    a = a.reflect(p)[1]
                    b = b.reflect(p)[1]
                assert a.cartan_matrix() == b.cartan_matrix(), (left, right, word)


def test_explore_names_non_p_finite_object():
    from weyldouble.bicharacter import NotPFiniteError
    ctx = ScalarContext.parameters("q")
    q = ctx.generator("q")
    bad = Bicharacter(ctx, [[q, q], [ctx.one, q]])
    with pytest.raises(NotPFiniteError) as err:
        explore(bad)
    assert err.value.key == bad.key and err.value.p == 0
