"""Root-vector ideals, the transport maps T_p / T_p^-, and the structural
verification suites built on them.

The maps are stored as generator-image tables into the reflected double
and applied by word-wise substitution; all equality tests of images are
modulo the Nichols ideal of the target (U-level), decided by the block
Gram test in :mod:`double`.
"""

from dataclasses import dataclass

from .bicharacter import basis_vector, mat_identity, mat_mul_int, mat_vec
from .double import (DoubleElement, DoubleMap, _invert_monomial, ad_e,
                     ad_e_prime, blocks_ratio, blocks_zero, is_zero_in_u,
                     nichols_functionals, phi_1, phi_perm, reduce_mod_nichols)
from .freealg import (DEFAULT_DEGREE_CAP, E_SIDE, F_SIDE, FreeElement, der_k,
                      der_l, e_minus, e_plus, f_minus, f_plus,
                      nichols_is_zero, words_of_degree)
from .groupoid import (DEFAULT_MORPHISM_CAP, InfiniteGroupoidError,
                       longest_word_from, morphisms_within_cap, rank2_M,
                       real_roots)
from .linalg import nullspace

# root-vector ideals ----------------------------------------------------------

@dataclass
class RootVectorIdeal:
    chi: object
    p: int
    height: int | None
    generators: list      # E-side free elements
    f_generators: list    # F-side counterparts


def build_ideal(chi, p, verify=True):
    """Generators E_p^h (h the height of alpha_p, when finite) and the
    iterated commutators E^+_{i,1-c_pi}; F-side mirrors alongside."""
    if not chi.is_p_finite(p):
        from .bicharacter import NotPFiniteError
        raise NotPFiniteError(p)
    n = chi.rank
    h = chi.height(basis_vector(n, p))
    e_gens, f_gens = [], []
    if h is not None:
        ep = FreeElement.generator(chi, p)
        power = FreeElement.unit(chi)
        for _ in range(h):
            power = power * ep
        e_gens.append(power)
        fp = FreeElement.generator(chi, p, side=F_SIDE)
        fpower = FreeElement.unit(chi, side=F_SIDE)
        for _ in range(h):
            fpower = fpower * fp
        f_gens.append(fpower)
    for i in range(n):
        if i == p:
            continue
        m = 1 - chi.cartan_entry(p, i)
        if h is None or m < h:
            e_gens.append(e_plus(chi, p, i, m))
            f_gens.append(f_plus(chi, p, i, m))
    ideal = RootVectorIdeal(chi, p, h, e_gens, f_gens)
    if verify:
        verify_ideal_coincidences(ideal)
    return ideal


def verify_ideal_coincidences(ideal):
    """Generator-level checks: each generator is Nichols-zero; the E^+/E^-
    difference lies in the single-word span; at the height boundary the
    high commutators collapse into the E_p-power ideal."""
    chi, p, h = ideal.chi, ideal.p, ideal.height
    n = chi.rank
    for g in ideal.generators:
        if not nichols_is_zero(g):
            raise AssertionError("ideal generator is not Nichols-zero")
    from .scalar import q_factorial
    qpp = chi.entries[p][p]
    for i in range(n):
        if i == p:
            continue
        m = 1 - chi.cartan_entry(p, i)
        diff = e_plus(chi, p, i, m) - e_minus(chi, p, i, m)
        allowed = {(i,) + (p,) * m}
        if not set(diff.terms) <= allowed:
            raise AssertionError("E+ - E- outside the single-word span")
        if not q_factorial(m, qpp).is_zero() and not diff.is_zero():
            raise AssertionError("E+ - E- nonzero despite invertible factorial")
        if h is not None and m >= h:
            # q-binomial vanishing collapses E^{+-}_{i,h} onto E_p^h E_i, E_i E_p^h
            for elem in (e_plus(chi, p, i, h), e_minus(chi, p, i, h)):
                if not set(elem.terms) <= {(p,) * h + (i,), (i,) + (p,) * h}:
                    raise AssertionError("boundary commutator not in the power ideal")


# the transport maps -----------------------------------------------------------

class LusztigMap(DoubleMap):
    def __init__(self, name, source, target, e_images, f_images, k_images,
                 l_images, direction, p):
        super().__init__(name, source, target, e_images, f_images,
                         k_images, l_images, anti=False)
        self.direction = direction
        self.p = p


def build_lusztig_map(chi, p, direction="+"):
    """Generator-image table of T_p (direction '+') or T_p^- ('-'),
    landing over the reflected bicharacter."""
    cache_key = ("lusztig", p, direction)
    if cache_key in chi._cache:
        return chi._cache[cache_key]
    n = chi.rank
    s, image = chi.reflect(p)
    k_images = tuple(DoubleElement.gen_k(image, mat_vec(s, basis_vector(n, i)))
                     for i in range(n))
    l_images = tuple(DoubleElement.gen_l(image, mat_vec(s, basis_vector(n, i)))
                     for i in range(n))
    e_images, f_images = [], []
    for i in range(n):
        if i == p:
            if direction == "+":
                e_images.append(DoubleElement.gen_f(image, p)
                                * _invert_monomial(DoubleElement.gen_l(image, p)))
                f_images.append(_invert_monomial(DoubleElement.gen_k(image, p))
                                * DoubleElement.gen_e(image, p))
            else:
                e_images.append(_invert_monomial(DoubleElement.gen_k(image, p))
                                * DoubleElement.gen_f(image, p))
                f_images.append(DoubleElement.gen_e(image, p)
                                * _invert_monomial(DoubleElement.gen_l(image, p)))
            continue
        c = chi.cartan_entry(p, i)
        if direction == "+":
            e_images.append(DoubleElement.from_free(e_plus(image, p, i, -c)))
            lam = image.lambda_factor(p, i)
            f_images.append(DoubleElement.from_free(
                f_plus(image, p, i, -c)).scale(lam.inverse()))
        else:
            lam = image.inverse().lambda_factor(p, i)
            e_images.append(DoubleElement.from_free(
                e_minus(image, p, i, -c)).scale(lam.inverse()))
            sign = image.ctx.integer(-1) ** c
            f_images.append(DoubleElement.from_free(
                f_minus(image, p, i, -c)).scale(sign))
    name = f"T_{p}" if direction == "+" else f"T_{p}^-"
    result = LusztigMap(name, chi, image, tuple(e_images), tuple(f_images),
                        k_images, l_images, direction, p)
    chi._cache[cache_key] = result
    return result


def lusztig_chain(chi, word, direction="+"):
    """Maps along a reflection word; the first letter is applied first."""
    maps = []
    current = chi
    for p in word:
        m = build_lusztig_map(current, p, direction)
        maps.append(m)
        current = m.target
    return maps


def chain_apply(maps, x):
    """Apply the maps in order, reducing modulo the Nichols ideal after
    every stage; valid because the induced maps on the Nichols quotients
    are what every consumer of a chain compares."""
    for m in maps:
        x = reduce_mod_nichols(m.apply(x))
    return x


@dataclass
class RelationReport:
    passed: bool
    failures: list


def check_defining_relations(tmap, degree_cap=DEFAULT_DEGREE_CAP):
    """Substitute the generator images into every defining relation of the
    source double; K-relations must vanish exactly, E/F relations vanish
    in the Nichols quotient of the target."""
    chi = tmap.source
    n = chi.rank
    failures = []
    k_inv = [_invert_monomial(x) for x in tmap.k_images]
    l_inv = [_invert_monomial(x) for x in tmap.l_images]

    def exact(label, element):
        if not element.is_zero():
            failures.append((label, element.render()))

    def mod_nichols(label, element):
        if not is_zero_in_u(element, degree_cap):
            failures.append((label, element.render()))

    group = list(tmap.k_images) + list(tmap.l_images) + k_inv + l_inv
    for a in range(len(group)):
        for b in range(a + 1, len(group)):
            exact(f"KL-commute[{a},{b}]", group[a] * group[b] - group[b] * group[a])
    unit = DoubleElement.unit(tmap.target)
    for i in range(n):
        exact(f"KK^-1[{i}]", tmap.k_images[i] * k_inv[i] - unit)
        exact(f"LL^-1[{i}]", tmap.l_images[i] * l_inv[i] - unit)
    for i in range(n):
        for j in range(n):
            qij, qji = chi.entries[i][j], chi.entries[j][i]
            exact(f"KE[{i},{j}]",
                  tmap.k_images[i] * tmap.e_images[j] * k_inv[i]
                  - tmap.e_images[j].scale(qij))
            exact(f"LE[{i},{j}]",
                  tmap.l_images[i] * tmap.e_images[j] * l_inv[i]
                  - tmap.e_images[j].scale(qji.inverse()))
            exact(f"KF[{i},{j}]",
                  tmap.k_images[i] * tmap.f_images[j] * k_inv[i]
                  - tmap.f_images[j].scale(qij.inverse()))
            exact(f"LF[{i},{j}]",
                  tmap.l_images[i] * tmap.f_images[j] * l_inv[i]
                  - tmap.f_images[j].scale(qji))
            lhs = (tmap.e_images[i] * tmap.f_images[j]
                   - tmap.f_images[j] * tmap.e_images[i])
            if i == j:
                lhs = lhs - (tmap.k_images[i] - tmap.l_images[i])
            mod_nichols(f"EF[{i},{j}]", lhs)
    return RelationReport(not failures, failures)


# scalar-ratio solving mod the Nichols ideal ----------------------------------

def solve_ratio_mod_nichols(lhs, rhs, degree_cap=DEFAULT_DEGREE_CAP):
    """The unique scalar a with lhs = a * rhs in U(chi), or None if rhs
    vanishes in U or no consistent a exists."""
    return blocks_ratio(lhs, rhs, nichols_functionals(lhs.chi), degree_cap)


def equal_mod_nichols(lhs, rhs, degree_cap=DEFAULT_DEGREE_CAP):
    return is_zero_in_u(lhs - rhs, degree_cap)


def serre_image_proportionality(chi, p, i, degree_cap=DEFAULT_DEGREE_CAP):
    """Check the transported high Serre element against the q-commutator
    expression over the reflected object, modulo its root-vector ideal;
    returns the proportionality scalar."""
    cip = chi.cartan_entry(i, p)
    cpi = chi.cartan_entry(p, i)
    tmap = build_lusztig_map(chi, p)
    target = tmap.target
    g = e_plus(chi, i, p, 1 - cip)
    lhs = tmap.apply(DoubleElement.from_free(g))
    x = DoubleElement.gen_e(target, p)
    for _ in range(1 - cip):
        x = ad_e_prime(i, x)
    for _ in range(-cpi * (1 - cip) - 2):
        x = ad_e(p, x)
    ann = IdealAnnihilators(target, build_ideal(target, p, verify=False).generators)
    return blocks_ratio(lhs, x, ann.annihilator, degree_cap)


# Coxeter relations -------------------------------------------------------------

@dataclass
class CoxeterReport:
    M: int
    twist: tuple  # diagonal of phi_a making the two chains equal


def coxeter_check(chi, i, j, rank2_cap=64, degree_cap=DEFAULT_DEGREE_CAP):
    """Both alternating Lusztig chains of length M; solves the diagonal
    twist and verifies the relation on every generator."""
    M = rank2_M(chi, i, j, rank2_cap)
    if M is None:
        raise InfiniteGroupoidError(f"rank-2 cap reached for pair ({i}, {j})")
    word_lhs = tuple(i if t % 2 == 0 else j for t in range(M))   # i_1 i_2 ...
    word_rhs = tuple(j if t % 2 == 0 else i for t in range(M))   # i_0 i_1 ...
    maps_lhs = lusztig_chain(chi, word_lhs)
    maps_rhs = lusztig_chain(chi, word_rhs)
    if maps_lhs[-1].target.key != maps_rhs[-1].target.key:
        raise AssertionError("alternating chains end at different objects")
    n = chi.rank
    twist = []
    for k in range(n):
        lhs = chain_apply(maps_lhs, DoubleElement.gen_e(chi, k))
        rhs = chain_apply(maps_rhs, DoubleElement.gen_e(chi, k))
        a_k = solve_ratio_mod_nichols(lhs, rhs, degree_cap)
        if a_k is None or a_k.is_zero():
            raise AssertionError(f"no invertible twist on E_{k}")
        twist.append(a_k)
    for k in range(n):
        lhs = chain_apply(maps_lhs, DoubleElement.gen_f(chi, k))
        rhs = chain_apply(maps_rhs, DoubleElement.gen_f(chi, k))
        if not equal_mod_nichols(lhs, rhs.scale(twist[k].inverse()), degree_cap):
            raise AssertionError(f"twisted relation fails on F_{k}")
    for k in range(n):
        for gen in (DoubleElement.gen_k, DoubleElement.gen_l):
            lhs = chain_apply(maps_lhs, gen(chi, k))
            rhs = chain_apply(maps_rhs, gen(chi, k))
            if lhs != rhs:
                raise AssertionError(f"group-like images differ at index {k}")
    return CoxeterReport(M, tuple(twist))


# images in the positive part ----------------------------------------------------

def word_morphism_data(chi, word):
    """(composed matrix, target bicharacter) of s_{i_k} ... s_{i_1}."""
    matrix = mat_identity(chi.rank)
    current = chi
    for p in word:
        s, current = current.reflect(p)
        matrix = mat_mul_int(s, matrix)
    return matrix, current


def w_image_in_positive_part(scheme, word, p, degree_cap=DEFAULT_DEGREE_CAP,
                             morphism_cap=DEFAULT_MORPHISM_CAP):
    """Image of E_p under the chain of the reduced word lies in the upper
    triangular part of the target, provided w(alpha_p) is positive."""
    chi = scheme.objects[scheme.source_key]
    matrix, target = word_morphism_data(chi, word)
    morphisms = morphisms_within_cap(scheme, scheme.source_key, morphism_cap)
    dist = {(m.target, m.matrix): len(m.word) for m in morphisms}
    if dist.get((target.key, matrix)) != len(word):
        raise ValueError("word is not reduced")
    w_alpha = mat_vec(matrix, basis_vector(chi.rank, p))
    roots = real_roots(scheme, target.key, morphism_cap)
    if w_alpha not in set(roots.positive):
        raise ValueError("w(alpha_p) is not a positive root of the target")
    image = chain_apply(lusztig_chain(chi, word), DoubleElement.gen_e(chi, p))
    return _congruent_to_e_part(image, degree_cap)


def _congruent_to_e_part(x, degree_cap):
    """Whether x is congruent to its E-part modulo the Nichols ideal."""
    return is_zero_in_u(x - DoubleElement.from_free(x.e_part()), degree_cap)


# longest element factorization ---------------------------------------------------

@dataclass
class LongestFactorization:
    word: tuple
    tau: tuple
    lambdas: tuple


def longest_factorization(scheme, degree_cap=DEFAULT_DEGREE_CAP,
                          morphism_cap=DEFAULT_MORPHISM_CAP):
    """T along a reduced word of the longest element equals
    phi_1 . phi_tau . phi_lambda, with tau read off the root action."""
    chi = scheme.objects[scheme.source_key]
    n = chi.rank
    word = longest_word_from(scheme, scheme.source_key, morphism_cap)
    matrix, target = word_morphism_data(chi, word)
    tau = []
    for idx in range(n):
        image_vec = mat_vec(matrix, basis_vector(n, idx))
        neg = tuple(-x for x in image_vec)
        t = next((m for m in range(n) if neg == basis_vector(n, m)), None)
        if t is None:
            raise AssertionError("longest element does not negate simple roots")
        tau.append(t)
    if sorted(tau) != list(range(n)):
        raise AssertionError("root permutation is not a bijection")
    maps = lusztig_chain(chi, word)
    # solve lambda_i from the E_i image against F_{tau(i)} L_{tau(i)}^-1
    lambdas = []
    for idx in range(n):
        image = chain_apply(maps, DoubleElement.gen_e(chi, idx))
        pattern = (DoubleElement.gen_f(target, tau[idx])
                   * _invert_monomial(DoubleElement.gen_l(target, tau[idx])))
        lam = solve_ratio_mod_nichols(image, pattern, degree_cap)
        if lam is None or lam.is_zero():
            raise AssertionError(f"no invertible scalar on E_{idx}")
        lambdas.append(lam)
    # verify the factorization on the remaining generators
    perm_map = phi_perm(chi, tuple(tau))
    if perm_map.target.key != target.key:
        raise AssertionError("permutation pullback does not match the endpoint")
    reference = phi_1(target)
    for idx in range(n):
        img_k = chain_apply(maps, DoubleElement.gen_k(chi, idx))
        want_k = reference.apply(perm_map.apply(DoubleElement.gen_k(chi, idx)))
        img_l = chain_apply(maps, DoubleElement.gen_l(chi, idx))
        want_l = reference.apply(perm_map.apply(DoubleElement.gen_l(chi, idx)))
        if img_k != want_k or img_l != want_l:
            raise AssertionError(f"group-like factorization fails at {idx}")
        img_f = chain_apply(maps, DoubleElement.gen_f(chi, idx))
        want_f = reference.apply(perm_map.apply(DoubleElement.gen_f(chi, idx)))
        if not equal_mod_nichols(img_f, want_f.scale(lambdas[idx].inverse()),
                                 degree_cap):
            raise AssertionError(f"F-factorization fails at {idx}")
    return LongestFactorization(word, tuple(tau), tuple(lambdas))


# ideal membership at fixed degree -------------------------------------------------

def ideal_span_rows(chi, gens, mu, side=E_SIDE):
    """Spanning row vectors (over the words of degree mu) of the two-sided
    ideal generated by the given one-sided elements, at degree mu."""
    n = chi.rank
    words = words_of_degree(n, mu)
    index = {w: t for t, w in enumerate(words)}
    rows = []
    for g in gens:
        nu = g.degree()
        if nu is None:
            raise ValueError("ideal generators must be homogeneous")
        rest = tuple(m - v for m, v in zip(mu, nu))
        if any(x < 0 for x in rest):
            continue
        for left_mu in _sub_degrees(rest):
            right_mu = tuple(r - l for r, l in zip(rest, left_mu))
            for a in words_of_degree(n, left_mu):
                for b in words_of_degree(n, right_mu):
                    row = [chi.ctx.zero] * len(words)
                    for w, c in g.terms.items():
                        row[index[a + w + b]] = row[index[a + w + b]] + c
                    rows.append(row)
    return rows


def _sub_degrees(mu):
    if not mu:
        yield ()
        return
    for head in range(mu[0] + 1):
        for tail in _sub_degrees(mu[1:]):
            yield (head,) + tail


class IdealAnnihilators:
    """Cached annihilator functionals of degree-truncated ideal spans;
    ``annihilator`` is the ideal's ``functionals(mu, side)`` for
    :func:`double.blocks_zero` and :func:`double.blocks_ratio`."""

    def __init__(self, chi, e_gens):
        self.chi = chi
        self.e_gens = list(e_gens)
        # F-side ideal: phi_4 image, i.e. reversed words on F-letters.
        self.f_gens = [FreeElement(chi, F_SIDE,
                                   {tuple(reversed(w)): c for w, c in g.terms.items()})
                       for g in e_gens]
        self._ann = {}

    def annihilator(self, mu, side):
        key = (mu, side)
        if key in self._ann:
            return self._ann[key]
        gens = self.e_gens if side == E_SIDE else self.f_gens
        rows = ideal_span_rows(self.chi, gens, mu, side)
        nwords = len(words_of_degree(self.chi.rank, mu))
        if not rows:
            ann = [[self.chi.ctx.one if t == s else self.chi.ctx.zero
                    for t in range(nwords)] for s in range(nwords)]
        else:
            ann = [list(v) for v in nullspace(rows, self.chi.ctx)]
        self._ann[key] = ann
        return ann

    def contains(self, x, mu, side):
        """Membership of a free element in the degree-mu ideal span."""
        words = words_of_degree(self.chi.rank, mu)
        vec = [x.terms.get(w, self.chi.ctx.zero) for w in words]
        for functional in self.annihilator(mu, side):
            total = self.chi.ctx.zero
            for f, v in zip(functional, vec):
                if not v.is_zero():
                    total = total + f * v
            if not total.is_zero():
                return False
        return True


# the characterization machinery -----------------------------------------------

@dataclass
class CharacterizationReport:
    passed: bool
    precondition_failures: list
    failures: list  # (object key, p, label, witness render)


def serre_family(scheme):
    """Per object: the union of the root-vector ideal generators."""
    family = {}
    for key, chi in scheme.objects.items():
        gens = []
        seen = set()
        for p in range(chi.rank):
            for g in build_ideal(chi, p, verify=False).generators:
                canon = g.canonical()
                if canon not in seen:
                    seen.add(canon)
                    gens.append(g)
        family[key] = gens
    return family


def nichols_characterization(scheme, family, degree_cap=DEFAULT_DEGREE_CAP,
                             check_generators=True):
    """Executable form of the finite-root-system characterization: every
    transport map must kill the defining relations and the ideal
    generators modulo the target family's ideal."""
    scheme.require_complete()
    pre_failures = []
    failures = []
    annihilators = {key: IdealAnnihilators(scheme.objects[key], gens)
                    for key, gens in family.items()}
    # hypothesis checks on the family
    for key, gens in family.items():
        chi = scheme.objects[key]
        ann = annihilators[key]
        for g in gens:
            mu = g.degree()
            if mu is None or sum(mu) < 2:
                pre_failures.append((key, "generator not homogeneous of degree >= 2",
                                     g.render()))
                continue
            if not nichols_is_zero(g, degree_cap):
                pre_failures.append((key, "generator not Nichols-zero", g.render()))
            for p in range(chi.rank):
                down = tuple(m - e for m, e in zip(mu, basis_vector(chi.rank, p)))
                for der, label in ((der_k, "derK"), (der_l, "derL")):
                    image = der(p, g)
                    if image.is_zero():
                        continue
                    if any(x < 0 for x in down) or not ann.contains(image, down, E_SIDE):
                        pre_failures.append(
                            (key, f"{label}_{p} instability", image.render()))
        for p in range(chi.rank):
            for g in build_ideal(chi, p, verify=False).generators:
                mu = g.degree()
                if not ann.contains(g, mu, E_SIDE):
                    pre_failures.append(
                        (key, f"root-vector ideal at p={p} not contained", g.render()))
    # condition (3): well-definedness and generator images, per (object, p)
    for key, gens in family.items():
        chi = scheme.objects[key]
        for p in range(chi.rank):
            target_key = scheme.edges[(key, p)]
            ann = annihilators[target_key]
            tmap = build_lusztig_map(chi, p)
            for i in range(chi.rank):
                for j in range(chi.rank):
                    lhs = (tmap.e_images[i] * tmap.f_images[j]
                           - tmap.f_images[j] * tmap.e_images[i])
                    if i == j:
                        lhs = lhs - (tmap.k_images[i] - tmap.l_images[i])
                    if not blocks_zero(lhs, ann.annihilator, degree_cap):
                        failures.append((key, p, f"relation EF[{i},{j}]",
                                         lhs.render()))
            if check_generators:
                for g in gens:
                    image = tmap.apply(DoubleElement.from_free(g))
                    if not blocks_zero(image, ann.annihilator, degree_cap):
                        failures.append((key, p, "generator image", g.render()))
    return CharacterizationReport(not (failures or pre_failures),
                                  pre_failures, failures)


# derivation intertwiner ---------------------------------------------------------

def derivation_intertwiner_check(chi, p, i, degree_cap=DEFAULT_DEGREE_CAP):
    """Instance check of the commutation between der_l and T_p.

    The diagonal twist is solved on the subalgebra generators; on
    products the composite propagates as a twisted derivation, so every
    product sample must reproduce the *same* factor as the base sample
    (one twist per derivation application, not one per letter)."""
    c = chi.cartan_entry(p, i)
    tmap = build_lusztig_map(chi, p)
    target = tmap.target

    def factor_of(x_free):
        x = DoubleElement.from_free(x_free)
        img = tmap.apply(x)
        if not _congruent_to_e_part(img, degree_cap):
            raise AssertionError("transport image is not in the positive part")
        lhs = DoubleElement.from_free(der_l(i, img.e_part()))
        y = der_l(i, x_free)
        for _ in range(-c):
            y = der_l(p, y)
        rhs = tmap.apply(DoubleElement.from_free(y))
        return solve_ratio_mod_nichols(lhs, rhs, degree_cap)

    base = e_minus(chi, p, i, -c)
    factors = [(base.degree(), factor_of(base))]
    base_f = factors[0][1]
    if base_f is None:
        raise AssertionError("base sample degenerates")
    consistent = True
    samples = [base * base, base * base * base]
    if -c >= 1:
        samples.append(base * e_minus(chi, p, i, -c - 1))
        samples.append(e_minus(chi, p, i, -c - 1) * base)
    for x in samples:
        f = factor_of(x)
        factors.append((x.degree(), f))
        if f != base_f:
            consistent = False
    return factors, consistent
