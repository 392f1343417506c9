"""Triangular normal-form arithmetic in the double of a bicharacter.

Elements are finite sums of terms F_word * K^k L^l * E_word with scalar
coefficients.  Multiplication straightens concatenations to this normal
form using the defining relations: E-letters move left past F-letters,
producing K - L correction terms; K/L monomials commute with letters up
to bicharacter scalars.  The normal form is unique (triangular
decomposition), so equality of elements is term-wise.
"""

from dataclasses import dataclass

from .bicharacter import basis_vector, vec_add, vec_neg
from .freealg import (DEFAULT_DEGREE_CAP, E_SIDE, F_SIDE, DegreeCapExceeded,
                      FreeElement, gram_matrix, word_degree, words_of_degree)
from .linalg import mat_is_zero, mat_mul, nullspace, rref

def _zvec(n):
    return (0,) * n


class DoubleElement:
    """Normal-form element: {(F-word, K-exps, L-exps, E-word): scalar}."""

    __slots__ = ("chi", "terms")

    def __init__(self, chi, terms):
        self.chi = chi
        self.terms = terms

    # constructors -------------------------------------------------------

    @staticmethod
    def zero(chi):
        return DoubleElement(chi, {})

    @staticmethod
    def unit(chi):
        n = chi.rank
        return DoubleElement(chi, {((), _zvec(n), _zvec(n), ()): chi.ctx.one})

    @staticmethod
    def gen_e(chi, i):
        n = chi.rank
        return DoubleElement(chi, {((), _zvec(n), _zvec(n), (i,)): chi.ctx.one})

    @staticmethod
    def gen_f(chi, i):
        n = chi.rank
        return DoubleElement(chi, {((i,), _zvec(n), _zvec(n), ()): chi.ctx.one})

    @staticmethod
    def gen_k(chi, mu):
        n = chi.rank
        if isinstance(mu, int):
            mu = basis_vector(n, mu)
        return DoubleElement(chi, {((), tuple(mu), _zvec(n), ()): chi.ctx.one})

    @staticmethod
    def gen_l(chi, mu):
        n = chi.rank
        if isinstance(mu, int):
            mu = basis_vector(n, mu)
        return DoubleElement(chi, {((), _zvec(n), tuple(mu), ()): chi.ctx.one})

    @staticmethod
    def from_free(x):
        """Embed a one-sided free element."""
        n = x.chi.rank
        z = _zvec(n)
        if x.side == E_SIDE:
            terms = {((), z, z, w): c for w, c in x.terms.items()}
        else:
            terms = {(w, z, z, ()): c for w, c in x.terms.items()}
        return DoubleElement(x.chi, terms)

    # basic structure ------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, DoubleElement):
            raise TypeError("expected DoubleElement")
        if other.chi.key != self.chi.key:
            raise ValueError("elements over different bicharacters")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            acc = terms.get(key)
            total = c if acc is None else acc + c
            if total.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = total
        return DoubleElement(self.chi, terms)

    def __neg__(self):
        return DoubleElement(self.chi, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        if scalar.is_zero():
            return DoubleElement.zero(self.chi)
        return DoubleElement(self.chi, {k: c * scalar for k, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, DoubleElement)
                and self.chi.key == other.chi.key and self.terms == other.terms)

    def __hash__(self):
        return hash(self.canonical())

    def canonical(self):
        return tuple(sorted(
            self.terms.items(),
            key=lambda kv: (len(kv[0][0]) + len(kv[0][3]), kv[0])))

    def zi_degree(self):
        """Z^I-degree if homogeneous (deg E-word - deg F-word), else None."""
        n = self.chi.rank
        degrees = set()
        for (f, _, _, e) in self.terms:
            degrees.add(tuple(a - b for a, b in
                              zip(word_degree(n, e), word_degree(n, f))))
        if len(degrees) == 1:
            return next(iter(degrees))
        return None

    def e_part(self):
        """The F-free, K/L-free part as an E-side FreeElement."""
        n = self.chi.rank
        z = _zvec(n)
        terms = {e: c for (f, k, l, e), c in self.terms.items()
                 if not f and k == z and l == z}
        return FreeElement(self.chi, E_SIDE, terms)

    def f_part(self):
        n = self.chi.rank
        z = _zvec(n)
        terms = {f: c for (f, k, l, e), c in self.terms.items()
                 if not e and k == z and l == z}
        return FreeElement(self.chi, F_SIDE, terms)

    def counit(self):
        n = self.chi.rank
        total = self.chi.ctx.zero
        for (f, k, l, e), c in self.terms.items():
            if not f and not e:
                total = total + c  # group-likes have counit 1
        return total

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for (f, k, l, e), c in self.canonical():
            groups = []
            if f:
                groups.append("*".join(f"F{i + 1}" for i in f))
            kl = []
            if any(k):
                kl.append("K^(" + ",".join(map(str, k)) + ")")
            if any(l):
                kl.append("L^(" + ",".join(map(str, l)) + ")")
            if kl:
                groups.append(" ".join(kl))
            if e:
                groups.append("*".join(f"E{i + 1}" for i in e))
            body = " * ".join(groups) if groups else "1"
            coeff = str(c)
            if coeff == "1" and groups:
                parts.append(body)
            elif coeff == "-1" and groups:
                parts.append(f"-{body}")
            else:
                wrapped = f"({coeff})" if ("+" in coeff or " - " in coeff) else coeff
                parts.append(wrapped if not groups else f"{wrapped}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"<<{self.render()}>>"

    def __mul__(self, other):
        self._check(other)
        chi = self.chi
        out = {}
        for (f1, k1, l1, e1), c1 in self.terms.items():
            for (f2, k2, l2, e2), c2 in other.terms.items():
                base = c1 * c2
                for (fm, km, lm, em), cm in _term_product(
                        chi, f1, k1, l1, e1, f2, k2, l2, e2).items():
                    total = base * cm
                    key = (fm, km, lm, em)
                    acc = out.get(key)
                    total = total if acc is None else acc + total
                    if total.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = total
        return DoubleElement(chi, out)


# straightening --------------------------------------------------------------

def _ef_single(chi, i, f):
    """Normal form of E_i * F_f, for a single E-letter."""
    cache = chi._cache.setdefault("ef_single", {})
    key = (i, f)
    if key in cache:
        return cache[key]
    n = chi.rank
    z = _zvec(n)
    one = chi.ctx.one
    if not f:
        result = {((), z, z, (i,)): one}
    else:
        j, rest = f[0], f[1:]
        result = {}
        for (fw, k, l, ew), c in _ef_single(chi, i, rest).items():
            result[((j,) + fw, k, l, ew)] = c
        if i == j:
            nu = word_degree(n, rest)
            alpha = basis_vector(n, i)
            ck = chi.value(alpha, nu).inverse()
            cl = chi.value(nu, alpha)
            for fkey, coeff in ((
                    (rest, alpha, z, ()), ck), ((rest, z, alpha, ()), -cl)):
                acc = result.get(fkey)
                total = coeff if acc is None else acc + coeff
                if total.is_zero():
                    result.pop(fkey, None)
                else:
                    result[fkey] = total
    cache[key] = result
    return result


def _ef_words(chi, e, f):
    """Normal form of E_e * F_f."""
    cache = chi._cache.setdefault("ef_words", {})
    key = (e, f)
    if key in cache:
        return cache[key]
    n = chi.rank
    z = _zvec(n)
    one = chi.ctx.one
    if not e:
        result = {(f, z, z, ()): one}
    elif not f:
        result = {((), z, z, e): one}
    else:
        i, head = e[-1], e[:-1]
        result = {}
        for (f1, k1, l1, e1), c1 in _ef_single(chi, i, f).items():
            for (f2, k2, l2, e2), c2 in _ef_words(chi, head, f1).items():
                # move K^k1 L^l1 left past E_{e2}
                nu = word_degree(n, e2)
                factor = chi.value(k1, nu).inverse() * chi.value(nu, l1)
                coeff = c1 * c2 * factor
                keyt = (f2, vec_add(k2, k1), vec_add(l2, l1), e2 + e1)
                acc = result.get(keyt)
                total = coeff if acc is None else acc + coeff
                if total.is_zero():
                    result.pop(keyt, None)
                else:
                    result[keyt] = total
    cache[key] = result
    return result


def _term_product(chi, f1, k1, l1, e1, f2, k2, l2, e2):
    """Normal form of (F_f1 K^k1 L^l1 E_e1) * (F_f2 K^k2 L^l2 E_e2),
    coefficient 1."""
    n = chi.rank
    out = {}
    for (fm, km, lm, em), cm in _ef_words(chi, e1, f2).items():
        # K^k1 L^l1 right past F_fm;  K^k2 L^l2 left past E_em.
        nu_f = word_degree(n, fm)
        nu_e = word_degree(n, em)
        factor = (chi.value(k1, nu_f).inverse() * chi.value(nu_f, l1)
                  * chi.value(k2, nu_e).inverse() * chi.value(nu_e, l2))
        key = (f1 + fm, vec_add(vec_add(k1, km), k2),
               vec_add(vec_add(l1, lm), l2), em + e2)
        coeff = cm * factor
        acc = out.get(key)
        total = coeff if acc is None else acc + coeff
        if total.is_zero():
            out.pop(key, None)
        else:
            out[key] = total
    return out


# adjoint-type actions ---------------------------------------------------------

def act_k_double(mu, x):
    """Conjugation by K_mu: scales a term of Z^I-degree nu by chi(mu, nu)."""
    chi = x.chi
    n = chi.rank
    out = {}
    for (f, k, l, e), c in x.terms.items():
        nu = tuple(a - b for a, b in zip(word_degree(n, e), word_degree(n, f)))
        out[(f, k, l, e)] = c * chi.value(mu, nu)
    return DoubleElement(chi, out)


def act_l_double(mu, x):
    """Conjugation by L_mu: scales a term of Z^I-degree nu by chi(nu, mu)^-1."""
    chi = x.chi
    n = chi.rank
    out = {}
    for (f, k, l, e), c in x.terms.items():
        nu = tuple(a - b for a, b in zip(word_degree(n, e), word_degree(n, f)))
        out[(f, k, l, e)] = c * chi.value(nu, mu).inverse()
    return DoubleElement(chi, out)


def ad_e(p, x):
    """(ad E_p) x = E_p x - (K_p acting on x) E_p."""
    chi = x.chi
    ep = DoubleElement.gen_e(chi, p)
    return ep * x - act_k_double(basis_vector(chi.rank, p), x) * ep


def ad_e_prime(i, x):
    """(ad' E_i) x = E_i x - (L_i acting on x) E_i."""
    chi = x.chi
    ei = DoubleElement.gen_e(chi, i)
    return ei * x - act_l_double(basis_vector(chi.rank, i), x) * ei


def commutator(a, b):
    return a * b - b * a


# skew-Hopf pairing -------------------------------------------------------------

def _pair_words(chi, w, v, memo):
    """eta(E_w, F_v) for words; zero unless the contents match."""
    if not w:
        return chi.ctx.one if not v else chi.ctx.zero
    if not v:
        return chi.ctx.zero
    key = (w, v)
    cached = memo.get(key)
    if cached is not None:
        return cached
    i, rest = w[0], w[1:]
    total = chi.ctx.zero
    for t in range(len(v)):
        if v[t] != i:
            continue
        factor = chi.ctx.one
        for s in range(t):
            factor = factor * chi.entries[v[t]][v[s]]
        total = total - factor * _pair_words(chi, rest, v[:t] + v[t + 1:], memo)
    memo[key] = total
    return total


def pairing(x, y, k_mu=None, l_nu=None):
    """Skew-Hopf pairing of an E-side element (times K_mu) with an F-side
    element (times L_nu): eta(E K, F L) = eta(E, F) chi(mu, nu)."""
    if x.side != E_SIDE or y.side != F_SIDE:
        raise ValueError("pairing expects (E-side, F-side)")
    if x.chi.key != y.chi.key:
        raise ValueError("pairing operands over different bicharacters")
    chi = x.chi
    memo = chi._cache.setdefault("pairing", {})
    total = chi.ctx.zero
    for w, cw in x.terms.items():
        for v, cv in y.terms.items():
            if word_degree(chi.rank, w) != word_degree(chi.rank, v):
                continue
            total = total + cw * cv * _pair_words(chi, w, v, memo)
    if k_mu is not None or l_nu is not None:
        k_mu = tuple(k_mu) if k_mu is not None else (0,) * chi.rank
        l_nu = tuple(l_nu) if l_nu is not None else (0,) * chi.rank
        total = total * chi.value(k_mu, l_nu)
    return total


def pairing_gram(chi, mu):
    """Gram matrix eta(E_u, F_v) over words of degree mu."""
    words = words_of_degree(chi.rank, mu)
    memo = chi._cache.setdefault("pairing", {})
    return [[_pair_words(chi, u, v, memo) for v in words] for u in words]


# quotients by an ideal given through its functionals ---------------------------
#
# A two-sided ideal generated by one-sided homogeneous elements is
# described by its functionals: functionals(mu, side) is a matrix whose
# rows vanish exactly on the ideal's degree-mu component on that side.  A
# block C of an element (F-words x E-words) lies in the ideal iff
# A_F C A_E^T = 0 for the functionals A_F, A_E of its bidegree.

def blocks(x):
    """Group terms into coefficient matrices per (K, L, degF, degE):
    {(k, l, muF, muE): matrix indexed by (F-words(muF), E-words(muE))}."""
    chi = x.chi
    n = chi.rank
    grouped = {}
    for (f, k, l, e), c in x.terms.items():
        muF, muE = word_degree(n, f), word_degree(n, e)
        grouped.setdefault((k, l, muF, muE), {})[(f, e)] = c
    out = {}
    for (k, l, muF, muE), cells in grouped.items():
        fwords = words_of_degree(n, muF)
        ewords = words_of_degree(n, muE)
        matrix = [[cells.get((fw, ew), chi.ctx.zero) for ew in ewords]
                  for fw in fwords]
        out[(k, l, muF, muE)] = matrix
    return out


def nichols_functionals(chi):
    """Functionals of the Nichols ideal: the derivation Gram matrix over
    chi on the E-side and over chi^op on the F-side (transport along
    phi_3).  Its radical is exactly the Nichols component."""
    op = chi.op()
    return lambda mu, side: gram_matrix(chi if side == E_SIDE else op, mu)


def _block_functionals(key, functionals, degree_cap):
    _, _, mu_f, mu_e = key
    if sum(mu_f) > degree_cap or sum(mu_e) > degree_cap:
        raise DegreeCapExceeded(
            f"block bidegree ({mu_f}, {mu_e}) exceeds the degree cap "
            f"{degree_cap} (raise it with --degree-cap)")
    return functionals(mu_f, F_SIDE), functionals(mu_e, E_SIDE)


def _sandwich(a_f, c_matrix, a_e, ctx):
    """A_F C A_E^T."""
    a_e_t = [list(col) for col in zip(*a_e)]
    return mat_mul(mat_mul(a_f, c_matrix, ctx), a_e_t, ctx)


def blocks_zero(x, functionals, degree_cap=DEFAULT_DEGREE_CAP):
    """Whether x lies in the ideal described by functionals."""
    ctx = x.chi.ctx
    for key, c_matrix in blocks(x).items():
        a_f, a_e = _block_functionals(key, functionals, degree_cap)
        if a_f and a_e and not mat_is_zero(_sandwich(a_f, c_matrix, a_e, ctx)):
            return False
    return True


def blocks_ratio(lhs, rhs, functionals, degree_cap=DEFAULT_DEGREE_CAP):
    """The unique scalar a with lhs = a * rhs modulo the ideal described
    by functionals, or None if rhs lies in the ideal or no consistent a
    exists."""
    chi = lhs.chi
    lb, rb = blocks(lhs), blocks(rhs)
    ratio = None
    rhs_nonzero = False
    for key in sorted(set(lb) | set(rb)):
        a_f, a_e = _block_functionals(key, functionals, degree_cap)
        if not a_f or not a_e:
            continue
        _, _, mu_f, mu_e = key
        nf = len(words_of_degree(chi.rank, mu_f))
        ne = len(words_of_degree(chi.rank, mu_e))
        zero_block = [[chi.ctx.zero] * ne for _ in range(nf)]
        lm = _sandwich(a_f, lb.get(key, zero_block), a_e, chi.ctx)
        rm = _sandwich(a_f, rb.get(key, zero_block), a_e, chi.ctx)
        for row_l, row_r in zip(lm, rm):
            for x, y in zip(row_l, row_r):
                if y.is_zero():
                    if not x.is_zero():
                        return None
                    continue
                rhs_nonzero = True
                candidate = x / y
                if ratio is None:
                    ratio = candidate
                elif ratio != candidate:
                    return None
    return ratio if rhs_nonzero else None


def is_zero_in_u(x, degree_cap=DEFAULT_DEGREE_CAP):
    """Whether x lies in the defining ideal of the Nichols quotient U(chi)."""
    return blocks_zero(x, nichols_functionals(x.chi), degree_cap)


def _kernel_rref(chi, mu):
    """Row-reduced basis (rows, pivot columns) of the Nichols-ideal
    component at degree mu, over the words of that degree."""
    cache = chi._cache.setdefault("kernel_rref", {})
    if mu not in cache:
        basis = nullspace(gram_matrix(chi, mu), chi.ctx)
        cache[mu] = rref(basis) if basis else ([], [])
    return cache[mu]


def _reduce_vec(vec, rows, pivots, ctx):
    for row, p in zip(rows, pivots):
        c = vec[p]
        if not c.is_zero():
            vec = [a - c * b for a, b in zip(vec, row)]
    return vec


def reduce_mod_nichols(x):
    """Canonical representative of x modulo the Nichols ideal: per block,
    rows are reduced against the E-side kernel and columns against the
    F-side kernel, leaving support only on complement coordinates."""
    chi = x.chi
    ctx = chi.ctx
    n = chi.rank
    out = {}
    for (k, l, mu_f, mu_e), c_matrix in blocks(x).items():
        rows_e, piv_e = _kernel_rref(chi, mu_e)
        rows_f, piv_f = _kernel_rref(chi.op(), mu_f)
        reduced = [_reduce_vec(row, rows_e, piv_e, ctx) for row in c_matrix]
        if rows_f:
            cols = [list(col) for col in zip(*reduced)]
            cols = [_reduce_vec(col, rows_f, piv_f, ctx) for col in cols]
            reduced = [list(row) for row in zip(*cols)]
        fwords = words_of_degree(n, mu_f)
        ewords = words_of_degree(n, mu_e)
        for a, fw in enumerate(fwords):
            for b, ew in enumerate(ewords):
                c = reduced[a][b]
                if not c.is_zero():
                    out[(fw, k, l, ew)] = c
    return DoubleElement(chi, out)


# generator-image maps ----------------------------------------------------------

@dataclass
class DoubleMap:
    """Algebra (anti)homomorphism given by generator images.

    K/L images must be single invertible monomial terms; E/F images are
    arbitrary elements of the target double.
    """
    name: str
    source: object
    target: object
    e_images: tuple
    f_images: tuple
    k_images: tuple
    l_images: tuple
    anti: bool = False

    def apply(self, x):
        if x.chi.key != self.source.key:
            raise ValueError(f"{self.name}: element not over the source bicharacter")
        out = DoubleElement.zero(self.target)
        k_inv = [_invert_monomial(img) for img in self.k_images]
        l_inv = [_invert_monomial(img) for img in self.l_images]
        for (f, k, l, e), c in x.terms.items():
            factors = [self.f_images[i] for i in f]
            for i, m in enumerate(k):
                base = self.k_images[i] if m > 0 else k_inv[i]
                factors.extend([base] * abs(m))
            for i, m in enumerate(l):
                base = self.l_images[i] if m > 0 else l_inv[i]
                factors.extend([base] * abs(m))
            factors.extend(self.e_images[i] for i in e)
            if self.anti:
                factors.reverse()
            term = DoubleElement.unit(self.target).scale(c)
            for factor in factors:
                term = term * factor
            out = out + term
        return out


def _invert_monomial(x):
    """Inverse of a single-term group-like element c K^k L^l."""
    ((f, k, l, e), c), = x.terms.items()
    if f or e:
        raise ValueError("not a group-like monomial")
    return DoubleElement(x.chi, {((), vec_neg(k), vec_neg(l), ()): c.inverse()})


def _gens(chi):
    n = chi.rank
    return ([DoubleElement.gen_e(chi, i) for i in range(n)],
            [DoubleElement.gen_f(chi, i) for i in range(n)],
            [DoubleElement.gen_k(chi, i) for i in range(n)],
            [DoubleElement.gen_l(chi, i) for i in range(n)])


def phi_diag(chi, avec):
    """phi_a: E_i -> a_i E_i, F_i -> a_i^-1 F_i."""
    e, f, k, l = _gens(chi)
    return DoubleMap(
        "phi_a", chi, chi,
        tuple(e[i].scale(avec[i]) for i in range(chi.rank)),
        tuple(f[i].scale(avec[i].inverse()) for i in range(chi.rank)),
        tuple(k), tuple(l))


def phi_perm(chi, tau):
    """phi_tau: generator relabeling into the tau-pullback bicharacter."""
    n = chi.rank
    w = tuple(tuple(1 if i == tau[j] else 0 for j in range(n)) for i in range(n))
    target = chi.pullback(w)
    e, f, k, l = _gens(target)
    return DoubleMap(
        "phi_tau", chi, target,
        tuple(e[tau[i]] for i in range(n)), tuple(f[tau[i]] for i in range(n)),
        tuple(k[tau[i]] for i in range(n)), tuple(l[tau[i]] for i in range(n)))


def phi_shift(chi, m):
    """phi_m: E_i -> K_i^m L_i^-m E_i, F_i -> F_i K_i^-m L_i^m."""
    n = chi.rank
    e, f, k, l = _gens(chi)
    e_images = []
    f_images = []
    for i in range(n):
        alpha = basis_vector(n, i)
        km = DoubleElement.gen_k(chi, tuple(m * a for a in alpha))
        lm = DoubleElement.gen_l(chi, tuple(-m * a for a in alpha))
        e_images.append(km * lm * e[i])
        km2 = DoubleElement.gen_k(chi, tuple(-m * a for a in alpha))
        lm2 = DoubleElement.gen_l(chi, tuple(m * a for a in alpha))
        f_images.append(f[i] * km2 * lm2)
    return DoubleMap("phi_m", chi, chi, tuple(e_images), tuple(f_images),
                     tuple(k), tuple(l))


def phi_1(chi):
    """K -> K^-1, L -> L^-1, E_i -> F_i L_i^-1, F_i -> K_i^-1 E_i."""
    n = chi.rank
    e, f, k, l = _gens(chi)
    e_images = tuple(f[i] * _invert_monomial(l[i]) for i in range(n))
    f_images = tuple(_invert_monomial(k[i]) * e[i] for i in range(n))
    return DoubleMap("phi_1", chi, chi, e_images, f_images,
                     tuple(_invert_monomial(k[i]) for i in range(n)),
                     tuple(_invert_monomial(l[i]) for i in range(n)))


def phi_2(chi):
    """E_i -> F_i, F_i -> -E_i, into the inverse bicharacter."""
    target = chi.inverse()
    e, f, k, l = _gens(target)
    return DoubleMap("phi_2", chi, target,
                     tuple(f), tuple(x.scale(target.ctx.integer(-1)) for x in e),
                     tuple(k), tuple(l))


def phi_3(chi):
    """K <-> L, E_i -> F_i, F_i -> E_i, into the opposite bicharacter."""
    target = chi.op()
    e, f, k, l = _gens(target)
    return DoubleMap("phi_3", chi, target, tuple(f), tuple(e), tuple(l), tuple(k))


def phi_4(chi):
    """Antiautomorphism fixing K, L and swapping E_i <-> F_i."""
    e, f, k, l = _gens(chi)
    return DoubleMap("phi_4", chi, chi, tuple(f), tuple(e), tuple(k), tuple(l),
                     anti=True)


def antipode(chi):
    """S = phi_1 . phi_4 . phi_a with a_i = -1 (an antiautomorphism)."""
    n = chi.rank
    e, f, k, l = _gens(chi)
    minus = chi.ctx.integer(-1)
    e_images = tuple((_invert_monomial(k[i]) * e[i]).scale(minus) for i in range(n))
    f_images = tuple((f[i] * _invert_monomial(l[i])).scale(minus) for i in range(n))
    return DoubleMap("antipode", chi, chi, e_images, f_images,
                     tuple(_invert_monomial(k[i]) for i in range(n)),
                     tuple(_invert_monomial(l[i]) for i in range(n)),
                     anti=True)


def compose_on_generators(outer, inner):
    """Images of the generators under outer . inner, as four tuples."""
    if inner.target.key != outer.source.key:
        raise ValueError("composition mismatch")
    apply = outer.apply
    return (tuple(apply(img) for img in inner.e_images),
            tuple(apply(img) for img in inner.f_images),
            tuple(apply(img) for img in inner.k_images),
            tuple(apply(img) for img in inner.l_images))
