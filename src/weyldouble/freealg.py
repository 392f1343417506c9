"""Sparse Z^I-graded noncommutative polynomials and the Nichols machinery.

Elements of the tensor algebra on E_1..E_n (or F_1..F_n) are stored as
dicts mapping words (tuples of generator indices) to nonzero scalars.
The module provides the skew-derivations, the braided coproduct, the
iterated q-commutator elements, and zero-testing / dimension counting
in the Nichols quotient via the derivation pairing.
"""

from .bicharacter import basis_vector
from .linalg import rank
from .scalar import q_binomial

E_SIDE = "E"
F_SIDE = "F"

DEFAULT_DEGREE_CAP = 14


class DegreeCapExceeded(RuntimeError):
    pass


class SideMismatch(ValueError):
    pass


def word_degree(n, word):
    mu = [0] * n
    for letter in word:
        mu[letter] += 1
    return tuple(mu)


def words_of_degree(n, mu, _cache={}):
    """All words with content mu, lexicographically ordered."""
    key = (n, mu)
    if key in _cache:
        return _cache[key]
    if not any(mu):
        result = ((),)
    else:
        out = []
        for i in range(n):
            if mu[i]:
                sub = tuple(m - 1 if k == i else m for k, m in enumerate(mu))
                out.extend((i,) + w for w in words_of_degree(n, sub))
        result = tuple(out)
    _cache[key] = result
    return result


class FreeElement:
    """Finite scalar combination of words in one-sided generators."""

    __slots__ = ("chi", "side", "terms")

    def __init__(self, chi, side, terms):
        self.chi = chi
        self.side = side
        self.terms = terms

    @staticmethod
    def zero(chi, side=E_SIDE):
        return FreeElement(chi, side, {})

    @staticmethod
    def unit(chi, side=E_SIDE):
        return FreeElement(chi, side, {(): chi.ctx.one})

    @staticmethod
    def generator(chi, i, side=E_SIDE):
        return FreeElement(chi, side, {(i,): chi.ctx.one})

    @staticmethod
    def from_terms(chi, side, items):
        terms = {}
        for word, coeff in items:
            if not coeff.is_zero():
                acc = terms.get(word)
                total = coeff if acc is None else acc + coeff
                if total.is_zero():
                    terms.pop(word, None)
                else:
                    terms[word] = total
        return FreeElement(chi, side, terms)

    def _check(self, other):
        if not isinstance(other, FreeElement):
            raise TypeError("expected FreeElement")
        if other.side != self.side:
            raise SideMismatch(f"cannot combine {self.side}-side with {other.side}-side")
        if other.chi.key != self.chi.key:
            raise ValueError("elements over different bicharacters")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for word, c in other.terms.items():
            acc = terms.get(word)
            total = c if acc is None else acc + c
            if total.is_zero():
                terms.pop(word, None)
            else:
                terms[word] = total
        return FreeElement(self.chi, self.side, terms)

    def __neg__(self):
        return FreeElement(self.chi, self.side,
                           {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                c = c1 * c2
                acc = terms.get(word)
                total = c if acc is None else acc + c
                if total.is_zero():
                    terms.pop(word, None)
                else:
                    terms[word] = total
        return FreeElement(self.chi, self.side, terms)

    def scale(self, scalar):
        if scalar.is_zero():
            return FreeElement.zero(self.chi, self.side)
        return FreeElement(self.chi, self.side,
                           {w: c * scalar for w, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, FreeElement) and self.side == other.side
                and self.chi.key == other.chi.key and self.terms == other.terms)

    def __hash__(self):
        return hash((self.side, self.canonical()))

    def counit(self):
        return self.terms.get((), self.chi.ctx.zero)

    def graded_components(self):
        """Split by Z^I-degree; returns {degree: FreeElement}."""
        split = {}
        for w, c in self.terms.items():
            mu = word_degree(self.chi.rank, w)
            split.setdefault(mu, {})[w] = c
        return {mu: FreeElement(self.chi, self.side, terms)
                for mu, terms in sorted(split.items())}

    def degree(self):
        """Z^I-degree if homogeneous, else None."""
        degrees = {word_degree(self.chi.rank, w) for w in self.terms}
        if len(degrees) == 1:
            return next(iter(degrees))
        return None

    def canonical(self):
        """Terms sorted by (total degree, word); hashable."""
        return tuple(sorted(
            ((w, c) for w, c in self.terms.items()),
            key=lambda item: (len(item[0]), item[0])))

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.canonical():
            body = "*".join(f"{self.side}{i + 1}" for i in w) if w else "1"
            coeff = str(c)
            if coeff == "1" and w:
                parts.append(body)
            elif coeff == "-1" and w:
                parts.append(f"-{body}")
            else:
                wrapped = f"({coeff})" if ("+" in coeff or " - " in coeff) else coeff
                parts.append(wrapped if not w else f"{wrapped}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"<{self.render()}>"


# group actions ------------------------------------------------------------

def act_k(mu, x):
    """K_mu acting by conjugation: multiplies degree-nu words by chi(mu,nu)
    on the E-side and chi(mu,nu)^-1 on the F-side."""
    chi = x.chi
    out = {}
    for w, c in x.terms.items():
        nu = word_degree(chi.rank, w)
        factor = chi.value(mu, nu)
        if x.side == F_SIDE:
            factor = factor.inverse()
        out[w] = c * factor
    return FreeElement(chi, x.side, out)


def act_l(mu, x):
    """L_mu acting by conjugation: chi(nu,mu)^-1 on the E-side,
    chi(nu,mu) on the F-side."""
    chi = x.chi
    out = {}
    for w, c in x.terms.items():
        nu = word_degree(chi.rank, w)
        factor = chi.value(nu, mu)
        if x.side == E_SIDE:
            factor = factor.inverse()
        out[w] = c * factor
    return FreeElement(chi, x.side, out)


# skew-derivations ----------------------------------------------------------

def der_k(p, x):
    """Skew-derivation with der_k(E_j) = delta_pj and
    der_k(EE') = der_k(E)(K_p acting on E') + E der_k(E')."""
    if x.side != E_SIDE:
        raise SideMismatch("skew-derivations act on the E-side; "
                           "transport F-side elements along phi_3")
    chi = x.chi
    alpha_p = basis_vector(chi.rank, p)
    out = {}
    for w, c in x.terms.items():
        for t, letter in enumerate(w):
            if letter != p:
                continue
            suffix = word_degree(chi.rank, w[t + 1:])
            coeff = c * chi.value(alpha_p, suffix)
            word = w[:t] + w[t + 1:]
            acc = out.get(word)
            total = coeff if acc is None else acc + coeff
            if total.is_zero():
                out.pop(word, None)
            else:
                out[word] = total
    return FreeElement(chi, E_SIDE, out)


def der_l(p, x):
    """Skew-derivation with der_l(E_j) = delta_pj and
    der_l(EE') = der_l(E)E' + (L_p^-1 acting on E) der_l(E')."""
    if x.side != E_SIDE:
        raise SideMismatch("skew-derivations act on the E-side; "
                           "transport F-side elements along phi_3")
    chi = x.chi
    alpha_p = basis_vector(chi.rank, p)
    out = {}
    for w, c in x.terms.items():
        for t, letter in enumerate(w):
            if letter != p:
                continue
            prefix = word_degree(chi.rank, w[:t])
            coeff = c * chi.value(prefix, alpha_p)
            word = w[:t] + w[t + 1:]
            acc = out.get(word)
            total = coeff if acc is None else acc + coeff
            if total.is_zero():
                out.pop(word, None)
            else:
                out[word] = total
    return FreeElement(chi, E_SIDE, out)


# braided coproduct ----------------------------------------------------------

def _word_coproduct(chi, w, _cache):
    if w in _cache:
        return _cache[w]
    if not w:
        result = {((), ()): chi.ctx.one}
    else:
        i, rest = w[0], w[1:]
        alpha_i = basis_vector(chi.rank, i)
        result = {}
        for (a, b), c in _word_coproduct(chi, rest, _cache).items():
            left = ((i,) + a, b)
            acc = result.get(left)
            result[left] = c if acc is None else acc + c
            factor = chi.value(alpha_i, word_degree(chi.rank, a))
            right = (a, (i,) + b)
            cc = c * factor
            acc = result.get(right)
            result[right] = cc if acc is None else acc + cc
    _cache[w] = result
    return result


def braided_coproduct(x):
    """Braided coproduct on the tensor algebra, as {(word, word): scalar}.

    Determined by Delta(E_i) = E_i (x) 1 + 1 (x) E_i and the braided
    tensor product with braiding c(E (x) E') = chi(deg E, deg E') E' (x) E.
    """
    if x.side != E_SIDE:
        raise SideMismatch("braided coproduct is implemented on the E-side")
    cache = x.chi._cache.setdefault("coproduct", {})
    out = {}
    for w, c in x.terms.items():
        for pair, factor in _word_coproduct(x.chi, w, cache).items():
            total = c * factor
            acc = out.get(pair)
            total = total if acc is None else acc + total
            if total.is_zero():
                out.pop(pair, None)
            else:
                out[pair] = total
    return out


# iterated q-commutators -----------------------------------------------------

def _iterated_commutator(chi, p, i, m, name, act, closed):
    """m-fold twisted (ad E_p) of E_i, with the twist act on the right
    factor; memoized per (name, p, i) and each new index checked against
    its closed form."""
    if i == p:
        raise ValueError("root vector elements require i != p")
    cache = chi._cache.setdefault((name, p, i), [FreeElement.generator(chi, i)])
    while len(cache) <= m:
        k = len(cache)
        prev = cache[k - 1]
        ep = FreeElement.generator(chi, p)
        alpha_p = basis_vector(chi.rank, p)
        value = ep * prev - act(alpha_p, prev) * ep
        if value != closed(chi, p, i, k):
            raise AssertionError(
                f"{name}(p={p}, i={i}, k={k}) differs from its closed form "
                f"over {chi!r}")
        with chi._lock:
            if len(cache) == k:  # another thread may have appended index k
                cache.append(value)
    return cache[m]


def e_plus(chi, p, i, m):
    """E^+_{i,m}: m-fold (ad E_p) applied to E_i (K-twisted commutator);
    each new value is checked against the closed q-binomial form."""
    return _iterated_commutator(chi, p, i, m, "e_plus", act_k, e_plus_closed)


def e_minus(chi, p, i, m):
    """E^-_{i,m}: the L-twisted variant, checked against its closed form."""
    return _iterated_commutator(chi, p, i, m, "e_minus", act_l, e_minus_closed)


def e_plus_closed(chi, p, i, m):
    """Closed form: sum_s (-1)^s q_pi^s q_pp^(s(s-1)/2) C(m,s)_{q_pp}
    E_p^(m-s) E_i E_p^s."""
    qpp = chi.entries[p][p]
    qpi = chi.entries[p][i]
    terms = []
    for s in range(m + 1):
        coeff = (chi.ctx.integer(-1) ** s) * qpi ** s * qpp ** (s * (s - 1) // 2) \
            * q_binomial(m, s, qpp)
        word = (p,) * (m - s) + (i,) + (p,) * s
        terms.append((word, coeff))
    return FreeElement.from_terms(chi, E_SIDE, terms)


def e_minus_closed(chi, p, i, m):
    """Closed form with q_ip^-s, q_pp^(-s(s-1)/2), C(m,s)_{q_pp^-1}."""
    qpp_inv = chi.entries[p][p].inverse()
    qip_inv = chi.entries[i][p].inverse()
    terms = []
    for s in range(m + 1):
        coeff = (chi.ctx.integer(-1) ** s) * qip_inv ** s \
            * qpp_inv ** (s * (s - 1) // 2) * q_binomial(m, s, qpp_inv)
        word = (p,) * (m - s) + (i,) + (p,) * s
        terms.append((word, coeff))
    return FreeElement.from_terms(chi, E_SIDE, terms)


def f_plus(chi, p, i, m):
    """F^+_{i,m}: E^+_{i,m} over chi^op with letters renamed to the F-side."""
    src = e_plus(chi.op(), p, i, m)
    return FreeElement(chi, F_SIDE, dict(src.terms))


def f_minus(chi, p, i, m):
    src = e_minus(chi.op(), p, i, m)
    return FreeElement(chi, F_SIDE, dict(src.terms))


# Nichols-ideal zero-testing and dimensions ----------------------------------

def _to_e_side(x):
    """F-side input is transported along phi_3 to the E-side over chi^op."""
    if x.side == E_SIDE:
        return x
    return FreeElement(x.chi.op(), E_SIDE, dict(x.terms))


def nichols_is_zero(x, degree_cap=DEFAULT_DEGREE_CAP):
    """Whether the image of x in the Nichols algebra vanishes.

    Downward induction on the degree: a component of degree >= 1 is zero
    iff all its K-derivations are; the counit decides degree 0.
    Inhomogeneous inputs are split and tested per component.
    """
    x = _to_e_side(x)
    memo = x.chi._cache.setdefault("nichols_zero", {})
    for mu, comp in x.graded_components().items():
        if sum(mu) > degree_cap:
            raise DegreeCapExceeded(f"component degree {sum(mu)} exceeds cap {degree_cap}")
        if not _nichols_component_zero(comp, memo):
            return False
    return True


def _nichols_component_zero(x, memo):
    if not x.terms:
        return True
    if () in x.terms:
        return False  # nonzero counit
    lead = min(x.terms)
    normalized = x.scale(x.terms[lead].inverse())
    key = normalized.canonical()
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = all(_nichols_component_zero(der_k(p, normalized), memo)
                 for p in range(x.chi.rank))
    memo[key] = result
    return result


def _derivation_pair(chi, u, w, memo):
    """counit of der_k(u_1) o ... o der_k(u_k) applied to the word w."""
    if not u:
        return chi.ctx.one if not w else chi.ctx.zero
    key = (u, w)
    cached = memo.get(key)
    if cached is not None:
        return cached
    i = u[-1]  # innermost derivation
    alpha_i = basis_vector(chi.rank, i)
    total = chi.ctx.zero
    for t, letter in enumerate(w):
        if letter != i:
            continue
        factor = chi.value(alpha_i, word_degree(chi.rank, w[t + 1:]))
        total = total + factor * _derivation_pair(chi, u[:-1], w[:t] + w[t + 1:], memo)
    memo[key] = total
    return total


def gram_matrix(chi, mu):
    """Derivation pairing Gram matrix at degree mu (rows and columns are
    the words of that degree, lexicographically ordered)."""
    cache = chi._cache.setdefault("gram", {})
    if mu in cache:
        return cache[mu]
    words = words_of_degree(chi.rank, mu)
    memo = chi._cache.setdefault("gram_pairs", {})
    matrix = [[_derivation_pair(chi, u, w, memo) for w in words] for u in words]
    cache[mu] = matrix
    return matrix


def nichols_dim(chi, mu, degree_cap=DEFAULT_DEGREE_CAP):
    """dim of the degree-mu component of the Nichols algebra."""
    if any(m < 0 for m in mu):
        return 0
    if sum(mu) > degree_cap:
        raise DegreeCapExceeded(f"degree {sum(mu)} exceeds cap {degree_cap}")
    cache = chi._cache.setdefault("nichols_dim", {})
    if mu not in cache:
        cache[mu] = rank(gram_matrix(chi, mu))
    return cache[mu]


def uplus_subalgebra_membership(chi, p, x, sign="+", degree_cap=DEFAULT_DEGREE_CAP):
    """Kernel test for the one-sided coideal subalgebras: sign '+' asks
    whether der_k(p, x) is Nichols-zero, sign '-' uses der_l."""
    if x.side != E_SIDE:
        raise SideMismatch("membership test expects an E-side element")
    der = der_k if sign == "+" else der_l
    return nichols_is_zero(der(p, x), degree_cap)


def serre_element(chi, i, j):
    """(ad E_i)^(1-c_ij) E_j."""
    c = chi.cartan_entry(i, j)
    return e_plus(chi, i, j, 1 - c)
