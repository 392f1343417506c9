"""Expected answers for the benchmark, computed without the program.

Everything here is classical root-system combinatorics or a known
theorem, worked out from the benchmark's own description of each input:

* the Hilbert series of a Nichols algebra of diagonal type with a finite
  root system is the PBW product over the positive roots,
  prod (1 - t^(N_b b)) / (1 - t^b), with N_b the multiplicative order of
  chi(b, b) (infinite when chi(b, b) is not a root of unity or is 1);
* positive roots, Weyl group orders, Coxeter numbers and the longest
  element of a Cartan type come from reflecting simple roots with the
  classical Cartan matrix;
* the Weyl groupoid of sl(m|n) has C(m+n, m) objects, (m+n)! morphisms
  out of each object, an A-type Cartan matrix at every object and the
  contiguous sums of simple roots as positive roots;
* the Serre relations present u_q at generic q but not at a root of
  unity, where the root-vector powers are extra relations.

This module must not import the program under test.
"""

from math import comb, factorial, gcd

# An input is described by its scalar backend and, for every entry of
# the q-matrix, a sign and an exponent: a tuple of exponents of the
# parameters ("parameters" backend) or the power of the primitive root
# z ("cyclotomic" backend).  Its Cartan matrix is the classical one of
# its type, never the program's.


def cartan_of_form(form):
    """c_pj = 2 (a_p, a_j) / (a_p, a_p) for a symmetrised Cartan type."""
    n = len(form)
    return tuple(tuple(2 * form[p][j] // form[p][p] for j in range(n))
                 for p in range(n))


def a_type_cartan(rank):
    return tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                       for j in range(rank)) for i in range(rank))


class InputSpec:
    """A bicharacter as the benchmark writes it, with its classical data."""

    def __init__(self, backend, entries, cartan, names=("q",), order=None):
        self.backend = backend          # "parameters" | "cyclotomic"
        self.names = tuple(names)
        self.order = order              # N for the cyclotomic backend
        self.entries = tuple(tuple(row) for row in entries)  # (sign, exps)
        self.cartan = tuple(tuple(row) for row in cartan)

    @property
    def rank(self):
        return len(self.entries)

    def relabel(self, perm):
        """The same bicharacter with index i renamed perm[i]."""
        n = self.rank
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        return InputSpec(
            self.backend,
            [[self.entries[inv[i]][inv[j]] for j in range(n)] for i in range(n)],
            [[self.cartan[inv[i]][inv[j]] for j in range(n)] for i in range(n)],
            self.names, self.order)

    def galois(self, unit):
        """Replace z by z^unit (cyclotomic backend, unit prime to N)."""
        assert self.backend == "cyclotomic" and gcd(unit, self.order) == 1
        return InputSpec(
            self.backend,
            [[(s, (e * unit) % self.order) for s, e in row] for row in self.entries],
            self.cartan, self.names, self.order)

    def to_json(self):
        if self.backend == "cyclotomic":
            scalar = {"backend": "cyclotomic", "order": self.order}
        else:
            scalar = {"backend": "parameters", "names": list(self.names)}
        return {"rank": self.rank, "scalar": scalar,
                "q": [[self._render(s, e) for s, e in row] for row in self.entries]}

    def _render(self, sign, exps):
        if self.backend == "cyclotomic":
            exps = {"z": exps % self.order}
        else:
            exps = dict(zip(self.names, exps))
        factors = [v if e == 1 else f"{v}^{e}" for v, e in exps.items() if e]
        body = "*".join(factors) or "1"
        if sign < 0:
            return "-1" if body == "1" else "-" + body
        return body

    def self_pairing(self, beta):
        """chi(beta, beta) as (sign, exponent)."""
        n = self.rank
        sign = 1
        if self.backend == "cyclotomic":
            exp = 0
        else:
            exp = (0,) * len(self.names)
        for i in range(n):
            for j in range(n):
                k = beta[i] * beta[j]
                if not k:
                    continue
                s, e = self.entries[i][j]
                if s < 0 and k % 2:
                    sign = -sign
                if self.backend == "cyclotomic":
                    exp += k * e
                else:
                    exp = tuple(a + k * b for a, b in zip(exp, e))
        return sign, exp

    def root_height(self, beta):
        """N_beta: the multiplicative order of chi(beta, beta), or None
        for infinity (not a root of unity, or equal to 1)."""
        sign, exp = self.self_pairing(beta)
        if self.backend == "cyclotomic":
            # sign * z^exp with z of order N; -1 = z^(N/2) for even N
            if sign < 0:
                assert self.order % 2 == 0
                exp += self.order // 2
            exp %= self.order
            return None if exp == 0 else self.order // gcd(exp, self.order)
        if any(exp):
            return None
        return 2 if sign < 0 else None


# root systems ----------------------------------------------------------------

def reflection(cartan, p):
    """s_p(a_j) = a_j - c_pj a_p, as an integer matrix acting on columns."""
    n = len(cartan)
    return tuple(tuple((1 if i == j else 0) - (cartan[p][j] if i == p else 0)
                       for j in range(n)) for i in range(n))


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def positive_roots(cartan):
    """Positive real roots of a finite Cartan type, by reflection closure."""
    n = len(cartan)
    refl = [reflection(cartan, p) for p in range(n)]
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for s in refl:
                image = mat_vec(s, r)
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
        if len(roots) > 10_000:
            raise ValueError("Cartan matrix is not of finite type")
    return sorted(r for r in roots if all(x >= 0 for x in r))


def contiguous_roots(rank):
    """Positive roots of A_rank (and of every object of sl(m|n))."""
    return sorted(tuple(1 if i <= k <= j else 0 for k in range(rank))
                  for i in range(rank) for j in range(i, rank))


def rank2_m(positive, i, j):
    """m_ij = |R+ cap (N a_i + N a_j)|: 2, 3, 4, 6 for A1xA1, A2, B2, G2."""
    n = len(positive[0])
    return sum(1 for r in positive
               if all(r[k] == 0 for k in range(n) if k not in (i, j)))


def longest_element(cartan):
    """w0 as a matrix: extend w by s_i while w(a_i) stays positive."""
    n = len(cartan)
    w = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    length = 0
    while True:
        for i in range(n):
            col = tuple(w[k][i] for k in range(n))
            if all(x >= 0 for x in col):
                w = mat_mul(w, reflection(cartan, i))
                length += 1
                break
        else:
            return w, length


def minus_w0_permutation(cartan):
    """tau with w0(a_i) = -a_tau(i)."""
    w0, _ = longest_element(cartan)
    n = len(cartan)
    tau = []
    for i in range(n):
        col = tuple(-w0[k][i] for k in range(n))
        tau.append(col.index(1))
    return tuple(tau)


def word_matrix(cartan, word):
    """s_{i_k} ... s_{i_1} for the word (i_1, ..., i_k) with a fixed Cartan matrix."""
    n = len(cartan)
    m = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    for p in word:
        m = mat_mul(reflection(cartan, p), m)
    return m


WEYL_ORDER = {"A": lambda n: factorial(n + 1),
              "B": lambda n: 2 ** n * factorial(n),
              "D": lambda n: 2 ** (n - 1) * factorial(n),
              "F": lambda n: 1152,
              "G": lambda n: 12}

POSITIVE_COUNT = {"A": lambda n: n * (n + 1) // 2,
                  "B": lambda n: n * n,
                  "D": lambda n: n * (n - 1),
                  "F": lambda n: 24,
                  "G": lambda n: 6}


def weyl_order(cartan_type):
    return WEYL_ORDER[cartan_type[0]](int(cartan_type[1:]))


def positive_count(cartan_type):
    return POSITIVE_COUNT[cartan_type[0]](int(cartan_type[1:]))


def super_counts(m, n):
    """(objects, morphisms out of an object, |R+|) for sl(m|n)."""
    return comb(m + n, m), factorial(m + n), (m + n) * (m + n - 1) // 2


# Hilbert series ----------------------------------------------------------------

def pbw_dimensions(spec, positive, degree_cap):
    """Coefficients of prod_b (1 - t^(N_b b)) / (1 - t^b) up to total degree cap."""
    n = spec.rank
    series = {(0,) * n: 1}
    for beta in positive:
        height = spec.root_height(beta)
        top = degree_cap // sum(beta)
        if height is not None:
            top = min(top, height - 1)
        new = {}
        for mu, c in series.items():
            for k in range(top + 1):
                nu = tuple(a + k * b for a, b in zip(mu, beta))
                if sum(nu) <= degree_cap:
                    new[nu] = new.get(nu, 0) + c
        series = new
    out = {}
    for total in range(degree_cap + 1):
        for mu in degrees_of_total(n, total):
            out[mu] = series.get(mu, 0)
    return out


def degrees_of_total(n, total):
    if n == 1:
        return [(total,)]
    return [(head,) + tail for head in range(total + 1)
            for tail in degrees_of_total(n - 1, total - head)]


# Serre presentation ---------------------------------------------------------------

def serre_presents(spec):
    """Whether the Serre relations together with the root-vector ideal
    generators of every object present the Nichols algebra.

    They do at generic parameters (the characterisation by the finite
    root system).  At a primitive root of unity of order >= 3 the powers
    E_b^(N_b) of the non-simple root vectors are further relations that
    the family does not generate.
    """
    return spec.backend != "cyclotomic"
