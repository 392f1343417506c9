"""Bicharacters on Z^I: Cartan entries, reflections, lambda factors, heights.

A bicharacter chi is determined by the n x n matrix q_ij = chi(alpha_i,
alpha_j) of nonzero scalars; evaluation extends biadditively.  The key
finiteness notion: chi is p-finite when the defining minimum of the
Cartan entry c_pj exists for every j.  The probe below returns a
tri-state answer (finite / proven infinite / scan cap reached).
"""

import threading
from dataclasses import dataclass
from fractions import Fraction

from .scalar import BackendMismatch, PARAMETERS, q_int

FINITE = "finite"
INFINITE = "infinite"
CAP = "cap"

DEFAULT_SCAN_CAP = 64


# lattice helpers ---------------------------------------------------------

def basis_vector(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def mat_mul_int(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def mat_inverse_int(m):
    """Inverse of an integer matrix; must be integral (det = +-1)."""
    n = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(m)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if work[i][c] != 0)
        work[c], work[pivot] = work[pivot], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    out = []
    for i in range(n):
        row = work[i][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not invertible over the integers")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


# p-finiteness ------------------------------------------------------------

@dataclass(frozen=True)
class PFiniteness:
    status: str          # FINITE | INFINITE | CAP
    m: int | None = None  # minimizing m when finite

    @property
    def finite(self):
        return self.status == FINITE


class NotPFiniteError(ValueError):
    def __init__(self, p, j=None, status=INFINITE, key=None):
        self.p = p
        self.j = j
        self.status = status
        self.key = key
        where = f" (object {key})" if key else ""
        if status == CAP:
            super().__init__(
                f"possibly infinite, cap reached: index p={p}, j={j}{where}")
        else:
            super().__init__(
                f"proven not p-finite: index p={p}, j={j}{where}")


class Bicharacter:
    """chi on Z^I, given by its matrix of values on the standard basis.

    Each scalar context keeps one canonical instance per entry matrix:
    the constructor registers a new key, and every bicharacter derived in
    the package (op, inverse, pullback, reflections, loaded objects) comes
    from :meth:`interned`.  Equal keys therefore share one ``_cache`` of
    Gram matrices, kernels, straightening tables and Lusztig maps.
    """

    def __init__(self, ctx, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("bicharacter matrix must be square")
        for row in entries:
            for x in row:
                if x.ctx != ctx:
                    raise BackendMismatch("entry from a different scalar context")
                if x.is_zero():
                    raise ValueError("bicharacter entries must be nonzero")
        self.ctx = ctx
        self.rank = n
        self.entries = entries
        self.key = entries  # canonical object identity (scalars are canonical)
        self._cache = {}
        self._lock = threading.Lock()  # guards read-extend-append memo lists
        self._register()

    def _register(self):
        """The context's instance for this key, registering self if the key is new."""
        with self.ctx.bicharacters_lock:
            return self.ctx.bicharacters.setdefault(self.key, self)

    @classmethod
    def interned(cls, ctx, entries):
        """The canonical bicharacter over ctx with these entries."""
        entries = tuple(tuple(row) for row in entries)
        chi = ctx.bicharacters.get(entries)
        return chi if chi is not None else cls(ctx, entries)._register()

    def __eq__(self, other):
        return (isinstance(other, Bicharacter) and self.ctx == other.ctx
                and self.key == other.key)

    def __hash__(self):
        return hash((self.ctx, self.key))

    def __repr__(self):
        rows = "; ".join(",".join(str(x) for x in row) for row in self.entries)
        return f"Bicharacter[{rows}]"

    # evaluation and transforms ------------------------------------------

    def value(self, mu, nu):
        """chi(mu, nu) = prod q_ij^(mu_i nu_j)."""
        out = self.ctx.one
        for i, mi in enumerate(mu):
            if not mi:
                continue
            for j, nj in enumerate(nu):
                if nj:
                    out = out * self.entries[i][j] ** (mi * nj)
        return out

    def op(self):
        if "op" not in self._cache:
            self._cache["op"] = Bicharacter.interned(
                self.ctx, tuple(tuple(self.entries[j][i] for j in range(self.rank))
                                for i in range(self.rank)))
        return self._cache["op"]

    def inverse(self):
        if "inverse" not in self._cache:
            self._cache["inverse"] = Bicharacter.interned(
                self.ctx, tuple(tuple(x.inverse() for x in row) for row in self.entries))
        return self._cache["inverse"]

    def pullback(self, w):
        """(w^* chi)(a, b) = chi(w^-1 a, w^-1 b)."""
        winv = mat_inverse_int(w)
        cols = [mat_vec(winv, basis_vector(self.rank, j)) for j in range(self.rank)]
        return Bicharacter.interned(
            self.ctx, tuple(tuple(self.value(cols[i], cols[j]) for j in range(self.rank))
                            for i in range(self.rank)))

    # Cartan data ----------------------------------------------------------

    def p_probe(self, p, j, cap=DEFAULT_SCAN_CAP):
        """Tri-state search for min m with [m+1]_{q_pp} (q_pp^m q_pj q_jp - 1) = 0."""
        key = ("probe", p, j, cap)
        if key in self._cache:
            return self._cache[key]
        result = self._p_probe(p, j, cap)
        self._cache[key] = result
        return result

    def _p_probe(self, p, j, cap):
        qpp = self.entries[p][p]
        t = self.entries[p][j] * self.entries[j][p]
        power = self.ctx.one
        for m in range(cap + 1):
            if q_int(m + 1, qpp).is_zero() or (power * t).is_one():
                return PFiniteness(FINITE, m)
            power = power * qpp
        # branch 1: [m+1]_{q_pp} = 0 for some m iff q_pp is a root of
        # unity different from 1 (min m = order - 1).
        d = qpp.multiplicative_order()
        m1 = None if (d is None or d == 1) else d - 1
        # branch 2: q_pp^m = (q_pj q_jp)^-1 for some m >= 0.
        m2 = self._power_hit(qpp, t.inverse(), d)
        if m1 is None and m2 is None:
            return PFiniteness(INFINITE)
        if m1 == "cap" or m2 == "cap":
            return PFiniteness(CAP)
        best = min(x for x in (m1, m2) if x is not None)
        return PFiniteness(FINITE, best)

    def _power_hit(self, base, target, order):
        """Min m >= 0 with base^m = target; None if provably none, 'cap' if undecided."""
        if order is not None:
            power = self.ctx.one
            for m in range(order):
                if power == target:
                    return m
                power = power * base
            return None
        if self.ctx.backend == PARAMETERS:
            bm = base.as_monomial()
            tm = target.as_monomial()
            if bm is not None and tm is None:
                return None  # powers of a monomial stay monomial
            if bm is not None and tm is not None:
                bc, be = bm
                tc, te = tm
                if any(be):
                    i = next(i for i, e in enumerate(be) if e)
                    if te[i] % be[i]:
                        return None
                    m = te[i] // be[i]
                    if m < 0 or any(m * b != t for b, t in zip(be, te)):
                        return None
                    return m if bc ** m == tc else None
                # base is a nonzero rational, not a root of unity => |bc| != 1
                if any(te):
                    return None
                m = 0
                power = Fraction(1)
                while abs(power) <= abs(tm[0]) if abs(bc) > 1 else abs(power) >= abs(tm[0]):
                    if power == tm[0]:
                        return m
                    power *= bc
                    m += 1
                    if m > 10_000:
                        break
                return None
        return "cap"

    def is_p_finite(self, p, cap=DEFAULT_SCAN_CAP):
        return all(self.p_probe(p, j, cap).finite
                   for j in range(self.rank) if j != p)

    def cartan_entry(self, p, j, cap=DEFAULT_SCAN_CAP):
        if j == p:
            return 2
        probe = self.p_probe(p, j, cap)
        if not probe.finite:
            raise NotPFiniteError(p, j, probe.status)
        return -probe.m

    def cartan_matrix(self, cap=DEFAULT_SCAN_CAP):
        if "cartan" in self._cache:
            return self._cache["cartan"]
        c = tuple(tuple(self.cartan_entry(p, j, cap) for j in range(self.rank))
                  for p in range(self.rank))
        # (M1)/(M2) sanity: generalized Cartan matrix shape.
        for i in range(self.rank):
            if c[i][i] != 2:
                raise AssertionError(f"(M1) violated: c[{i}][{i}] = {c[i][i]} in {c}")
            for j in range(self.rank):
                if i != j and c[i][j] > 0:
                    raise AssertionError(f"(M1) violated: c[{i}][{j}] = {c[i][j]} in {c}")
                if i != j and (c[i][j] == 0) != (c[j][i] == 0):
                    raise AssertionError(f"(M2) violated at ({i},{j}) in {c}")
        self._cache["cartan"] = c
        return c

    def reflection_matrix(self, p, cap=DEFAULT_SCAN_CAP):
        n = self.rank
        row = [self.cartan_entry(p, j, cap) for j in range(n)]
        return tuple(tuple((1 if i == j else 0) - (row[j] if i == p else 0)
                           for j in range(n)) for i in range(n))

    def reflect(self, p, cap=DEFAULT_SCAN_CAP):
        """(s_p, r_p(chi)); checks the involution and Cartan-row identities."""
        key = ("reflect", p)
        if key in self._cache:
            return self._cache[key]
        s = self.reflection_matrix(p, cap)
        image = self.pullback(s)
        # r_p(chi) has the same p-th Cartan row, and reflecting again returns chi.
        for j in range(self.rank):
            if image.cartan_entry(p, j, cap) != self.cartan_entry(p, j, cap):
                raise AssertionError("Cartan row not preserved by reflection")
        s2 = image.reflection_matrix(p, cap)
        back = image.pullback(s2)
        if s2 != s or back.key != self.key:
            raise AssertionError("reflection is not an involution")
        self._cache[key] = (s, image)
        image._cache.setdefault(key, (s, back))
        return s, image

    def lambda_factor(self, p, i, cap=DEFAULT_SCAN_CAP):
        """[-c_pi]!_{q_pp} * prod_{s<-c_pi} (q_pp^s q_pi q_ip - 1)."""
        if i == p:
            raise ValueError("lambda factor requires i != p")
        c = self.cartan_entry(p, i, cap)
        qpp = self.entries[p][p]
        t = self.entries[p][i] * self.entries[i][p]
        out = self.ctx.one
        for n in range(1, -c + 1):
            out = out * q_int(n, qpp)
        power = self.ctx.one
        for _ in range(-c):
            out = out * (power * t - self.ctx.one)
            power = power * qpp
        return out

    def height(self, mu):
        """min{m >= 1 : [m]_{chi(mu,mu)} = 0}, or None for infinity."""
        t = self.value(mu, mu)
        if t.is_one():
            return None
        d = t.multiplicative_order()
        return d  # None when t is not a root of unity
