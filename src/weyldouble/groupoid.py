"""Orbit exploration, Cartan schemes, Weyl groupoid morphisms, root systems.

Objects are bicharacters, deduplicated by their canonical entry matrix;
edges realize the reflections r_p.  Morphisms are (source, target, word,
matrix) with the matrix equal to the composed reflections along the
word, first letter applied first.  Two words give the same morphism iff
source, target and matrix coincide.
"""

from collections import deque
from dataclasses import dataclass

from .bicharacter import (NotPFiniteError, basis_vector, mat_identity,
                          mat_inverse_int, mat_mul_int, mat_vec)
from .serialize import object_label

DEFAULT_OBJECT_CAP = 1024
DEFAULT_MORPHISM_CAP = 10 ** 6
DEFAULT_RANK2_CAP = 64


class TruncatedSchemeError(RuntimeError):
    """Raised by operations that refuse truncated exploration results."""


class InfiniteGroupoidError(RuntimeError):
    pass


@dataclass(frozen=True)
class Morphism:
    source: tuple
    target: tuple
    word: tuple      # (i_1, ..., i_k), i_1 applied first
    matrix: tuple    # s_{i_k} ... s_{i_1}

    def __len__(self):
        return len(self.word)


class CartanScheme:
    def __init__(self, source_key, objects, edges, cartan, complete, cap=None):
        self.source_key = source_key
        self.objects = objects      # key -> Bicharacter
        self.edges = edges          # (key, p) -> key
        self.cartan = cartan        # key -> Cartan matrix
        self.complete = complete
        self.cap = cap
        self.rank = objects[source_key].rank
        self._cache = {}

    def require_complete(self):
        if not self.complete:
            raise TruncatedSchemeError(
                f"exploration truncated at {self.cap} objects; "
                "downstream operations refuse truncated schemes")

    def reflection(self, key, p):
        return self.objects[key].reflect(p)[0]

    def verify_axioms(self):
        """(C1) r_p^2 = id on edges, (C2) Cartan rows preserved."""
        for (key, p), target in self.edges.items():
            if self.edges[(target, p)] != key:
                return False
            if self.cartan[key][p] != self.cartan[target][p]:
                return False
        return True


def explore(chi, object_cap=DEFAULT_OBJECT_CAP, scan_cap=None):
    """Breadth-first closure of chi under all reflections r_p."""
    kwargs = {} if scan_cap is None else {"cap": scan_cap}
    objects = {chi.key: chi}
    edges = {}
    cartan = {}
    queue = deque([chi.key])
    complete = True
    while queue:
        key = queue.popleft()
        current = objects[key]
        try:
            cartan[key] = current.cartan_matrix(**kwargs)
        except NotPFiniteError as err:
            raise NotPFiniteError(err.p, err.j, err.status, key=key) from None
        for p in range(current.rank):
            _, image = current.reflect(p, **kwargs)
            if image.key not in objects:
                if len(objects) >= object_cap:
                    complete = False
                    continue
                objects[image.key] = image
                queue.append(image.key)
            edges[(key, p)] = image.key
    scheme = CartanScheme(chi.key, objects, edges, cartan, complete,
                          cap=object_cap)
    if complete and not scheme.verify_axioms():
        raise AssertionError(f"(C1)/(C2) fail on the scheme explored from {chi!r}")
    return scheme


def morphisms_from(scheme, key, morphism_cap=DEFAULT_MORPHISM_CAP):
    """All morphisms with the given source; None if the cap is exceeded.

    BFS over (target object, matrix) states, so the stored word of each
    morphism is geodesic and its length realizes the length function.
    """
    scheme.require_complete()
    cached = scheme._cache.get(("from", key, morphism_cap))
    if cached is not None:
        return cached
    n = scheme.rank
    start = Morphism(key, key, (), mat_identity(n))
    states = {(key, start.matrix): start}
    queue = deque([start])
    while queue:
        mor = queue.popleft()
        for p in range(n):
            s = scheme.reflection(mor.target, p)
            nxt = Morphism(key, scheme.edges[(mor.target, p)],
                           mor.word + (p,), mat_mul_int(s, mor.matrix))
            state = (nxt.target, nxt.matrix)
            if state not in states:
                if len(states) >= morphism_cap:
                    return None
                states[state] = nxt
                queue.append(nxt)
    result = list(states.values())
    scheme._cache[("from", key, morphism_cap)] = result
    return result


def morphisms_within_cap(scheme, key, morphism_cap):
    """morphisms_from, raising InfiniteGroupoidError at the cap."""
    morphisms = morphisms_from(scheme, key, morphism_cap)
    if morphisms is None:
        raise InfiniteGroupoidError(
            f"morphisms out of object {object_label(scheme.objects[key])} "
            f"exceed the morphism cap {morphism_cap} "
            "(raise it with --morphism-cap)")
    return morphisms


@dataclass
class FinitenessReport:
    finite: bool | None          # None = unknown (cap reached)
    morphism_count: int | None   # morphisms out of the source object
    hom_counts: dict | None      # target key -> |Hom(source, target)|


def is_finite(scheme, morphism_cap=DEFAULT_MORPHISM_CAP):
    scheme.require_complete()
    morphisms = morphisms_from(scheme, scheme.source_key, morphism_cap)
    if morphisms is None:
        return FinitenessReport(None, None, None)
    hom_counts = {}
    for mor in morphisms:
        hom_counts[mor.target] = hom_counts.get(mor.target, 0) + 1
    # cross-check the equivalent finiteness conditions: every object has
    # a finite real root set, and every Hom-set is nonempty and finite.
    for key in scheme.objects:
        entry = real_roots(scheme, key, morphism_cap)
        if len(entry.positive) * 2 != len(entry.roots):
            raise AssertionError(
                f"object {key}: {len(entry.positive)} positive roots "
                f"among {len(entry.roots)} real roots")
    if set(hom_counts) != set(scheme.objects):
        raise AssertionError(
            f"Hom-sets from the source reach {len(hom_counts)} targets, "
            f"the scheme has {len(scheme.objects)} objects")
    return FinitenessReport(True, len(morphisms), hom_counts)


@dataclass
class RootSystemEntry:
    key: tuple
    positive: tuple   # sorted positive roots
    roots: tuple
    m_table: tuple    # m_{ij} = |R cap (N0 e_i + N0 e_j)|


def real_roots(scheme, key, morphism_cap=DEFAULT_MORPHISM_CAP):
    """R^a = {w(N_i) : w a morphism into a}, partitioned and verified."""
    scheme.require_complete()
    cached = scheme._cache.get(("roots", key))
    if cached is not None:
        return cached
    morphisms = morphisms_within_cap(scheme, key, morphism_cap)
    n = scheme.rank
    roots = set()
    for mor in morphisms:
        # w runs over Hom(key, b); its inverse lands in Hom(b, key).
        winv = mat_inverse_int(mor.matrix)
        for i in range(n):
            roots.add(mat_vec(winv, basis_vector(n, i)))
    positive = sorted(r for r in roots if all(x >= 0 for x in r))
    negative = sorted(r for r in roots if all(x <= 0 for x in r))
    # (R1): all roots are positive or negative.
    if len(positive) + len(negative) != len(roots):
        raise AssertionError(f"(R1) fails at object {key}")
    # (R2): the only multiples of e_i are +-e_i.
    for r in roots:
        if sum(1 for x in r if x != 0) == 1 and abs(max(r, key=abs)) != 1:
            raise AssertionError(f"(R2) fails at object {key}: {r}")
    m_table = tuple(tuple(
        sum(1 for r in roots
            if all(x >= 0 for x in r)
            and all(r[k] == 0 for k in range(n) if k not in (i, j)))
        if i != j else 0
        for j in range(n)) for i in range(n))
    entry = RootSystemEntry(key, tuple(positive), tuple(sorted(roots)), m_table)
    # cache before the (R3)/(R4) pass: neighbours call back into this entry
    scheme._cache[("roots", key)] = entry
    for p in range(n):
        s = scheme.reflection(key, p)
        imaged = {mat_vec(s, r) for r in entry.roots}
        neighbour = real_roots(scheme, scheme.edges[(key, p)], morphism_cap)
        if imaged != set(neighbour.roots):
            raise AssertionError(f"(R3) fails at object {key}, index {p}")
    for i in range(n):
        for j in range(n):
            if i != j and not _coxeter_word_identity(scheme, key, i, j,
                                                     m_table[i][j]):
                raise AssertionError(f"(R4) fails at object {key} ({i},{j})")
    return entry


def verify_root_axioms(scheme, morphism_cap=DEFAULT_MORPHISM_CAP):
    """(R3) edge-wise, (R4) object return, and the Coxeter word identity."""
    scheme.require_complete()
    failures = []
    for key in scheme.objects:
        entry = real_roots(scheme, key, morphism_cap)
        n = scheme.rank
        for p in range(n):
            s = scheme.reflection(key, p)
            imaged = {mat_vec(s, r) for r in entry.roots}
            other = real_roots(scheme, scheme.edges[(key, p)], morphism_cap)
            if imaged != set(other.roots):
                failures.append(("R3", key, p))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                m = entry.m_table[i][j]
                if not _coxeter_word_identity(scheme, key, i, j, m):
                    failures.append(("R4/Coxeter", key, i, j, m))
    return failures


def _coxeter_word_identity(scheme, key, i, j, m):
    """(s_i s_j)^m 1_a = 1_a: the alternating word of length 2m closes."""
    current = key
    matrix = mat_identity(scheme.rank)
    letters = (j, i) * m  # s_i s_j ... applied right-to-left: start with j
    for p in letters:
        matrix = mat_mul_int(scheme.reflection(current, p), matrix)
        current = scheme.edges[(current, p)]
    return current == key and matrix == mat_identity(scheme.rank)


def length(scheme, morphism, morphism_cap=DEFAULT_MORPHISM_CAP):
    """BFS distance of the morphism among all morphisms out of its source."""
    morphisms = morphisms_within_cap(scheme, morphism.source, morphism_cap)
    for mor in morphisms:
        if mor.target == morphism.target and mor.matrix == morphism.matrix:
            return len(mor.word)
    raise ValueError("morphism does not belong to the groupoid")


def longest_into(scheme, key, morphism_cap=DEFAULT_MORPHISM_CAP):
    """The unique longest morphism into the given object."""
    scheme.require_complete()
    morphisms = morphisms_within_cap(scheme, key, morphism_cap)
    top = max(len(m.word) for m in morphisms)
    longest = [m for m in morphisms if len(m.word) == top]
    if len(longest) != 1:
        raise AssertionError("longest element is not unique")
    out = longest[0]
    expected = len(real_roots(scheme, key, morphism_cap).positive)
    if top != expected:
        raise AssertionError(
            f"longest length {top} != |R_+| = {expected} at object {key}")
    # invert: a longest morphism *into* key, word reversed from the endpoint.
    return Morphism(out.target, key, tuple(reversed(out.word)),
                    mat_inverse_int(out.matrix))


def longest_word_from(scheme, key, morphism_cap=DEFAULT_MORPHISM_CAP):
    """A reduced word (i_1, ..., i_M) for a longest morphism with source key."""
    morphisms = morphisms_within_cap(scheme, key, morphism_cap)
    top = max(len(m.word) for m in morphisms)
    best = min(m.word for m in morphisms if len(m.word) == top)
    return best


def rank2_M(chi, i, j, cap=DEFAULT_RANK2_CAP):
    """1 + min{m : s_{i_m} ... s_{i_1}(N_j) = N_{i_{m+1}}}, or None at cap."""
    if i == j:
        raise ValueError("rank2_M requires i != j")
    n = chi.rank
    current = chi
    matrix = mat_identity(n)
    target = basis_vector(n, j)
    for m in range(cap + 1):
        letter = i if m % 2 == 0 else j  # i_{m+1}
        if mat_vec(matrix, target) == basis_vector(n, letter):
            return m + 1
        s, current = current.reflect(letter)
        matrix = mat_mul_int(s, matrix)
    return None


def check_cm(scheme, morphism_cap=DEFAULT_MORPHISM_CAP):
    """-c_ij = max{m : e_j + m e_i in R^a_+} at every object; returns violations."""
    scheme.require_complete()
    violations = []
    n = scheme.rank
    for key in scheme.objects:
        entry = real_roots(scheme, key, morphism_cap)
        positive = set(entry.positive)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                m = 0
                while True:
                    nxt = tuple((1 if k == j else 0) + ((m + 1) if k == i else 0)
                                for k in range(n))
                    if nxt in positive:
                        m += 1
                    else:
                        break
                if m != -scheme.cartan[key][i][j]:
                    violations.append((key, i, j, m, -scheme.cartan[key][i][j]))
    return violations
