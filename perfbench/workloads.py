"""The three workloads: their inputs, task lists and output checks.

A task is one call of the command-line entry point ``weyldouble.cli.main``
with the arguments a user would type.  The seed draws the inputs: a
relabelling of the simple roots, a Galois conjugate of the root of unity,
the source object of a super type, and the ``verify relations --seed``.
Each draw leaves the amount of work about the same, so that runs with
different seeds are comparable, and each output is checked against
``oracles``, never against a stored copy of an earlier output.
"""

import json
import os
import random
from itertools import permutations

import oracles as O

NICHOLS = "nichols-hilbert"
LUSZTIG = "lusztig-verify"
GROUPOID = "groupoid-roots"
WORKLOADS = (NICHOLS, LUSZTIG, GROUPOID)


# input descriptions -------------------------------------------------------------

def a_form(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]


def b_form(n):
    """Long roots of square length 4, the last simple root short."""
    f = [[2 * x for x in row] for row in a_form(n)]
    f[n - 1][n - 1] = 2
    return f


def d_form(n):
    f = a_form(n)
    f[n - 2][n - 1] = f[n - 1][n - 2] = 0
    f[n - 3][n - 1] = f[n - 1][n - 3] = -1
    return f


FORMS = {
    "A2": a_form(2), "A3": a_form(3), "A5": a_form(5),
    "B2": b_form(2), "D4": d_form(4), "D5": d_form(5),
    "F4": [[4, -2, 0, 0], [-2, 4, -2, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
    "G2": [[6, -3], [-3, 2]],
}


def generic(name):
    """Cartan type at generic q: q_ij = q^((a_i, a_j))."""
    form = FORMS[name]
    return O.InputSpec("parameters", [[(1, (e,)) for e in row] for row in form],
                       O.cartan_of_form(form))


def cyclotomic(order, exps):
    return O.InputSpec("cyclotomic", [[(1, e % order) for e in row] for row in exps],
                       O.a_type_cartan(len(exps)), order=order)


def super_a(parity):
    """sl(m|n) at generic q for a parity word (0 even, 1 odd):
    q_ij = (-1)^(|a_i||a_j|) q^((a_i, a_j)) with a_i = e_i - e_(i+1)."""
    eps = [1 if p == 0 else -1 for p in parity]
    n = len(parity) - 1
    odd = [(parity[i] + parity[i + 1]) % 2 for i in range(n)]

    def root(i):
        return [(k == i) - (k == i + 1) for k in range(n + 1)]

    def form(i, j):
        return sum(a * b * e for a, b, e in zip(root(i), root(j), eps))

    return O.InputSpec("parameters",
                       [[(-1 if odd[i] and odd[j] else 1, (form(i, j),))
                         for j in range(n)] for i in range(n)],
                       O.a_type_cartan(n))


# the catalog entries of the program, as the benchmark describes them
CATALOG_SPECS = {
    "A2": generic("A2"), "B2": generic("B2"), "G2": generic("G2"),
    "A3": generic("A3"),
    "A2-zeta3": cyclotomic(3, [[2, -1], [-1, 2]]),
    "A2-zeta4": cyclotomic(4, [[2, -1], [-1, 2]]),
    "A2-super": O.InputSpec("parameters",
                            [[(1, (2,)), (1, (-2,))], [(1, (0,)), (-1, (0,))]],
                            O.a_type_cartan(2)),
    "A2-twoparam": O.InputSpec("parameters",
                               [[(1, (2, 0)), (1, (0, 1))],
                                [(1, (-2, -1)), (1, (2, 0))]],
                               O.a_type_cartan(2), names=("q", "r")),
}

# nichols-hilbert: (catalog entry, degree cap); both scalar backends
HILBERT_MIX = (("A2", 7), ("B2", 6), ("A2-twoparam", 6), ("A2-super", 7),
               ("A2-zeta3", 7), ("A2-zeta4", 7))

# lusztig-verify: every suite on every entry; G2 gives the slowest task
VERIFY_SUITES = ("coxeter", "longest", "relations", "lusztig-id", "serre")
VERIFY_ENTRIES = ("A2", "B2", "G2", "A3", "A2-zeta3", "A2-zeta4", "A2-super",
                  "A2-twoparam")

# groupoid-roots: (type, commands); sl(4|2) orbit is the slowest task
GROUPOID_MIX = (("A5", ("orbit", "roots")), ("D4", ("orbit", "roots")),
                ("F4", ("orbit", "roots")), ("D5", ("orbit",)),
                ((2, 2), ("orbit", "roots")), ((3, 2), ("orbit", "roots")),
                ((4, 2), ("orbit",)))


class Task:
    def __init__(self, label, argv, check):
        self.label = label
        self.argv = argv
        self.check = check   # (exit code, stdout) -> list of mismatch texts


class Workload:
    """Inputs and tasks of one workload for one seed.

    ``write_inputs`` and ``read_inputs`` are the set-up: they write the
    JSON bicharacters and read them back through the program's parser
    (and, for the catalog entries, build the entries the program ships),
    checking that the benchmark's description matches what the program
    reads.
    """

    def __init__(self, name, seed, input_dir):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.input_dir = input_dir
        rng = random.Random(f"{name}:{seed}")
        self.specs = {}      # input label -> InputSpec
        self.tasks = []
        getattr(self, "_" + name.replace("-", "_"))(rng)

    def _path(self, label):
        return os.path.join(self.input_dir, f"{label}.json")

    # workload definitions -------------------------------------------------------

    def _nichols_hilbert(self, rng):
        for entry, cap in HILBERT_MIX:
            spec = CATALOG_SPECS[entry]
            spec = spec.relabel(rng.choice(list(permutations(range(spec.rank)))))
            if spec.backend == "cyclotomic":
                spec = spec.galois(rng.choice(
                    [u for u in range(1, spec.order) if O.gcd(u, spec.order) == 1]))
            self.specs[entry] = spec
            self.tasks.append(Task(
                f"hilbert {entry} cap {cap}",
                ["hilbert", "--input", self._path(entry), "--degree-cap", str(cap)],
                _check_hilbert(spec, cap)))

    def _lusztig_verify(self, rng):
        for entry in VERIFY_ENTRIES:
            self.specs[entry] = CATALOG_SPECS[entry]
        for suite in VERIFY_SUITES:
            for entry in VERIFY_ENTRIES:
                argv = ["verify", suite, "--input", f"catalog:{entry}"]
                if suite == "relations":
                    argv += ["--seed", str(rng.randrange(2 ** 31))]
                self.tasks.append(Task(f"verify {suite} {entry}", argv,
                                       VERIFY_CHECKS[suite](CATALOG_SPECS[entry])))

    def _groupoid_roots(self, rng):
        for kind, commands in GROUPOID_MIX:
            if isinstance(kind, tuple):
                m, n = kind
                parity = [0] * m + [1] * n
                rng.shuffle(parity)
                spec = super_a(parity)
                expected = O.super_counts(m, n)
                positive = O.contiguous_roots(m + n - 1)
                label = f"sl{m}_{n}"
            else:
                spec = generic(kind)
                spec = spec.relabel(rng.sample(range(spec.rank), spec.rank))
                expected = (1, O.weyl_order(kind), O.positive_count(kind))
                positive = O.positive_roots(spec.cartan)
                label = kind
            self.specs[label] = spec
            for command in commands:
                self.tasks.append(Task(
                    f"{command} {label}", [command, "--input", self._path(label)],
                    GROUPOID_CHECKS[command](spec, expected, positive)))

    # set-up -----------------------------------------------------------------------

    def write_inputs(self):
        os.makedirs(self.input_dir, exist_ok=True)
        for label, spec in self.specs.items():
            with open(self._path(label), "w") as handle:
                json.dump(spec.to_json(), handle, indent=1)

    def read_inputs(self, program):
        """Parse every written input with the program; for catalog-based
        workloads also build the catalog entry and compare the two."""
        for label, spec in self.specs.items():
            with open(self._path(label)) as handle:
                chi = program.bicharacter_from_json(json.load(handle))
            if chi.rank != spec.rank:
                raise ValueError(f"{label}: rank {chi.rank} read back")
            if self.name == LUSZTIG:
                built = program.catalog_entry(label).build()
                if built.key != chi.key or built.ctx != chi.ctx:
                    raise ValueError(
                        f"catalog entry {label} differs from its description")


# checks ---------------------------------------------------------------------------

def _parse(rc, out, want_rc=0):
    if rc != want_rc:
        return None, [f"exit code {rc}, expected {want_rc}"]
    try:
        return json.loads(out), []
    except ValueError as err:
        return None, [f"output is not JSON: {err}"]


def _check_hilbert(spec, cap):
    positive = O.positive_roots(spec.cartan)
    expected = {"(" + ",".join(map(str, mu)) + ")": d
                for mu, d in O.pbw_dimensions(spec, positive, cap).items()}

    def check(rc, out):
        data, bad = _parse(rc, out)
        if data is None:
            return bad
        got = data.get("dimensions", {})
        if set(got) != set(expected):
            return [f"degrees {sorted(set(got) ^ set(expected))} missing or extra"]
        return [f"dim at {mu}: {got[mu]} != PBW {want}"
                for mu, want in expected.items() if got[mu] != want]
    return check


def _suite_payload(rc, out, want_rc=0):
    data, bad = _parse(rc, out, want_rc)
    if data is None:
        return None, bad
    if not data.get("results"):
        return None, ["no results"]
    return data, []


def _all_pass(data):
    bad = [f"{r.get('check')} {r.get('object', '')} {r.get('word', r.get('p', ''))}: "
           f"{r.get('status')}" for r in data["results"] if r.get("status") != "pass"]
    if data.get("passed") is not True:
        bad.append("suite did not pass")
    return bad


def _check_coxeter(spec):
    positive = O.positive_roots(spec.cartan)
    pairs = [(i, j) for i in range(spec.rank) for j in range(i + 1, spec.rank)]

    def check(rc, out):
        data, bad = _suite_payload(rc, out)
        if data is None:
            return bad
        bad = _all_pass(data)
        got = {tuple(r["pair"]): r for r in data["results"]}
        if sorted(got) != [(i + 1, j + 1) for i, j in pairs]:
            return bad + [f"pairs {sorted(got)}"]
        for i, j in pairs:
            r = got[(i + 1, j + 1)]
            want = O.rank2_m(positive, i, j)
            if r["M"] != want:
                bad.append(f"M({i + 1},{j + 1}) = {r['M']}, Coxeter number {want}")
            if len(r["twist"]) != spec.rank or "0" in r["twist"]:
                bad.append(f"twist {r['twist']} not invertible")
        return bad
    return check


def _check_longest(spec):
    w0, length = O.longest_element(spec.cartan)
    tau = [t + 1 for t in O.minus_w0_permutation(spec.cartan)]

    def check(rc, out):
        data, bad = _suite_payload(rc, out)
        if data is None:
            return bad
        bad = _all_pass(data)
        (r,) = data["results"]
        word = [p - 1 for p in r["word"]]
        if len(word) != length:
            bad.append(f"longest word length {len(word)} != |R+| = {length}")
        elif O.word_matrix(spec.cartan, word) != w0:
            bad.append(f"word {r['word']} is not a reduced word of w0")
        if r["tau"] != tau:
            bad.append(f"tau {r['tau']} != -w0 = {tau}")
        if len(r["lambdas"]) != spec.rank or "0" in r["lambdas"]:
            bad.append(f"lambdas {r['lambdas']} not invertible")
        return bad
    return check


def _check_relations(spec):
    def check(rc, out):
        data, bad = _suite_payload(rc, out)
        if data is None:
            return bad
        bad = _all_pass(data)
        kinds = [r["check"] for r in data["results"]]
        if (kinds.count("defining-relations") < 2 * spec.rank
                or "commutator-derivation" not in kinds):
            bad.append(f"missing checks: {sorted(set(kinds))}")
        return bad
    return check


def _check_lusztig_id(spec):
    def check(rc, out):
        data, bad = _suite_payload(rc, out)
        if data is None:
            return bad
        bad = _all_pass(data)
        if len(data["results"]) < spec.rank:
            bad.append(f"{len(data['results'])} T T^- checks for rank {spec.rank}")
        return bad
    return check


def _check_serre(spec):
    presents = O.serre_presents(spec)

    def check(rc, out):
        data, bad = _suite_payload(rc, out, 0 if presents else 2)
        if data is None:
            return bad
        (r,) = data["results"]
        if r["precondition_failures"]:
            bad.append(f"precondition failures {r['precondition_failures']}")
        if presents:
            return bad + _all_pass(data)
        if data["passed"] is not False or r["status"] != "fail" or not r["failures"]:
            bad.append("Serre relations reported as presenting u_q at a root of unity")
        elif any(f[2] != "generator image" for f in r["failures"]):
            bad.append(f"witnesses {[f[2] for f in r['failures']]}")
        return bad
    return check


VERIFY_CHECKS = {"coxeter": _check_coxeter, "longest": _check_longest,
                 "relations": _check_relations, "lusztig-id": _check_lusztig_id,
                 "serre": _check_serre}


def _check_orbit(spec, expected, positive):
    objects, morphisms, npos = expected
    cartan = [list(row) for row in spec.cartan]

    def check(rc, out):
        data, bad = _parse(rc, out)
        if data is None:
            return bad
        if data.get("status") != "complete" or data.get("finite") is not True:
            bad.append(f"status {data.get('status')}, finite {data.get('finite')}")
        if len(data["objects"]) != objects:
            bad.append(f"{len(data['objects'])} objects, expected {objects}")
        if len(data["edges"]) != objects * spec.rank:
            bad.append(f"{len(data['edges'])} edges")
        if data["morphism_count"] != morphisms or len(data["morphisms"]) != morphisms:
            bad.append(f"{data['morphism_count']} morphisms, expected {morphisms}")
        # the super types keep the A-type Cartan matrix at every object
        bad += [f"Cartan matrix at {label}" for label, c in data["cartan"].items()
                if c != cartan]
        lengths = [len(m["word"]) for m in data.get("morphisms", ())]
        if lengths and (max(lengths) != npos or lengths.count(npos) != 1):
            bad.append(f"longest morphism length {max(lengths)}, |R+| = {npos}")
        return bad
    return check


def _check_roots(spec, expected, positive):
    objects, _, npos = expected
    want = sorted(positive)
    m_table = [[0 if i == j else O.rank2_m(positive, i, j) for j in range(spec.rank)]
               for i in range(spec.rank)]
    assert len(want) == npos

    def check(rc, out):
        data, bad = _parse(rc, out)
        if data is None:
            return bad
        if len(data) != objects:
            bad.append(f"roots for {len(data)} objects, expected {objects}")
        for label, entry in data.items():
            if sorted(map(tuple, entry["positive"])) != want:
                bad.append(f"positive roots at {label}: {len(entry['positive'])} "
                           f"of {npos}, or not the classical ones")
            if entry["m_table"] != m_table:
                bad.append(f"m table at {label}")
        return bad
    return check


GROUPOID_CHECKS = {"orbit": _check_orbit, "roots": _check_roots}
