"""Self-test of the benchmark: oracles against hand counts, and the exit
code of run.py on a program that gives wrong answers or is missing.

    python3 perfbench/selftest.py            # oracles only, about a second
    python3 perfbench/selftest.py --mutants  # also three mutated programs, about a minute

The mutated copies are made under perfbench/out/; the program itself is
never changed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from itertools import product

import oracles as O
import run
import tracing
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out", "selftest")


def weyl_group_size(cartan):
    """|W| by closing the simple reflections under products."""
    n = len(cartan)
    gens = [O.reflection(cartan, p) for p in range(n)]
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = O.mat_mul(w, s)
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    return len(seen)


def check_oracles():
    specs = W.CATALOG_SPECS

    def dims(name, cap):
        spec = specs[name]
        return O.pbw_dimensions(spec, O.positive_roots(spec.cartan), cap)

    a2 = dims("A2", 4)
    # A2 generic: PBW monomials E1^a E12^b E2^c of degree (a+b, b+c)
    assert a2[(1, 1)] == 2 and a2[(2, 2)] == 3 and a2[(2, 1)] == 2, a2
    assert a2[(3, 0)] == 1 and a2[(0, 0)] == 1
    # u_q^+(sl3) at a primitive cube root: 3^3 = 27, top degree (4, 4)
    z3 = dims("A2-zeta3", 8)
    assert sum(z3.values()) == 27 and z3[(4, 4)] == 1 and z3[(2, 2)] == 3, z3
    # q = i: chi(b, b) = -1 on every root, an exterior algebra of dimension 8
    z4 = dims("A2-zeta4", 6)
    assert sum(z4.values()) == 8 and z4[(2, 2)] == 1 and z4[(1, 1)] == 2, z4
    # super A2: E2^2 = 0 and E12^2 = 0, E1 free
    sup = dims("A2-super", 4)
    assert sup[(0, 2)] == 0 and sup[(1, 1)] == 2 and sup[(2, 2)] == 1, sup
    # B2 generic: roots a1, a2, a1+a2, a1+2a2 (a2 short)
    b2 = dims("B2", 4)
    assert b2[(1, 2)] == 3 and b2[(0, 2)] == 1, b2

    for kind in ("A2", "A3", "A5", "B2", "D4", "D5", "F4", "G2"):
        cartan = W.generic(kind).cartan
        positive = O.positive_roots(cartan)
        assert len(positive) == O.positive_count(kind), kind
        assert O.longest_element(cartan)[1] == len(positive), kind
        assert weyl_group_size(cartan) == O.weyl_order(kind), kind
    assert O.weyl_order("A5") == 720 and O.weyl_order("D4") == 192
    assert O.weyl_order("F4") == 1152 and O.weyl_order("G2") == 12

    m = {k: O.rank2_m(O.positive_roots(W.generic(k).cartan), 0, 1)
         for k in ("A2", "B2", "G2")}
    assert m == {"A2": 3, "B2": 4, "G2": 6}, m
    assert O.rank2_m(O.positive_roots(W.generic("A3").cartan), 0, 2) == 2
    assert O.minus_w0_permutation(W.generic("A2").cartan) == (1, 0)
    assert O.minus_w0_permutation(W.generic("A3").cartan) == (2, 1, 0)
    assert O.minus_w0_permutation(W.generic("B2").cartan) == (0, 1)
    assert O.minus_w0_permutation(W.generic("G2").cartan) == (0, 1)

    assert O.super_counts(2, 1) == (3, 6, 3)
    assert O.super_counts(3, 3) == (20, 720, 15)
    assert O.super_counts(4, 2) == (15, 720, 15)
    assert len(O.contiguous_roots(5)) == 15
    # an odd isotropic simple root has q_ii = -1, an even one q^(+-2)
    for parity in product((0, 1), repeat=4):
        spec = W.super_a(list(parity))
        for i in range(3):
            sign, (e,) = spec.entries[i][i]
            odd = parity[i] != parity[i + 1]
            assert (sign, e) == ((-1, 0) if odd else (1, 2 if parity[i] == 0 else -2))
    assert W.CATALOG_SPECS["A2-super"].to_json()["q"] == [["q^2", "q^-2"], ["1", "-1"]]
    assert not O.serre_presents(specs["A2-zeta3"]) and O.serre_presents(specs["G2"])
    print("oracles: all hand counts agree")


def check_metric_names():
    """BENCHMARK.json lists exactly the metrics that run.py prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    assert end_to_end == [name for name, _ in run.END_TO_END], end_to_end
    printed = list(tracing.layer_metrics(tracing.Tracer())) + ["trace.overhead"]
    assert per_layer == printed, set(per_layer) ^ set(printed)
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(units[name] == run.unit_of(name) for name in printed)
    print(f"metric names: {len(end_to_end)} end-to-end, {len(per_layer)} per-layer")


# mutated programs ------------------------------------------------------------------

MUTANTS = (
    # (workload, file, original text, mutated text)
    (W.NICHOLS, "freealg.py",
     "        cache[mu] = rank(gram_matrix(chi, mu))",
     "        cache[mu] = rank(gram_matrix(chi, mu)) + (sum(mu) == 5)"),
    (W.LUSZTIG, "cli.py",
     '"tau": [i + 1 for i in fact.tau],',
     '"tau": [i + 1 for i in reversed(fact.tau)],'),
    (W.GROUPOID, "serialize.py",
     "for m in sorted(morphisms, key=lambda m: (len(m.word), m.word))]",
     "for m in sorted(morphisms, key=lambda m: (len(m.word), m.word))[1:]]"),
)


def copy_tree(dest, with_program):
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def run_copy(dest, workload):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=dest, capture_output=True, text=True, timeout=170)


def check_mutants():
    for workload, name, original, mutated in MUTANTS:
        dest = os.path.join(SCRATCH, workload)
        copy_tree(dest, with_program=True)
        path = os.path.join(dest, "src", "weyldouble", name)
        with open(path) as handle:
            text = handle.read()
        if text.count(original) != 1:
            raise SystemExit(f"mutation site in {name} not found; update MUTANTS")
        with open(path, "w") as handle:
            handle.write(text.replace(original, mutated))
        proc = run_copy(dest, workload)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert proc.returncode == 1 and result["correct"] is False, (
            workload, proc.returncode, proc.stdout[-2000:])
        print(f"mutant {name} on {workload}: exit 1, correct false")

    dest = os.path.join(SCRATCH, "no-program")
    copy_tree(dest, with_program=False)
    proc = run_copy(dest, W.GROUPOID)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print(f"no program: exit {proc.returncode}, no result line")
    shutil.rmtree(SCRATCH, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mutants", action="store_true")
    args = parser.parse_args(argv)
    check_oracles()
    check_metric_names()
    if args.mutants:
        check_mutants()
    return 0


if __name__ == "__main__":
    sys.exit(main())
