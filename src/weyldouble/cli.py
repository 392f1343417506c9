"""Batch command-line interface.

Subcommands: analyze, orbit, roots, hilbert, verify.  Inputs are JSON
bicharacter files or catalog references (``catalog:NAME``).  Exit codes:
0 success, 1 internal error, 2 precondition failure.  Output is
deterministic: canonical scalar rendering, sorted JSON keys.
"""

import argparse
import json
import random
import sys

from .bicharacter import CAP, NotPFiniteError, basis_vector
from .catalog import CATALOG, catalog_entry
from .freealg import DegreeCapExceeded, nichols_dim
from .groupoid import (InfiniteGroupoidError, TruncatedSchemeError,
                       explore, is_finite, real_roots)
from .linalg import rank
from .lusztig import (build_lusztig_map, check_defining_relations,
                      coxeter_check, longest_factorization,
                      nichols_characterization, serre_family)
from .serialize import (bicharacter_from_json, bicharacter_to_json, dump_json,
                        object_label, roots_to_json, scheme_to_dot,
                        scheme_to_json)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PRECONDITION = 2

SUITES = ("relations", "coxeter", "serre", "pairing", "lusztig-id",
          "longest", "nichchar")


class PreconditionFailure(Exception):
    pass


def load_bicharacter(source):
    if source.startswith("catalog:"):
        name = source.split(":", 1)[1]
        try:
            return catalog_entry(name).build()
        except KeyError as err:
            raise PreconditionFailure(str(err)) from None
    try:
        with open(source) as handle:
            data = json.load(handle)
    except OSError as err:
        raise PreconditionFailure(f"cannot read {source}: {err}") from None
    return bicharacter_from_json(data)


def _emit(args, payload, text_renderer=None):
    if args.format == "json" or text_renderer is None:
        sys.stdout.write(dump_json(payload))
    else:
        sys.stdout.write(text_renderer(payload))


def cmd_analyze(args):
    chi = load_bicharacter(args.input)
    n = chi.rank
    report = {"rank": n, "bicharacter": bicharacter_to_json(chi)}
    finite = {}
    for p in range(n):
        for j in range(n):
            if j == p:
                continue
            probe = chi.p_probe(p, j, args.scan_cap)
            if not probe.finite:
                raise PreconditionFailure(
                    f"not p-finite at (p={p + 1}, j={j + 1}): "
                    + ("scan cap reached" if probe.status == CAP
                       else "proven infinite"))
            finite[f"({p + 1},{j + 1})"] = probe.m
    report["p_finite_witnesses"] = finite
    report["cartan"] = [list(row) for row in chi.cartan_matrix(args.scan_cap)]
    report["simple_root_heights"] = [
        chi.height(basis_vector(n, i)) or "infinity" for i in range(n)]
    lam = {}
    for p in range(n):
        for i in range(n):
            if i != p:
                lam[f"lambda[{p + 1},{i + 1}]"] = str(chi.lambda_factor(p, i))
    report["lambda_table"] = lam

    def text(rep):
        lines = [f"rank: {rep['rank']}"]
        lines.append("cartan matrix:")
        lines.extend("  " + " ".join(f"{c:3d}" for c in row)
                     for row in rep["cartan"])
        lines.append("simple root heights: "
                     + " ".join(str(h) for h in rep["simple_root_heights"]))
        lines.append("lambda factors:")
        lines.extend(f"  {k} = {v}" for k, v in sorted(rep["lambda_table"].items()))
        return "\n".join(lines) + "\n"

    _emit(args, report, text)
    return EXIT_OK


def _explore(args, chi):
    scheme = explore(chi, object_cap=args.object_cap, scan_cap=args.scan_cap)
    if not scheme.complete:
        raise PreconditionFailure(
            f"orbit exploration truncated at {args.object_cap} objects")
    return scheme


def cmd_orbit(args):
    chi = load_bicharacter(args.input)
    scheme = _explore(args, chi)
    if args.format == "dot":
        sys.stdout.write(scheme_to_dot(scheme))
        return EXIT_OK
    payload = scheme_to_json(scheme)
    report = is_finite(scheme, args.morphism_cap)
    payload["finite"] = report.finite
    payload["morphism_count"] = report.morphism_count
    if report.finite:
        from .groupoid import morphisms_from
        from .serialize import morphisms_to_json
        payload["morphisms"] = morphisms_to_json(
            scheme, morphisms_from(scheme, scheme.source_key,
                                   args.morphism_cap))
    _emit(args, payload)
    return EXIT_OK


def cmd_roots(args):
    chi = load_bicharacter(args.input)
    scheme = _explore(args, chi)
    entries = [real_roots(scheme, key, args.morphism_cap)
               for key in scheme.objects]
    _emit(args, roots_to_json(scheme, entries))
    return EXIT_OK


def cmd_hilbert(args):
    chi = load_bicharacter(args.input)
    n = chi.rank
    dims = {}
    for total in range(args.degree_cap + 1):
        for mu in _degrees_of_total(n, total):
            dims["(" + ",".join(map(str, mu)) + ")"] = nichols_dim(
                chi, mu, args.degree_cap)
    _emit(args, {"degree_cap": args.degree_cap, "dimensions": dims})
    return EXIT_OK


def _degrees_of_total(n, total):
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _degrees_of_total(n - 1, total - head):
            yield (head,) + tail


def _suite_relations(args, chi, scheme, rng):
    results = []
    for key in scheme.objects:
        ob = scheme.objects[key]
        for p in range(chi.rank):
            for direction in "+-":
                rep = check_defining_relations(
                    build_lusztig_map(ob, p, direction), args.degree_cap)
                result = {"check": "defining-relations",
                          "object": object_label(ob),
                          "word": f"T_{p + 1}{direction}",
                          "status": "pass" if rep.passed else "fail"}
                if rep.failures:
                    result["witness"] = rep.failures[0]
                results.append(result)
    # seeded sampling: commutators with F_i realize the skew-derivations
    from .double import DoubleElement, commutator
    from .freealg import der_k, der_l, words_of_degree
    from .freealg import FreeElement as FE
    for key in scheme.objects:
        ob = scheme.objects[key]
        degree = tuple(rng.randint(1, 2) for _ in range(ob.rank))
        words = list(words_of_degree(ob.rank, degree))
        picks = rng.sample(words, min(3, len(words)))
        sample = FE.from_terms(ob, "E", [(w, ob.ctx.integer(rng.randint(1, 5)))
                                         for w in picks])
        ok = True
        for i in range(ob.rank):
            lhs = commutator(DoubleElement.from_free(sample),
                             DoubleElement.gen_f(ob, i))
            rhs = (DoubleElement.from_free(der_k(i, sample))
                   * DoubleElement.gen_k(ob, i)
                   - DoubleElement.gen_l(ob, i)
                   * DoubleElement.from_free(der_l(i, sample)))
            if lhs != rhs:
                ok = False
        results.append({"check": "commutator-derivation",
                        "object": object_label(ob),
                        "word": "".join(map(str, degree)),
                        "status": "pass" if ok else "fail"})
    return results


def _suite_coxeter(args, chi, scheme, rng):
    results = []
    for i in range(chi.rank):
        for j in range(i + 1, chi.rank):
            rep = coxeter_check(chi, i, j, args.rank2_cap, args.degree_cap)
            results.append({"check": "coxeter", "pair": [i + 1, j + 1],
                            "M": rep.M, "twist": [str(a) for a in rep.twist],
                            "status": "pass"})
    return results


def _suite_serre(args, chi, scheme, rng):
    rep = nichols_characterization(scheme, serre_family(scheme),
                                   args.degree_cap)
    return [{"check": "serre-sufficiency",
             "status": "pass" if rep.passed else "fail",
             "precondition_failures": [list(map(str, f)) for f in rep.precondition_failures],
             "failures": [[object_label(scheme.objects[f[0]]), f[1] + 1, f[2]]
                          for f in rep.failures]}]


def _suite_pairing(args, chi, scheme, rng):
    from .double import pairing_gram
    results = []
    cap = min(args.degree_cap, 4)
    for total in range(cap + 1):
        for mu in _degrees_of_total(chi.rank, total):
            got = rank(pairing_gram(chi, mu))
            want = nichols_dim(chi, mu)
            results.append({"check": "pairing-rank", "degree": list(mu),
                            "rank": got, "status": "pass" if got == want else "fail"})
    return results


def _suite_lusztig_id(args, chi, scheme, rng):
    from .double import DoubleElement, is_zero_in_u
    results = []
    for key in scheme.objects:
        ob = scheme.objects[key]
        for p in range(chi.rank):
            forward = build_lusztig_map(ob, p)
            backward = build_lusztig_map(forward.target, p, "-")
            ok = True
            for k in range(chi.rank):
                for gen in (DoubleElement.gen_e, DoubleElement.gen_f,
                            DoubleElement.gen_k, DoubleElement.gen_l):
                    x = gen(ob, k)
                    if not is_zero_in_u(backward.apply(forward.apply(x)) - x,
                                        args.degree_cap):
                        ok = False
            results.append({"check": "T T^- = id", "object": object_label(ob),
                            "p": p + 1, "status": "pass" if ok else "fail"})
    return results


def _suite_longest(args, chi, scheme, rng):
    fact = longest_factorization(scheme, args.degree_cap, args.morphism_cap)
    return [{"check": "longest-factorization",
             "word": [i + 1 for i in fact.word],
             "tau": [i + 1 for i in fact.tau],
             "lambdas": [str(x) for x in fact.lambdas],
             "status": "pass"}]


SUITE_RUNNERS = {
    "relations": _suite_relations,
    "coxeter": _suite_coxeter,
    "serre": _suite_serre,
    "pairing": _suite_pairing,
    "lusztig-id": _suite_lusztig_id,
    "longest": _suite_longest,
    "nichchar": _suite_serre,
}


def cmd_verify(args):
    chi = load_bicharacter(args.input)
    scheme = _explore(args, chi)
    rng = random.Random(args.seed)
    results = SUITE_RUNNERS[args.suite](args, chi, scheme, rng)
    failed = [r for r in results if r.get("status") != "pass"]
    payload = {"suite": args.suite, "results": results,
               "passed": not failed}

    def text(rep):
        lines = [f"suite {rep['suite']}: "
                 + ("PASS" if rep["passed"] else "FAIL")]
        for r in rep["results"]:
            detail = {k: v for k, v in r.items() if k not in ("check", "status")}
            lines.append(f"  [{r['status']}] {r['check']} {detail}")
        return "\n".join(lines) + "\n"

    _emit(args, payload, text)
    return EXIT_OK if not failed else EXIT_PRECONDITION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weyldouble",
        description="Exact computation with Weyl groupoids of bicharacters "
                    "and doubles of Nichols algebras of diagonal type")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True,
                       help="JSON bicharacter file or catalog:NAME "
                            f"(catalog: {', '.join(sorted(CATALOG))})")
        p.add_argument("--format", choices=("json", "text", "dot"),
                       default="json")
        p.add_argument("--degree-cap", type=int, default=14, dest="degree_cap")
        p.add_argument("--object-cap", type=int, default=1024, dest="object_cap")
        p.add_argument("--morphism-cap", type=int, default=10 ** 6,
                       dest="morphism_cap")
        p.add_argument("--rank2-cap", type=int, default=64, dest="rank2_cap")
        p.add_argument("--scan-cap", type=int, default=64, dest="scan_cap")
        p.add_argument("--seed", type=int, default=0)

    for name, fn in [("analyze", cmd_analyze), ("orbit", cmd_orbit),
                     ("roots", cmd_roots), ("hilbert", cmd_hilbert)]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)
    p = sub.add_parser("verify")
    p.add_argument("suite", choices=SUITES)
    common(p)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PreconditionFailure as err:
        print(f"precondition failure: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NotPFiniteError, TruncatedSchemeError, InfiniteGroupoidError,
            DegreeCapExceeded) as err:
        print(f"precondition failure: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as err:  # pragma: no cover - internal errors
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
