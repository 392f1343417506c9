"""One round of one workload, in a fresh single-threaded process.

The round imports the program from ``src/`` of the checkout, writes and
reads back its inputs (the set-up), runs every task of the workload once
through ``weyldouble.cli.main``, then checks every output against the
oracles.  It prints one JSON line with its timings, its peak resident
memory, the operations attempted and failed, the mismatches found and,
when traced, the per-layer metrics.  Run by ``run.py``; by hand:

    python3 perfbench/worker.py --workload groupoid-roots --seed 1
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
EXIT_INTERNAL = 1   # the program's exit code for an internal error


def import_program():
    """The program of this checkout, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import weyldouble.cli
    from weyldouble.catalog import catalog_entry
    from weyldouble.serialize import bicharacter_from_json
    location = os.path.abspath(weyldouble.cli.__file__)
    if not location.startswith(src + os.sep):
        raise ImportError(f"weyldouble imported from {location}, not from {src}")
    return SimpleNamespace(cli=weyldouble.cli, catalog_entry=catalog_entry,
                           bicharacter_from_json=bicharacter_from_json)


def run_task(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:   # argparse refusing the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run_round(workload_name, seed, traced=False, setup_only=False):
    workload = Workload(workload_name, seed,
                        os.path.join(OUT, "inputs", f"{workload_name}-{seed}"))
    t0 = perf_counter()
    program = import_program()
    workload.write_inputs()
    workload.read_inputs(program)
    setup_s = perf_counter() - t0
    if setup_only:
        return {"setup_s": setup_s}

    tracer = None
    main = program.cli.main
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        main = tracer.spanned("task", main)

    results, task_s = [], []
    for task in workload.tasks:
        t = perf_counter()
        results.append(run_task(main, task.argv))
        task_s.append(perf_counter() - t)
        if tracer:
            tracer.end_task()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, mismatches = 0, []
    for task, (rc, out, err) in zip(workload.tasks, results):
        if rc == EXIT_INTERNAL:
            failed += 1
            print(f"{task.label}: {err.strip()}", file=sys.stderr)
            continue
        mismatches += [f"{task.label}: {m}" for m in task.check(rc, out)]

    slowest = max(range(len(task_s)), key=task_s.__getitem__)
    report = {"setup_s": setup_s, "run_s": sum(task_s),
              "slowest_task_s": task_s[slowest],
              "slowest_task": workload.tasks[slowest].label,
              "peak_rss_mb": peak_rss_mb,
              "attempted": len(workload.tasks), "failed": failed,
              "mismatches": mismatches,
              "tasks": {t.label: s for t, s in zip(workload.tasks, task_s)}}
    if tracer:
        report["layers"] = tracing.layer_metrics(tracer)
        report["spans"] = len(tracer.span_name)
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        tracer.write_spans(os.path.join(
            OUT, "spans", f"{workload_name}-seed{seed}.json"))
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    report = run_round(args.workload, args.seed, bool(args.trace), args.setup_only)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
