"""Benchmark of weyldouble: Nichols Hilbert series, Lusztig-map
verification and Weyl-groupoid root systems.

    python3 perfbench/run.py --workload lusztig-verify --seed 3 --seconds 20
    python3 perfbench/run.py --workload nichols-hilbert --trace 1
    python3 perfbench/run.py                  # all three workloads in turn

A run repeats rounds of the workload's fixed task list until --seconds
have passed (at least one round).  Every round, and every extra set-up
sample, is a fresh single-threaded process (worker.py), so the program's
caches start empty as they do for a user's command.  Outputs are checked
against oracles.py in every round.

With --trace 0 the run reports the end-to-end metrics, medians over its
rounds; with --trace 1 it runs one untraced reference round, then traced
rounds, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 when every output was
correct, 1 when any disagreed with the oracles, 2 when the benchmark
could not run (no result line then).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 8        # set-up-only processes per run, besides every round's
RUN_LIMIT_S = 170        # a run, with its set-up samples, ends within this
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("slowest_task_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchmarkError(RuntimeError):
    pass


def spawn(workload, seed, deadline, traced=False, setup_only=False):
    """One worker process; returns its report."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - perf_counter())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} round exceeded {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload, seed, seconds, traced):
    """Rounds of one workload for the given time; returns the summary."""
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    setups, rounds, reference = [], [], None
    if traced:
        reference = spawn(workload, seed, deadline)
    else:
        setups = [spawn(workload, seed, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
    while not rounds or perf_counter() - start < seconds:
        rounds.append(spawn(workload, seed, deadline, traced))
    checked = rounds + ([reference] if reference else [])
    summary = {
        "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
        "mismatches": [m for r in checked for m in r["mismatches"]],
        "slowest_task": statistics.mode(r["slowest_task"] for r in rounds),
    }
    if traced:
        layers = {name: statistics.median(r["layers"][name] for r in rounds)
                  for name in rounds[0]["layers"]}
        layers["trace.overhead"] = (statistics.median(r["run_s"] for r in rounds)
                                    / reference["run_s"])
        summary["metrics"] = {name: (value, unit_of(name))
                              for name, value in layers.items()}
        summary["spans"] = rounds[-1]["spans"]
    else:
        samples = {"setup_s": setups + [r["setup_s"] for r in rounds]}
        for name, _ in END_TO_END[1:]:
            samples[name] = [r[name] for r in rounds]
        summary["metrics"] = {name: (statistics.median(samples[name]), unit)
                              for name, unit in END_TO_END}
        summary["samples"] = {name: len(v) for name, v in samples.items()}
    return summary


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_key", "overhead")):
        return "ratio"
    return "count"


def report(workload, seed, summary, out):
    out.write(f"{workload} (seed {seed}): rounds {summary['rounds']}, "
              f"{summary['attempted']} operations attempted, "
              f"{summary['failed']} failed, "
              f"{len(summary['mismatches'])} outputs disagree with the oracles\n")
    for name, (value, unit) in summary["metrics"].items():
        note = ""
        if "samples" in summary and name in summary["samples"]:
            note = f"  (median of {summary['samples'][name]})"
        if name == "slowest_task_s":
            note += f"  [{summary['slowest_task']}]"
        text = f"{value:.6f}" if unit != "count" else f"{value:.0f}"
        out.write(f"  {name:32s} {text:>16s} {unit}{note}\n")
    if "spans" in summary:
        out.write(f"  spans stored in the last traced round: {summary['spans']}\n")
    for mismatch in summary["mismatches"][:20]:
        out.write(f"  MISMATCH {mismatch}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="weyldouble benchmark", epilog="See perfbench/README.md.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "weyldouble", "cli.py")):
        print(f"benchmark: no program at {os.path.join(ROOT, 'src', 'weyldouble')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for name in names:
            summaries[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            report(name, args.seed, summaries[name], sys.stdout)
            sys.stdout.flush()
    except BenchmarkError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2

    metrics = {}
    for name, summary in summaries.items():
        prefix = "" if len(names) == 1 else name + "."
        for metric, (value, unit) in summary["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    correct = not any(s["mismatches"] for s in summaries.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(s["attempted"] for s in summaries.values()),
                      "failed": sum(s["failed"] for s in summaries.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
