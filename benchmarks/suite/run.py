#!/usr/bin/env python3
"""The repository benchmark: open-loop authentication and offline CRPs.

Run everything (from the repository root)::

    python3 benchmarks/suite/run.py [--workload W ...] [--seed N]
                                    [--seconds S] [--trace] [--smoke]
                                    [--out FILE]

Every metric prints as ``workload metric value unit (n=samples)``; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``,
or its per-layer metrics with ``--trace``).  A failed correctness check
exits 1.  Two more modes read result files written with ``--out``::

    run.py --validate FILE
    run.py --compare A.json [A2.json ...] -- B.json [B2.json ...]

See README.md beside this file for the workloads and the metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SCHEMA = 1

WARMUP_SECONDS = 3.0
SETUPS = 3
REPLAY_CHALLENGES = 1024
SMOKE = {"seconds": 2.0, "warmup": 0.5, "setups": 1, "replay": 128}


def fail(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark() -> dict:
    try:
        with open(BENCHMARK) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read {BENCHMARK}: {error}")


def load_result(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read result file {path}: {error}")


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def _git(*args):
    result = subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
    )
    if result.returncode:
        raise OSError(result.stderr.strip())
    return result.stdout.strip()


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    sha = dirty = None
    try:
        if os.path.realpath(_git("rev-parse", "--show-toplevel")) == os.path.realpath(ROOT):
            sha = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: the sha stays unknown
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
    }


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def run(args, benchmark: dict) -> int:
    from workloads import WORKLOADS, Options, run_workload

    nproc = len(os.sched_getaffinity(0))
    runs = os.path.join(ROOT, ".bench_runs")
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    opts = Options(
        seed=args.seed,
        seconds=SMOKE["seconds"] if args.smoke else float(seconds),
        warmup=SMOKE["warmup"] if args.smoke else WARMUP_SECONDS,
        setups=SMOKE["setups"] if args.smoke else SETUPS,
        replay=SMOKE["replay"] if args.smoke else REPLAY_CHALLENGES,
        trace=bool(args.trace),
        smoke=args.smoke,
        nproc=nproc,
        root=ROOT,
        workdir=os.path.join(runs, f"work-{os.getpid()}"),
        trace_dir=args.trace_dir or runs,
    )
    if args.out and opts.smoke and os.path.basename(args.out).startswith("baseline"):
        fail("a --smoke run cannot be written as a baseline")
    names = args.workload or list(WORKLOADS)
    result = {
        "schema": SCHEMA,
        "env": environment(nproc),
        "smoke": opts.smoke,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "warmup_seconds": opts.warmup,
        "setups": opts.setups,
        "trace": opts.trace,
        "workloads": {},
    }
    for name in names:
        try:
            outcome = run_workload(name, opts)
        except RuntimeError as error:
            fail(str(error), 1)
        result["workloads"][name] = outcome
        print_workload(name, outcome)

    if args.out:
        write_result(args.out, result)
    print(json.dumps(summary_line(result, benchmark)))
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


def print_workload(name: str, outcome: dict) -> None:
    for group in ("metrics", "layers"):
        for metric, entry in outcome[group].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']} (n={entry['n']})")
    for key, value in outcome["extra"].items():
        if isinstance(value, (int, float)):
            print(f"{name} {key} {value:.6g}")
    print(
        f"{name} attempted {outcome['attempted']} failed {outcome['failed']} "
        f"correct {outcome['correct']}"
    )
    for problem in outcome["problems"]:
        print(f"{name} PROBLEM {problem}")


def summary_line(result: dict, benchmark: dict) -> dict:
    """The last stdout line: the metric set ``BENCHMARK.json`` names."""
    group, listed = (
        ("layers", benchmark["per_layer"]) if result["trace"]
        else ("metrics", benchmark["end_to_end"])
    )
    outcomes = result["workloads"]
    prefix = len(outcomes) > 1
    metrics = {}
    for name, outcome in outcomes.items():
        for entry in listed:
            measured = outcome[group][entry["name"]]
            key = f"{name}/{entry['name']}" if prefix else entry["name"]
            metrics[key] = {"value": measured["value"], "unit": measured["unit"]}
    return {
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": metrics,
    }


def write_result(path: str, result: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------
ENV_KEYS = ("nproc", "python", "numpy", "scipy", "git_sha", "git_dirty")
RESULT_KEYS = ("schema", "env", "smoke", "seed", "trace", "workloads")


def validate(path: str, benchmark: dict) -> list:
    """Problems that make ``path`` unusable as a benchmark record."""
    result = load_result(path)
    problems = [f"missing key {key!r}" for key in RESULT_KEYS if key not in result]
    if problems:
        return problems
    if result["schema"] != SCHEMA:
        problems.append(f"schema {result['schema']!r}, expected {SCHEMA}")
    problems += [f"env lacks {key!r}" for key in ENV_KEYS if key not in result["env"]]
    if result["smoke"] and os.path.basename(path).startswith("baseline"):
        problems.append("a --smoke run cannot be a baseline")
    listed = [("metrics", entry) for entry in benchmark["end_to_end"]]
    if result["trace"]:
        listed += [("layers", entry) for entry in benchmark["per_layer"]]
    names = {entry["name"] for entry in benchmark["workloads"]}
    if not result["workloads"]:
        problems.append("no workloads")
    for name, outcome in result["workloads"].items():
        if name not in names:
            problems.append(f"unknown workload {name!r}")
        if "params" not in outcome:
            problems.append(f"{name}: no workload parameters")
        for group, entry in listed:
            measured = outcome.get(group, {}).get(entry["name"])
            if measured is None:
                problems.append(f"{name}: metric {entry['name']} missing")
            elif measured.get("unit") != entry["unit"]:
                problems.append(
                    f"{name}: {entry['name']} in {measured.get('unit')!r}, "
                    f"BENCHMARK.json says {entry['unit']!r}"
                )
            elif not isinstance(measured.get("n"), int):
                problems.append(f"{name}: {entry['name']} has no sample count")
    return problems


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(parent_paths, change_paths, benchmark: dict) -> int:
    """Per workload × end-to-end metric: ok, regressed or unresolved."""
    sides = []
    for paths in (parent_paths, change_paths):
        results = [load_result(path) for path in paths]
        for path, result in zip(paths, results):
            if result.get("smoke"):
                fail(f"{path} is a --smoke run; smoke numbers are not comparable")
        sides.append(results)
    parent, change = sides
    workloads = [
        entry["name"] for entry in benchmark["workloads"]
        if all(entry["name"] in r["workloads"] for r in parent + change)
    ]
    print(
        f"{'workload':<20} {'metric':<22} {'parent':>10} {'change':>10} "
        f"{'parent q1-q3':>21} {'change q1-q3':>21} {'delta':>8} {'bound':>6}  verdict"
    )
    regressed = 0
    for name in workloads:
        for entry in benchmark["end_to_end"]:
            a = [r["workloads"][name]["metrics"][entry["name"]]["value"] for r in parent]
            b = [r["workloads"][name]["metrics"][entry["name"]]["value"] for r in change]
            med_a, med_b = statistics.median(a), statistics.median(b)
            (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
            delta = (med_b - med_a) / med_a
            worse = delta if entry["better"] == "lower" else -delta
            spread = max((a3 - a1) / med_a, (b3 - b1) / med_b)
            if entry["better"] == "lower":
                change_always_better = max(b) < min(a)
            else:
                change_always_better = min(b) > max(a)
            if spread > entry["bound"]:
                verdict = "ok" if change_always_better else "unresolved"
            elif worse > entry["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            regressed += verdict == "regressed"
            print(
                f"{name:<20} {entry['name']:<22} {med_a:>10.4g} {med_b:>10.4g} "
                f"{a1:>10.4g}-{a3:<10.4g} {b1:>10.4g}-{b3:<10.4g} "
                f"{delta:>+8.3f} {entry['bound']:>6.2f}  {verdict}"
            )
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def main(argv) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail(f"the program's sources are not at {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    benchmark = load_benchmark()
    if "--compare" in argv:
        rest = argv[argv.index("--compare") + 1:]
        if "--" not in rest:
            fail("usage: run.py --compare A.json [A2 ...] -- B.json [B2 ...]")
        split = rest.index("--")
        if not rest[:split] or not rest[split + 1:]:
            fail("--compare needs result files on both sides of --")
        return compare(rest[:split], rest[split + 1:], benchmark)

    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", action="append", choices=[
        entry["name"] for entry in benchmark["workloads"]
    ], help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured phase length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run with spans and replay")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for self-tests; never a baseline")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--trace-dir", help="where trace-<workload>.json go")
    parser.add_argument("--validate", metavar="FILE",
                        help="check a result file against BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.validate:
        problems = validate(args.validate, benchmark)
        for problem in problems:
            print(f"invalid: {problem}")
        if not problems:
            print(f"{args.validate}: valid")
        return 1 if problems else 0
    return run(args, benchmark)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
