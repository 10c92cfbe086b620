#!/usr/bin/env python3
"""Same-host regression gate: runs the benchmark on a parent revision and on
this checkout, and fails when the checkout is slower.

Usage:

    python3 bench/bench_compare.py <parent-rev>

The parent is checked out with `git worktree` into a temporary directory.
For every workload in BENCHMARK.json, the benchmark's own command runs 3
pairs of times, parent and checkout alternating which goes first, each side
building into its own $CARGO_TARGET_DIR. Workloads, metrics, bounds and run
length all come from BENCHMARK.json.

The gate fails, naming the workload and the metric, when a run exits
nonzero or reports `correct: false`, or when an end-to-end metric's median
is worse than the parent's by more than its bound and the checkout also
loses every pair on it. Every run's end-to-end values and the medians go to
BENCH_<sha>.json. Exit code: 0 pass, 1 regression or failed run, 2 setup
error.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 3
SIDES = ("parent", "change")


def compare(benchmark, runs):
    """Returns one message per failure, [] when the change passes.

    `runs` maps a workload name to its list of pairs; a pair maps each of
    SIDES to a run: {"exit": int, "correct": bool, "metrics": {name: value}}.
    """
    failures = []
    for workload, pairs in runs.items():
        for i, pair in enumerate(pairs):
            for side in SIDES:
                run = pair[side]
                if run["exit"] != 0 or not run["correct"]:
                    failures.append("%s: %s run %d failed (exit %d, correct %s)"
                                    % (workload, side, i + 1, run["exit"],
                                       run["correct"]))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            sign = 1 if metric["better"] == "lower" else -1
            values = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                      for p in pairs if all(name in p[side]["metrics"]
                                            for side in SIDES)]
            if not values:
                continue
            parent = statistics.median(p for p, _ in values)
            change = statistics.median(c for _, c in values)
            worse = sign * (change - parent)
            loses_every_pair = all(sign * (c - p) > 0 for p, c in values)
            if loses_every_pair and worse > metric["bound"] * abs(parent):
                failures.append(
                    "%s: %s median %.6g vs parent %.6g (%+.1f%%, bound %.0f%%),"
                    " worse in all %d pairs" % (
                        workload, name, change, parent,
                        100 * (change - parent) / parent if parent else 0,
                        100 * metric["bound"], len(values)))
    return failures


def median_metrics(side_runs):
    names = sorted({name for run in side_runs for name in run["metrics"]})
    return {name: statistics.median(run["metrics"][name] for run in side_runs
                                    if name in run["metrics"])
            for name in names}


def run_once(benchmark, root, build_dir, workload, seed):
    cmd = benchmark["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(benchmark["run_seconds"])]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    return {"exit": proc.returncode,
            "correct": result.get("correct") is True,
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE,
                          universal_newlines=True).stdout.strip()


def main():
    if len(sys.argv) != 2:
        print("usage: %s <parent-rev>" % sys.argv[0], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    tmp = tempfile.mkdtemp(prefix="bench_compare.")
    parent_root = os.path.join(tmp, "parent")
    roots = {"parent": parent_root, "change": ROOT}
    # The change side shares run.py's default build directory, so a build
    # left by `run.py --selftest` is reused.
    builds = {"parent": os.path.join(tmp, "build"),
              "change": os.path.join(ROOT, ".bench_build")}
    try:
        try:
            parent_sha = git("rev-parse", "--verify", sys.argv[1] + "^{commit}")
            change_sha = git("rev-parse", "HEAD")
            git("worktree", "add", "--detach", parent_root, parent_sha)
        except subprocess.CalledProcessError:
            return 2
        runs = {}
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs[workload] = []
            for i in range(PAIRS):
                pair = {}
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    pair[side] = run_once(benchmark, roots[side], builds[side],
                                          workload, seed=i + 1)
                    print("%s pair %d %s: %s" % (workload, i + 1, side,
                                                 json.dumps(pair[side])),
                          flush=True)
                runs[workload].append(pair)
    finally:
        if os.path.isdir(parent_root):
            git("worktree", "remove", "--force", parent_root)
        shutil.rmtree(tmp, ignore_errors=True)

    failures = compare(benchmark, runs)
    report = {"parent": parent_sha, "change": change_sha, "workloads": {},
              "failures": failures}
    for workload, pairs in runs.items():
        medians = {side: median_metrics([p[side] for p in pairs])
                   for side in SIDES}
        report["workloads"][workload] = {"runs": pairs, "median": medians}
    out = os.path.join(ROOT, "BENCH_%s.json" % change_sha[:12])
    with open(out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + out)
    for failure in failures:
        print("FAIL " + failure)
    print("FAIL: %d failure(s)" % len(failures) if failures else "ok: no regression")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
