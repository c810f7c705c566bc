#!/usr/bin/env python3
"""Runs the benchmark on a parent commit and on the working tree in
alternating pairs, and records both sides in BENCH_<workload>.json.

    python3 tools/bench_pairs.py --workload batch_rules [--pairs 10] \\
        --seed 951 [--parent HEAD] [--parent-dir DIR]
    python3 tools/bench_pairs.py --check BENCH_batch_rules.json ...

The parent tree is unpacked with `git archive` (into DIR, kept for reuse,
or a temporary directory), so each side builds the benchmark from its own
sources into its own .bench_build/. Pair i runs seed + i on both sides;
even pairs run the parent first, odd pairs the change. Each side's run is
`python3 perfbench/run.py --workload W --seed S --seconds N --trace 0`,
where N is BENCHMARK.json's run_seconds.

The output file at the repository root holds the host block, both
commits, the object ids of the paths the benchmark builds from on each
side (for the working tree, the ids `git rev-parse COMMIT:PATH` gives once
it is committed unchanged), the seeds, every run's result object and, for
each end-to-end metric of BENCHMARK.json, each side's min, quartiles,
median and max, the change's wins and ties, and a verdict:
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and its median beats the parent's by more than the
              parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (a fraction of the parent's median);
  unresolved  either side's interquartile range, as a fraction of its
              median, exceeds the bound, and not every change run beats
              every parent run;
  flat        otherwise.

--check fails on a file with fewer than 10 pairs, a pair that is not
exactly one parent run and one change run on one seed, runs of another
length than BENCHMARK.json's run_seconds, a run that is not correct or has
failed operations, or end-to-end metric names that differ from
BENCHMARK.json's.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
# What perfbench/CMakeLists.txt compiles: the root project and its sources.
BUILD_INPUTS = ("CMakeLists.txt", "src", "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout.decode().strip()


def source_ids(commit=None):
    """Object ids of BUILD_INPUTS at `commit`, or in the working tree."""
    if commit is None:
        with tempfile.TemporaryDirectory() as tmp:
            env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
            for command in (["read-tree", "HEAD"],
                            ["add", "-A", "--", *BUILD_INPUTS]):
                subprocess.run(["git", *command], cwd=ROOT, env=env,
                               check=True)
            commit = subprocess.run(
                ["git", "write-tree"], cwd=ROOT, env=env, check=True,
                stdout=subprocess.PIPE).stdout.decode().strip()
    return {path: git("rev-parse", f"{commit}:{path}")
            for path in BUILD_INPUTS}


def unpack_parent(commit, directory):
    """Unpacks `commit` into `directory` unless it already holds it."""
    marker = os.path.join(directory, ".bench_pairs_commit")
    if os.path.isfile(marker):
        with open(marker) as f:
            if f.read().strip() == commit:
                return
        sys.exit(f"bench_pairs: {directory} holds another commit")
    os.makedirs(directory, exist_ok=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {commit} failed")
    with open(marker, "w") as f:
        f.write(commit + "\n")


def run_side(tree, workload, seed, seconds):
    """Runs one benchmark process; returns (host, result)."""
    run = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE)
    lines = run.stdout.decode(errors="replace").splitlines()
    host = None
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"bench_pairs: no result from {tree} (exit code "
                 f"{run.returncode})")
    return host, result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "median": median, "q3": q3,
            "max": max(values)}


def relative(delta, base):
    return abs(delta) / abs(base) if base else (0.0 if delta == 0 else 1.0)


def verdict(spec, parent, change, pairs):
    """Compares one metric over the pairs; see the module docstring."""
    higher = spec["better"] == "higher"
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    wins = sum(better(c, p) for p, c in pairs)
    ties = sum(c == p for p, c in pairs)
    p, c = summarize(parent), summarize(change)
    gap = c["median"] - p["median"]
    if not higher:
        gap = -gap  # positive when the change is better
    spread = max(relative(s["q3"] - s["q1"], s["median"]) for s in (p, c))
    all_better = (min(change) > max(parent) if higher
                  else max(change) < min(parent))
    if wins * 10 >= 9 * len(pairs) and gap > p["q3"] - p["q1"]:
        call = "gain"
    elif gap < 0 and relative(gap, p["median"]) > spec["bound"]:
        call = "worse"
    elif spread > spec["bound"] and not all_better:
        call = "unresolved"
    else:
        call = "flat"
    return {"unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], "parent": p, "change": c,
            "change_wins": wins, "ties": ties, "pairs": len(pairs),
            "verdict": call}


def run_pairs(args):
    spec = load_spec()
    seconds = spec["run_seconds"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"bench_pairs: {args.workload} is not in BENCHMARK.json")
    parent_commit = git("rev-parse", args.parent)
    change_commit = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no") != ""
    change_sources = source_ids()
    parent_dir = args.parent_dir or tempfile.mkdtemp(prefix="bench_pairs_")
    unpack_parent(parent_commit, parent_dir)
    trees = {"parent": parent_dir, "change": ROOT}
    runs, host = [], None
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                run_host, result = run_side(trees[side], args.workload, seed,
                                            seconds)
                host = host or run_host
                runs.append({"pair": i, "side": side,
                             "first": side == order[0], "seed": seed,
                             "result": result})
                print(f"pair {i} {side}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
    finally:
        if args.parent_dir is None:
            shutil.rmtree(parent_dir, ignore_errors=True)

    def value(side, pair, name):
        run = next(r for r in runs if r["pair"] == pair and r["side"] == side)
        return run["result"]["metrics"][name]["value"]

    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [value("parent", i, name) for i in range(args.pairs)]
        change = [value("change", i, name) for i in range(args.pairs)]
        metrics[name] = verdict(metric, parent, change,
                                list(zip(parent, change)))
    record = {
        "workload": args.workload,
        "host": host,
        "parent": {"commit": parent_commit,
                   "sources": source_ids(parent_commit)},
        "change": {"commit": change_commit, "uncommitted_changes": dirty,
                   "sources": change_sources},
        "seconds": seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "metrics": metrics,
        "runs": runs,
    }
    out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for name, m in metrics.items():
        print(f"{name}: parent {m['parent']['median']:.6g} "
              f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}] -> "
              f"change {m['change']['median']:.6g} "
              f"[{m['change']['q1']:.6g}, {m['change']['q3']:.6g}], "
              f"wins {m['change_wins']}/{m['pairs']}: {m['verdict']}")
    print(f"wrote {out}")


def check(paths):
    spec = load_spec()
    expected = sorted(m["name"] for m in spec["end_to_end"])
    problems = []
    for path in paths:
        try:
            with open(path) as f:
                record = json.load(f)
            runs = record["runs"]
            pairs = {}
            for r in runs:
                pairs.setdefault(r["pair"], []).append(r)
            if len(pairs) < MIN_PAIRS:
                problems.append(f"{path}: {len(pairs)} pairs, fewer than "
                                f"{MIN_PAIRS}")
            for pair, sides in sorted(pairs.items()):
                if (sorted(r["side"] for r in sides) != ["change", "parent"]
                        or sides[0]["seed"] != sides[1]["seed"]):
                    problems.append(f"{path}: pair {pair} is not one parent "
                                    f"and one change run on one seed")
            if record["seconds"] != spec["run_seconds"]:
                problems.append(f"{path}: {record['seconds']}-s runs, not "
                                f"BENCHMARK.json's {spec['run_seconds']}")
            for r in runs:
                result = r["result"]
                if result["correct"] is not True or result["failed"] != 0:
                    problems.append(f"{path}: pair {r['pair']} {r['side']} "
                                    f"is not correct or has failures")
                if sorted(result["metrics"]) != expected:
                    problems.append(f"{path}: pair {r['pair']} {r['side']} "
                                    f"metrics differ from BENCHMARK.json's")
            if sorted(record["metrics"]) != expected:
                problems.append(f"{path}: summarized metrics differ from "
                                f"BENCHMARK.json's")
        except (OSError, ValueError, KeyError, TypeError) as error:
            problems.append(f"{path}: unreadable ({error!r})")
    for problem in problems:
        print(f"bench_pairs: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", nargs="+", metavar="FILE")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--parent-dir")
    args = parser.parse_args()
    if args.check:
        return check(args.check)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required without --check")
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    run_pairs(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
