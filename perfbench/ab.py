#!/usr/bin/env python3
"""Same-host A/B comparison of two commits on the benchmark.

Run from the repository root:

    python3 perfbench/ab.py --base HEAD~1 --pairs 10
    python3 perfbench/ab.py --base main --workloads analyze-wide

The base commit is checked out in a git worktree under .bench_build/ab and
given the working tree's perfbench/ directory, so both sides run identical
benchmark code for BENCHMARK.json's run_seconds. Pair i runs base and head
once each on seed SEED_BASE + i; the side
that goes first alternates from pair to pair. For every workload and
end-to-end metric the script prints both sides' medians and quartiles, the
share of pairs the head won, and a verdict:

  gain        over at least ten pairs, head won at least 9/10 of them and
              the medians differ by more than the base's own quartile spread
  regression  head's median is worse than base's by more than the metric's
              bound in BENCHMARK.json
  unresolved  the base's own spread is wider than the bound
  same        none of the above

Records whose host facts (CPU model, nproc, GOMAXPROCS, Go version) differ
are refused: a cross-host comparison measures the hosts. All records are
saved to .bench_build/ab/records.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HOST_KEYS = ("cpu", "nproc", "gomaxprocs", "go")
SEED_BASE = 1000


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def run_once(tree, commit, workload, seed, seconds):
    env = dict(os.environ, PERFBENCH_COMMIT=commit)
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"ab: {workload} seed {seed} at {commit} failed:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    host = next(json.loads(l[len("host "):]) for l in lines if l.startswith("host "))
    return {"commit": commit, "workload": workload, "seed": seed, "host": host, "result": json.loads(lines[-1])}


def same_host(records):
    facts = {tuple(r["host"][k] for k in HOST_KEYS) for r in records}
    if len(facts) > 1:
        for f in sorted(facts):
            print("  host:", dict(zip(HOST_KEYS, f)), file=sys.stderr)
        sys.exit("ab: records come from different hosts; refusing to compare them")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def report(records, spec):
    same_host(records)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted({r["workload"] for r in records})
    cals = [r["host"]["calibration_s"] for r in records]
    print(f"host: {dict((k, records[0]['host'][k]) for k in HOST_KEYS)}")
    print(f"calibration loop: median {statistics.median(cals):.4f}s, min {min(cals):.4f}s, max {max(cals):.4f}s")
    for w in workloads:
        rs = [r for r in records if r["workload"] == w]
        base = {r["seed"]: r for r in rs if r["side"] == "base"}
        head = {r["seed"]: r for r in rs if r["side"] == "head"}
        seeds = sorted(set(base) & set(head))
        fail = {side: sum(d[s]["result"]["failed"] for s in seeds) / max(1, sum(d[s]["result"]["attempted"] for s in seeds))
                for side, d in (("base", base), ("head", head))}
        wrong = [f"{side} seed {s}" for side, d in (("base", base), ("head", head)) for s in seeds if not d[s]["result"]["correct"]]
        print(f"\n{w}: {len(seeds)} pairs; failed share base {fail['base']:.3f} head {fail['head']:.3f}"
              + (f"; INCORRECT: {', '.join(wrong)}" if wrong else ""))
        print(f"  {'metric':<16} {'base median [q1, q3]':>34} {'head median [q1, q3]':>34} {'won':>5}  verdict")
        for name, m in metrics.items():
            b = [base[s]["result"]["metrics"][name]["value"] for s in seeds]
            h = [head[s]["result"]["metrics"][name]["value"] for s in seeds]
            if not seeds:
                continue
            lower = m["better"] == "lower"
            wins = sum((hv < bv) if lower else (hv > bv) for bv, hv in zip(b, h))
            bm, hm = statistics.median(b), statistics.median(h)
            bq, hq = quartiles(b), quartiles(h)
            worse = (hm - bm) / bm if lower else (bm - hm) / bm
            spread = (bq[1] - bq[0]) / bm
            if len(seeds) >= 10 and wins >= 0.9 * len(seeds) and abs(hm - bm) > bq[1] - bq[0]:
                verdict = "gain"
            elif worse > m["bound"]:
                verdict = "regression"
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"  {name:<16} {bm:>12.5g} [{bq[0]:.5g}, {bq[1]:.5g}] {hm:>12.5g} [{hq[0]:.5g}, {hq[1]:.5g}]"
                  f" {wins:>2}/{len(seeds):<2}  {verdict} ({worse:+.1%} worse, base spread {spread:.1%}, bound {m['bound']:.0%})")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="base commit (any git revision)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated; default every workload in BENCHMARK.json")
    args = ap.parse_args()

    root = git("rev-parse", "--show-toplevel", cwd=os.getcwd())
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    abdir = os.path.join(root, ".bench_build", "ab")
    base_tree = os.path.join(abdir, "base")
    os.makedirs(abdir, exist_ok=True)
    if os.path.exists(base_tree):
        git("worktree", "remove", "--force", base_tree, cwd=root)
    base_sha = git("rev-parse", "--short", args.base, cwd=root)
    head_sha = git("rev-parse", "--short", "HEAD", cwd=root)
    if git("status", "--porcelain", "--untracked-files=no", cwd=root):
        head_sha += "+dirty"
    git("worktree", "add", "--detach", base_tree, base_sha, cwd=root)
    try:
        shutil.rmtree(os.path.join(base_tree, "perfbench"), ignore_errors=True)
        shutil.copytree(os.path.join(root, "perfbench"), os.path.join(base_tree, "perfbench"))
        sides = {"base": (base_tree, base_sha), "head": (root, head_sha)}
        records = []
        for w in workloads:
            for i in range(args.pairs):
                seed = SEED_BASE + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    tree, sha = sides[side]
                    rec = run_once(tree, sha, w, seed, seconds)
                    rec["side"] = side
                    records.append(rec)
                    print(f"{w} pair {i + 1}/{args.pairs} {side} seed {seed} done", file=sys.stderr)
        path = os.path.join(abdir, "records.json")
        with open(path, "w") as f:
            json.dump(records, f, indent=1)
        print(f"records: {path}")
        report(records, spec)
    finally:
        git("worktree", "remove", "--force", base_tree, cwd=root)


if __name__ == "__main__":
    main()
