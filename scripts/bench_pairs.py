"""Paired perfbench runs of two commits, written as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json
        [--pairs constructions=10,battery=10,axioms@29=10] [--workdir DIR]

Each commit is exported with git archive into a new temporary directory
(under --workdir if given, made if missing), so no worktree is registered. A workload runs
with seed 11 unless its entry names one, for BENCHMARK.json's run_seconds.
By default each workload gets 10 pairs, enough to set a median against the
parent's quartile spread, and constructions and axioms also run 5 pairs on
the held-out seed 29, so a gain is seen on inputs it was not tuned on. Pair
i runs the parent first when i is odd. Then each side traces TRACED runs,
in the same alternating order, since one traced run cannot resolve a self
time of a few ms; every traced run is stored, with each side's median of
every per-layer metric beside them.
"""

import argparse, io, json, os, pathlib, platform, statistics, subprocess, sys, tarfile, tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "wall_s", "verdict_p50_s", "verdict_p90_s", "peak_rss_mb")
SIDES = ("parent", "change")
ORDER = "pair i runs the parent first when i is odd, the change first when i is even"
BENCHMARK = json.loads(pathlib.Path(ROOT, "BENCHMARK.json").read_text())
SEED, SECONDS = 11, BENCHMARK["run_seconds"]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
PAIRS = "constructions=10,battery=10,axioms=10,constructions@29=5,axioms@29=5"
TRACED = 5


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def run(tree: str, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def parse_pairs(spec: str) -> dict[str, tuple[str, int, int]]:
    """{"workload@seed": (workload, seed, pairs)} for each comma-separated
    entry "workload[@seed]=pairs" of spec, in order; seed defaults to SEED."""
    out = {}
    for item in spec.split(","):
        name, n = item.split("=")
        workload, _, seed = name.partition("@")
        seed = int(seed or SEED)
        out[f"{workload}@{seed}"] = workload, seed, int(n)
    return out


def alternate(trees: dict, workload: str, seed: int, n: int, trace: int) -> list:
    """n pairs of runs, each side in its tree of trees; pair i runs the
    parent first when i is odd."""
    pairs = []
    for i in range(1, n + 1):
        pair = {"pair": i}
        for s in SIDES if i % 2 else SIDES[::-1]:
            pair[s] = res = run(trees[s], workload, seed, trace)
            shown = "traced" if trace else f"wall_s {res['metrics']['wall_s']['value']:.3f}"
            print(f"{workload}@{seed} pair {i} {s}: {shown}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def medians(pairs: list) -> dict:
    """Each side's median of every metric over the runs of pairs."""
    return {s: {m: statistics.median(p[s]["metrics"][m]["value"] for p in pairs)
                for m in pairs[0][s]["metrics"]} for s in SIDES}


def summarise(pairs: list) -> dict:
    """Medians, the parent's IQR and the change's wins (lower is better).
    gain_shown: the change wins at least 9/10 of the pairs and its median
    is lower than the parent's by more than the parent's IQR. worse_shown
    is its mirror: the change loses at least 9/10 of the pairs and its
    median exceeds the parent's by more than the parent's IQR.
    within_bound: the change's median is no worse than the parent's by
    more than the metric's bound in BENCHMARK.json."""
    out = {}
    for m in METRICS:
        par, chg = ([p[s]["metrics"][m]["value"] for p in pairs] for s in SIDES)
        q1, _, q3 = statistics.quantiles(par, n=4, method="inclusive") if par[1:] else par * 3
        mp, mc = statistics.median(par), statistics.median(chg)
        wins = sum(c < p for c, p in zip(chg, par))
        losses = sum(c > p for c, p in zip(chg, par))
        out[m] = {"parent_median": round(mp, 4), "change_median": round(mc, 4),
                  "change_vs_parent": round(mc / mp - 1, 4), "parent_iqr": round(q3 - q1, 4),
                  "change_wins": f"{wins}/{len(pairs)}",
                  "gain_shown": 10 * wins >= 9 * len(pairs) and mp - mc > q3 - q1,
                  "worse_shown": 10 * losses >= 9 * len(pairs) and mc - mp > q3 - q1,
                  "within_bound": mc <= mp * (1 + BOUNDS[m])}
    out["all_correct"] = all(p[s]["correct"] and not p[s]["failed"] for p in pairs for s in SIDES)
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent"), ap.add_argument("change"), ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", default=PAIRS), ap.add_argument("--workdir")
    args = ap.parse_args(argv)
    commits = {s: git("rev-parse", ref).decode().strip() for s, ref in zip(SIDES, (args.parent, args.change))}
    doc = {"command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS:g} --trace 0",
           **commits, "python": platform.python_version(), "platform": platform.platform(),
           "nproc": len(os.sched_getaffinity(0)), "order": ORDER,
           "workloads": {}, "summary": {}, "traced": {}}
    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = {s: os.path.join(tmp, s) for s in SIDES}
        for s in SIDES:
            with tarfile.open(fileobj=io.BytesIO(git("archive", commits[s]))) as tar:
                tar.extractall(trees[s], filter="data")
        for key, (workload, seed, n) in parse_pairs(args.pairs).items():
            pairs = alternate(trees, workload, seed, n, 0)
            doc["workloads"][key], doc["summary"][key] = pairs, summarise(pairs)
            traced = alternate(trees, workload, seed, TRACED, 1)
            doc["traced"][key] = {"runs": traced, "median": medians(traced)}
    with open(args.out, "w", encoding="utf-8") as fh:
        print(json.dumps(doc, indent=1), file=fh)


if __name__ == "__main__":
    main()
