"""The wall_s trend of the perf record, one row per BENCH file and workload.

    python3 scripts/bench_table.py [BENCH_<n>.json ...]

With no file named, every BENCH_*.json at the top of the repository is
read, in PR order (by n, then by name). Each row gives the parent and change
wall_s medians and the change's wins, as scripts/bench_pairs.py's summarise
derives them from the pairs stored in the file.
"""

import json, pathlib, re, sys

from bench_pairs import ROOT, summarise


def pr_order(path: pathlib.Path) -> tuple[int, str]:
    return int(re.match(r"BENCH_(\d+)", path.name)[1]), path.name


def main() -> None:
    paths = [pathlib.Path(p) for p in sys.argv[1:]] or pathlib.Path(ROOT).glob("BENCH_*.json")
    print(f"{'file':<24}{'workload':<20}{'parent_s':>10}{'change_s':>10}{'wins':>8}")
    for path in sorted(paths, key=pr_order):
        for key, pairs in json.loads(path.read_text(encoding="utf-8"))["workloads"].items():
            wall = summarise(pairs)["wall_s"]
            print(f"{path.name:<24}{key:<20}{wall['parent_median']:>10.4f}"
                  f"{wall['change_median']:>10.4f}{wall['change_wins']:>8}")


if __name__ == "__main__":
    main()
