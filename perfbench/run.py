"""Seeded known-answer benchmark of time to verdict for algebroids.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload battery|axioms|constructions
                             --seed N --seconds S --trace 0|1

The workload runs in its own fresh Python process (``worker.py``) as a
closed loop with one caller, on a fixed plan sized from ``--seconds``. The
program is imported from the checkout's ``src`` directory. Every metric is
printed by name with its unit, then the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKER_TIMEOUT_S = 170

sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_s", "s"),
    ("verdict_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("fraction_coeff_share"):
        return "ratio"
    if name.endswith("max_degree"):
        return "degree"
    return "count"


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workdir = os.path.join(WORKDIR, workload)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", workdir,
    ]
    # A fixed hash seed keeps set iteration order, and so every count, the
    # same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_result(workload: str, res: dict, trace: int) -> None:
    prov = res["provenance"]
    attempted, failed = res["attempted"], res["failed"]
    print(
        f"== {workload}  seed {prov['seed']}  {prov['implementation']} {prov['python']}"
        f"  {prov['platform']}  nproc {prov['nproc']}"
    )
    shape = "pass 0 untraced, then traced" if trace else (
        f"{res['passes']} pass(es) x {res['rounds']} rounds"
    )
    print(
        f"   closed loop, 1 caller; {attempted} jobs run ({shape});"
        f" failed_ratio {failed / attempted:.4f} ({failed} of {attempted})"
    )
    metrics = res["metrics"]
    if trace:
        print(
            f"   tracing overhead {metrics['trace.overhead_s']:.3f} s"
            f" (traced pass {res['traced_wall_s']:.3f} s,"
            f" untraced {res['untraced_wall_s']:.3f} s)"
        )
        for name, value in metrics.items():
            print(f"   {name:<44} {value:.6g} {_unit(name)}")
        print("   largest self times by (enclosing span, layer):")
        for scope, layer, calls, self_s in res["by_scope"][:12]:
            print(f"     {scope:<36} {layer:<34} {calls:>9} calls {self_s:9.4f} s")
        for name in res["missing"]:
            print(f"   warning: trace target {name} not found")
        return
    times = res["setup_times"]
    notes = {
        "setup_s": f"median of {len(times)} set-ups, each in a fresh interpreter",
        "wall_s": f"{res['jobs']} jobs ({res['passes']} pass(es) x {res['jobs'] // res['passes']}),"
        f" each the median of its {res['rounds']} identical runs",
        "verdict_p50_s": f"n={res['jobs']} distinct jobs",
        "verdict_p90_s": f"n={res['jobs']} distinct jobs, {res['beyond_p90']} beyond",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    for name, unit in END_TO_END:
        print(f"   {name:<14} {metrics[name]:.6f} {unit:<3} ({notes[name]})")
    print(
        "   times above are at reference host speed (see worker.at_reference_speed);"
        f" unscaled: setup_s {res['raw_setup_s']:.6f} s ({min(times):.4f}-{max(times):.4f}),"
        f" wall_s {res['raw_wall_s']:.6f} s (mean over rounds)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args(argv)

    try:
        res = run_worker(args.workload, args.seed, args.seconds, args.trace)
        print_result(args.workload, res, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    units = dict(END_TO_END)
    metrics = {
        name: {"value": value, "unit": units.get(name) or _unit(name)}
        for name, value in res["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0 and res["attempted"] > 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
