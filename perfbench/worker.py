"""Runs one workload in this process and prints its result as one JSON line.

Started by ``run.py``, one fresh single-threaded process per workload, so
``setup_s`` and ``peak_rss_mb`` are per workload and the package's
process-global degree cap cannot leak from one workload into another.

Untraced (``--trace 0``): set up ``SETUP_REPEATS`` times, each in a fresh
interpreter (the process re-executes itself, keeping its process id), then
run a fixed plan of seeded jobs as a closed loop with one caller (the next
job starts only after the previous verdict is out). The plan (see ``plan``)
is ``passes`` distinct job lists, each run ``rounds`` times on identical
inputs built afresh; it depends only on the workload and ``--seconds``, so
every commit runs the same jobs the same number of times. Every verdict is
compared with its known answer. Every time is scaled to reference host
speed (``at_reference_speed``); ``wall_s`` and the verdict percentiles use
each job's median over its ``rounds`` identical runs.

Traced (``--trace 1``): set up once, run pass 0 untraced, then run pass 0
again with the package wrapped by ``tracing.Tracer``. Counts come from that
one traced pass, so they repeat exactly for one seed; the tracing overhead
is the traced pass's wall time minus the untraced one's.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import VERBS, Workload, verdict_matches  # noqa: E402

SETUP_REPEATS = 11

# Distinct passes per run: enough that p90 of battery falls inside its
# check_courant tail, and no more, so that every job runs MIN_ROUNDS times.
PASSES = {"battery": 2, "axioms": 1, "constructions": 2}
MIN_ROUNDS = 3
# Plain wall time of one pass on the reference host (2-core x86-64, Python
# 3.11.7). It only sizes the plan from --seconds and is never measured, so
# the plan is the same on every commit; faster code finishes sooner.
NOMINAL_PASS_S = {"battery": 4.8, "axioms": 8.3, "constructions": 3.1}
FILL = 0.8
# The fastest time of ``host_probe`` on the reference host.
PROBE_REF_S = 0.003
SETUP_PROBES = 10


def host_probe() -> float:
    """Seconds for a fixed piece of pure-Python work, about 3 ms.

    A product of two 36- and 25-term dicts with Fraction coefficients: the
    shape of the package's polynomial kernel, but none of its code, so it
    reads the same on every commit. Its time says how fast the host runs
    at that moment; see ``at_reference_speed``.
    """
    from fractions import Fraction  # imported by the package at set-up

    a = {(i, j, 0): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    b = {(i, 0, j): Fraction(j + 3, i + 1) for i in range(5) for j in range(5)}
    t0 = time.perf_counter()
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[k] = out.get(k, 0) + ca * cb
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """A time measured while host_probe read probe_s, scaled to the speed
    at which host_probe reads PROBE_REF_S.

    Other tenants of the reference host slow it by up to 2x, in phases from
    a fraction of a second to minutes; a probe taken next to each job
    measures that slowdown where it happens.
    """
    return seconds * PROBE_REF_S / probe_s


class SetupError(Exception):
    pass


def plan(name: str, seconds: float) -> tuple[int, int]:
    """(passes, rounds): PASSES[name] distinct passes, each run as many
    times as fill about FILL * seconds on the reference host, and at least
    MIN_ROUNDS times."""
    passes = PASSES[name]
    rounds = max(MIN_ROUNDS, int(FILL * seconds / (passes * NOMINAL_PASS_S[name])))
    return passes, rounds


def import_package() -> None:
    """Import ``algebroids.cli`` (and with it every module) from ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import algebroids.cli  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"cannot import algebroids from {SRC}: {exc}") from exc
    import algebroids

    if os.path.dirname(os.path.abspath(algebroids.__file__)) != os.path.join(SRC, "algebroids"):
        raise SetupError(f"algebroids was imported from {algebroids.__file__}, not from {SRC}")


def setup(name: str, seed: int, workdir: str):
    """Import the package and build pass 0. Returns (workload, pass-0 jobs)."""
    import_package()
    workload = Workload(name, seed, workdir)
    return workload, workload.jobs(0)


def run_pass(jobs, tracer=None, probes=None):
    """Closed loop over one pass. Returns ([(kind, seconds, ok)], wall_s).

    Only ``Job.run`` is timed per job; verdicts are read and compared after
    the pass, so ``wall_s`` runs from the first job's start to the last
    verdict and holds no checking work of the benchmark's own. Given a
    list ``probes``, appends a ``host_probe`` reading before the first job
    and after each job, outside the timed calls.
    """
    raw = []
    if probes is not None:
        probes.append(host_probe())
    t_first = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.scope = f"job:{job.kind}"
        t0 = time.perf_counter()
        try:
            out, err = job.run(), None
        except Exception as exc:  # a job that raises is a failed verdict
            out, err = None, exc
        raw.append((time.perf_counter() - t0, out, err))
        if probes is not None:
            probes.append(host_probe())
    wall = time.perf_counter() - t_first
    results = []
    for job, (dt, out, err) in zip(jobs, raw):
        ok = False
        if err is None:
            try:
                checks, exit_code = job.verdict(out)
                ok = verdict_matches(job.expected, checks, exit_code)
            except Exception as exc:
                err = exc
        if err is not None:
            print(f"job {job.kind} raised:", file=sys.stderr)
            traceback.print_exception(err, file=sys.stderr)
        elif not ok:
            print(f"job {job.kind}: verdict differs from the known answer", file=sys.stderr)
        results.append((job.kind, dt, ok))
    return results, wall


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, jobs0, passes: int, rounds: int):
    """Run the plan. Returns (every result, each job's time, raw wall time).

    Each run of a job is scaled to reference speed by the mean of the probes
    just before and after it; a job's time is the median of its ``rounds``
    scaled runs. Rounds are outermost, so the runs of one job lie a round
    apart. Each pass is built from the seed just before it runs (pass 0 of
    the first round at set-up), so no object state carries over from one
    run of a job to the next.
    """
    results = []
    runs: list[list[float]] = []
    raw_wall = 0.0
    for r in range(rounds):
        scaled = []
        for p in range(passes):
            probes: list[float] = []
            res, wall = run_pass(jobs0 if r == 0 and p == 0 else workload.jobs(p), probes=probes)
            results += res
            raw_wall += wall
            scaled += [
                at_reference_speed(dt, (before + after) / 2)
                for (_, dt, _), before, after in zip(res, probes, probes[1:])
            ]
        runs = [[t] for t in scaled] if r == 0 else [ts + [t] for ts, t in zip(runs, scaled)]
    return results, [statistics.median(ts) for ts in runs], raw_wall / rounds


def traced_pass(workload, pass_index: int = 0):
    """Run one pass with the package wrapped; returns (results, wall_s, tracer)."""
    from tracing import Tracer

    jobs = workload.jobs(pass_index)
    tracer = Tracer()
    with tracer:
        results, wall = run_pass(jobs, tracer)
    return results, wall, tracer


def trace_run(workload, jobs0):
    """Pass 0 untraced, then pass 0 traced. Returns (results, metrics, details)."""
    base, base_wall = run_pass(jobs0)
    traced, traced_wall, tracer = traced_pass(workload)
    metrics = tracer.metrics()
    battery = workload.name == "battery"
    for verb in VERBS:
        times = [dt for kind, dt, _ in base if kind == verb]
        metrics[f"cli.{verb}.p50_s"] = statistics.median(times) if battery else 0.0
    metrics["trace.overhead_s"] = traced_wall - base_wall
    details = {
        "untraced_wall_s": base_wall,
        "traced_wall_s": traced_wall,
        "by_scope": tracer.by_scope()[:25],
        "missing": tracer.missing,
    }
    return base + traced, metrics, details


def end_to_end(workload, jobs0, seconds: float, setup_times, setup_probes):
    """Returns (results, metrics, details) of an untraced run."""
    passes, rounds = plan(workload.name, seconds)
    results, times, raw_wall = measure(workload, jobs0, passes, rounds)
    p90 = percentile(times, 90)
    metrics = {
        "setup_s": statistics.median(map(at_reference_speed, setup_times, setup_probes)),
        "wall_s": sum(times),
        "verdict_p50_s": statistics.median(times),
        "verdict_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "passes": passes,
        "rounds": rounds,
        "jobs": len(times),
        "beyond_p90": sum(1 for t in times if t > p90),
        "raw_wall_s": raw_wall,
        "raw_setup_s": statistics.median(setup_times),
    }
    return results, metrics, details


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    # set-up times of the earlier interpreters of this process
    parser.add_argument("--setup-times", default="")
    parser.add_argument("--setup-probes", default="")
    args = parser.parse_args(argv)
    setup_times = [float(t) for t in args.setup_times.split(",") if t]
    setup_probes = [float(t) for t in args.setup_probes.split(",") if t]

    try:
        workload, jobs0 = setup(args.workload, args.seed, args.workdir)
        setup_times.append(time.perf_counter() - T_START)
        if not args.trace:
            host_probe()  # the first reading pays for first use
            setup_probes.append(statistics.fmean(host_probe() for _ in range(SETUP_PROBES)))
        if not args.trace and len(setup_times) < SETUP_REPEATS:
            # set up again in a fresh interpreter, in this same process
            shutil.rmtree(args.workdir, ignore_errors=True)
            sys.stdout.flush()
            sys.stderr.flush()
            os.execv(sys.executable, [
                sys.executable, os.path.abspath(__file__),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--workdir", args.workdir,
                "--setup-times", ",".join(repr(t) for t in setup_times),
                "--setup-probes", ",".join(repr(t) for t in setup_probes),
            ])
        if args.trace:
            results, metrics, details = trace_run(workload, jobs0)
        else:
            results, metrics, details = end_to_end(
                workload, jobs0, args.seconds, setup_times, setup_probes
            )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    out = {
        "provenance": provenance(args.seed),
        "setup_times": setup_times,
        "attempted": len(results),
        "failed": sum(1 for _, _, ok in results if not ok),
        "metrics": metrics,
        **details,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
