"""Checks of the benchmark itself: known answers, trace coverage, repeatability.

Run from the root of a checkout (about two minutes)::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import worker  # noqa: E402
from tracing import Tracer, _package_modules, layer_metrics_by_home  # noqa: E402
from workloads import VERBS, WORKLOADS, Workload  # noqa: E402

SEED = 5


def _failed_ratio(results) -> float:
    return sum(1 for _, _, ok in results if not ok) / len(results)


def _namespaces():
    import algebroids.courant
    import algebroids.symcalc

    classes = [getattr(algebroids.symcalc, n) for n in ("Poly", "VField", "KForm", "ChartMap")]
    return _package_modules() + classes + [algebroids.courant.CourantData]


def _snapshot():
    return {id(ns): dict(vars(ns)) for ns in _namespaces()}


def test_failed_ratio_rises_when_a_known_answer_is_contradicted(tmp_path):
    jobs = Workload("constructions", SEED, str(tmp_path)).jobs(0)
    broken = [j for j in jobs if j.kind == "cocycle" and j.expected.fail]
    assert broken, "every pass holds a refuting cocycle job"
    picked = [jobs[0], broken[0]]
    results, _ = worker.run_pass(picked)
    assert _failed_ratio(results) == 0.0

    # claim that the broken cover is a cocycle after all
    contradicted = replace(broken[0], expected=replace(broken[0].expected, fail=frozenset()))
    results, _ = worker.run_pass([jobs[0], contradicted])
    assert _failed_ratio(results) == 0.5


def test_battery_exit_code_is_part_of_the_verdict(tmp_path):
    jobs = [j for j in Workload("battery", SEED, str(tmp_path)).jobs(0) if j.kind == "check-lie"]
    results, _ = worker.run_pass(jobs[:1])
    assert _failed_ratio(results) == 0.0
    wrong_code = replace(jobs[0], expected=replace(jobs[0].expected, exit_code=1))
    results, _ = worker.run_pass([wrong_code])
    assert _failed_ratio(results) == 1.0


def test_tracer_finds_every_target_and_restores_it():
    worker.import_package()
    before = _snapshot()
    tracer = Tracer()
    with tracer:
        assert _snapshot() != before
    assert not tracer.missing
    assert _snapshot() == before, "uninstall must restore every patched name"


def _traced_run(name: str) -> dict:
    """One traced run through run.py, as the benchmark is run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload on one seed."""
    return {name: (_traced_run(name), _traced_run(name)) for name in WORKLOADS}


def _values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_traced_run_reports_every_layer_metric(traced):
    expected = set(layer_metrics_by_home()) | {f"cli.{v}.p50_s" for v in VERBS}
    expected.add("trace.overhead_s")
    for name in WORKLOADS:
        for result in traced[name]:
            assert set(result["metrics"]) == expected
            assert result["correct"] and result["failed"] == 0


def test_each_layer_metric_is_nonzero_on_its_home_workload(traced):
    homes = dict(layer_metrics_by_home())
    homes.update({f"cli.{v}.p50_s": "battery" for v in VERBS})
    # expected to reach 0 once coefficients are held as int, which is the
    # point of measuring it
    del homes["symcalc.poly_mul.fraction_coeff_share"]
    zero = [m for m, home in homes.items() if not _values(traced[home][0])[m] > 0]
    assert not zero


def test_constructions_never_sample(traced):
    for result in traced["constructions"]:
        assert _values(result)["sampling.sample_poly.calls"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(traced, name):
    first, second = (_values(r) for r in traced[name])
    counts = [m for m in first if m.endswith(".calls") or m.endswith(".term_products")]
    assert counts
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
