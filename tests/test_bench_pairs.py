"""scripts/bench_pairs.py: the summary of paired benchmark runs."""

import importlib.util
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pairs(parent, change):
    """Synthetic pairs with every metric at the given values, side by side."""
    def run(value):
        metrics = {m: {"value": value} for m in bench_pairs.METRICS}
        return {"correct": True, "failed": 0, "metrics": metrics}

    return [
        {"pair": i, "parent": run(p), "change": run(c)}
        for i, (p, c) in enumerate(zip(parent, change), 1)
    ]


def test_gain_shown_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    # 10/10 wins, medians 1.00 against 0.90: the gap 0.10 exceeds the IQR.
    shown = bench_pairs.summarise(pairs(parent, [p - 0.1 for p in parent]))
    # 9/10 wins by 0.01 each: the gap is inside the parent's IQR (0.035).
    close = bench_pairs.summarise(pairs(parent, [p - 0.01 for p in parent[:9]] + [1.5]))
    # The gap is large, but only 8/10 pairs are won.
    few = bench_pairs.summarise(pairs(parent, [p - 0.1 for p in parent[:8]] + [1.5, 1.5]))
    assert shown["wall_s"]["change_wins"] == "10/10" and shown["wall_s"]["gain_shown"]
    assert close["wall_s"]["change_wins"] == "9/10" and not close["wall_s"]["gain_shown"]
    assert few["wall_s"]["change_wins"] == "8/10" and not few["wall_s"]["gain_shown"]
    assert shown["all_correct"]


def test_worse_shown_needs_nine_losses_in_ten_and_a_gap_beyond_the_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    # 10/10 losses, medians 1.00 against 1.10: the gap 0.10 exceeds the IQR.
    worse = bench_pairs.summarise(pairs(parent, [p + 0.1 for p in parent]))
    # 9/10 losses by 0.01 each: the gap is inside the parent's IQR (0.035).
    close = bench_pairs.summarise(pairs(parent, [p + 0.01 for p in parent[:9]] + [0.5]))
    # The gap is large, but only 8/10 pairs are lost.
    few = bench_pairs.summarise(pairs(parent, [p + 0.1 for p in parent[:8]] + [0.5, 0.5]))
    # A flat change shows neither.
    flat = bench_pairs.summarise(pairs(parent, parent))
    assert worse["peak_rss_mb"]["worse_shown"] and not worse["peak_rss_mb"]["gain_shown"]
    assert not close["setup_s"]["worse_shown"]
    assert not few["setup_s"]["worse_shown"]
    assert not any(flat[m]["worse_shown"] or flat[m]["gain_shown"] for m in bench_pairs.METRICS)


def test_the_default_pairs_parse_to_five_workload_seed_keys():
    """Both seeded workloads get the held-out seed 29 by default."""
    parsed = bench_pairs.parse_pairs(bench_pairs.PAIRS)
    assert list(parsed) == [
        "constructions@11",
        "battery@11",
        "axioms@11",
        "constructions@29",
        "axioms@29",
    ]
    assert parsed["axioms@29"] == ("axioms", 29, 5)
    assert parsed["battery@11"] == ("battery", 11, 10)


def test_within_bound_reads_each_metric_bound_from_the_benchmark():
    """A wall_s 10 % worse is within its bound of 0.25; a peak_rss_mb 6 %
    worse is outside its bound of 0.05."""
    assert bench_pairs.BOUNDS["wall_s"] == 0.25
    assert bench_pairs.BOUNDS["peak_rss_mb"] == 0.05
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    assert bench_pairs.summarise(pairs(parent, [1.10 * p for p in parent]))["wall_s"]["within_bound"]
    rss = bench_pairs.summarise(pairs(parent, [1.06 * p for p in parent]))
    assert not rss["peak_rss_mb"]["within_bound"]
    assert all(bench_pairs.summarise(pairs(parent, parent))[m]["within_bound"]
               for m in bench_pairs.METRICS)


def git(*args):
    """git as main calls it: an empty tree for archive, else the ref."""
    if args[0] != "archive":
        return f"{args[-1]}\n".encode()
    empty_tar = io.BytesIO()
    tarfile.open(fileobj=empty_tar, mode="w").close()
    return empty_tar.getvalue()


def test_main_makes_a_missing_workdir(tmp_path, monkeypatch):
    """--workdir may name a directory that does not exist yet: main makes
    it, with its parents, before it exports the two trees into it."""

    def run(tree, workload, seed, trace):
        assert Path(tree).parent.parent == workdir
        metrics = {m: {"value": 1.0} for m in bench_pairs.METRICS}
        return {"correct": True, "failed": 0, "metrics": metrics}

    workdir, out = tmp_path / "a" / "b", tmp_path / "bench.json"
    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "run", run)
    bench_pairs.main(["P", "C", "--out", str(out), "--pairs", "battery=2", "--workdir", str(workdir)])
    doc = json.loads(out.read_text())
    assert (doc["parent"], doc["change"]) == ("P", "C")
    assert doc["summary"]["battery@11"]["all_correct"]
    assert workdir.is_dir() and not any(workdir.iterdir())


def test_main_traces_five_alternating_runs_a_side_and_stores_their_medians(tmp_path, monkeypatch):
    """After the timed pairs, each side traces TRACED = 5 runs in the pairs'
    alternating order; every traced run is stored, and beside them each
    side's median of every traced metric."""
    calls = []

    def run(tree, workload, seed, trace):
        calls.append((Path(tree).name, trace))
        if trace:
            metrics = {"layer.self_s": {"value": float(len(calls))}}
        else:
            metrics = {m: {"value": 1.0} for m in bench_pairs.METRICS}
        return {"correct": True, "failed": 0, "metrics": metrics}

    out = tmp_path / "bench.json"
    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "run", run)
    bench_pairs.main(["P", "C", "--out", str(out), "--pairs", "axioms@29=2", "--workdir", str(tmp_path)])
    order = ["parent", "change", "change", "parent"]
    assert bench_pairs.TRACED == 5
    assert calls == [(s, 0) for s in order] + [(s, 1) for s in (order * 3)[:10]]
    traced = json.loads(out.read_text())["traced"]["axioms@29"]
    assert [p["pair"] for p in traced["runs"]] == [1, 2, 3, 4, 5]
    first = traced["runs"][0]
    assert [first[s]["metrics"]["layer.self_s"]["value"] for s in ("parent", "change")] == [5.0, 6.0]
    # calls 5-14: the parent traced 5, 8, 9, 12, 13 and the change 6, 7, 10, 11, 14
    assert traced["median"] == {"parent": {"layer.self_s": 9.0}, "change": {"layer.self_s": 10.0}}


def mismatches(stored, derived, where: str) -> list[str]:
    """The dotted paths under where of the values stored that differ from
    the derived ones; a derived key that is not stored is not compared."""
    if isinstance(stored, dict):
        return [bad for k, v in stored.items() for bad in mismatches(v, derived[k], f"{where}.{k}")]
    return [] if stored == derived else [where]


def test_every_stored_summary_re_derives_from_its_pairs():
    """Each value a BENCH file's summary stores is summarise of the pairs
    stored beside it, so a quoted median or win count can be traced to the
    runs. Older files store fewer keys than summarise gives today."""
    found = {}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for key, stored in doc["summary"].items():
            derived = bench_pairs.summarise(doc["workloads"][key])
            found[f"{path.name}:{key}"] = mismatches(stored, derived, "summary")
    assert found
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_the_bench_table_prints_wall_medians_and_wins_per_workload():
    table = ROOT / "scripts" / "bench_table.py"
    out = subprocess.run(
        [sys.executable, str(table), str(ROOT / "BENCH_40.json")],
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    assert out[0].split() == ["file", "workload", "parent_s", "change_s", "wins"]
    assert out[1].split() == ["BENCH_40.json", "constructions@11", "0.2735", "0.2570", "10/10"]
    assert len(out) == 6
