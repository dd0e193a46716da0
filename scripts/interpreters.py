"""Golden report digests under other Python interpreters.

    python3 scripts/interpreters.py PYTHON [PYTHON ...]

Writes the spec of every golden job of tests/test_acceptance.py once (the
battery, pinned in GOLDEN_BATTERY, and the single jobs, in GOLDEN_SINGLE),
then runs them all through cli.main under each interpreter named, with src
on its path, as test_golden_report_digests runs them. Prints each
interpreter's version and job count, then every digest that differs from
the pinned one or whose verb does not exit 0; exits 1 if any does. Only
this process imports the tests, so the interpreters need no test packages.
"""

import hashlib, json, os, subprocess, sys, tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from algebroids import jsonio
from test_acceptance import GOLDEN_BATTERY, GOLDEN_SINGLE, _battery_jobs, _single_jobs

# Run by each interpreter: argv[1] is a JSON list of [name, verb, spec path].
RUN = """
import hashlib, json, platform, sys
from algebroids.cli import main
print(platform.python_version())
for name, verb, spec in json.loads(sys.argv[1]):
    rc = main([verb, "--spec", spec, "--out", spec + ".report", "--seed", "7", "--samples", "10"])
    print(name, rc, hashlib.sha256(open(spec + ".report", "rb").read()).hexdigest())
"""


def main(argv: list[str]) -> int:
    golden = {**GOLDEN_BATTERY, **GOLDEN_SINGLE}
    jobs = {verb: (verb, spec) for verb, spec in _battery_jobs().items()} | _single_jobs()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        manifest = []
        for name, (verb, spec) in jobs.items():
            path = os.path.join(tmp, f"{name}.json")
            Path(path).write_text(jsonio.dump_json(spec), encoding="utf-8")
            manifest.append([name, verb, path])
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        for python in argv:
            out = subprocess.run([python, "-c", RUN, json.dumps(manifest)], env=env, check=True,
                                 stdout=subprocess.PIPE, text=True).stdout.splitlines()
            got = {name: (rc, digest) for name, rc, digest in map(str.split, out[1:])}
            print(f"{python}: Python {out[0]}, {len(got)} jobs")
            for name, want in golden.items():
                if got.get(name) != ("0", want):
                    differ += 1
                    print(f"  {name}: {got.get(name)} differs from {want}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
