"""Structured pass/fail reports shared by all checkers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class CheckResult:
    name: str
    passed: bool
    counterexample: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.counterexample}]" if self.counterexample else ""
        return f"{status}  {self.name}{extra}"


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, counterexample: str | None = None):
        self.checks.append(
            CheckResult(name, passed, counterexample if not passed else None)
        )

    def check(self, name: str, failures: Iterable[str]):
        """Record one named verdict from a lazy stream of counterexamples.

        The first counterexample is the verdict's failure; an exhausted
        stream is a pass. Nothing after the first counterexample is
        evaluated, so a check that yields its generator cases before its
        probe cases evaluates the probes only when every generator case
        holds.
        """
        bad = next(iter(failures), None)
        self.add(name, bad is None, bad)

    def merge(self, other: "Report", prefix: str | None = None):
        for c in other.checks:
            name = f"{prefix}.{c.name}" if prefix else c.name
            self.checks.append(CheckResult(name, c.passed, c.counterexample))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> list[dict]:
        out = []
        for c in sorted(self.checks, key=lambda c: c.name):
            entry: dict = {
                "name": c.name,
                "status": "pass" if c.passed else "fail",
            }
            if c.counterexample is not None:
                entry["counterexample"] = c.counterexample
            out.append(entry)
        return out

    def __str__(self) -> str:
        return "\n".join(c.line() for c in self.checks)
