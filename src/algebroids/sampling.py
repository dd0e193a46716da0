"""Deterministic sample generators for seeded random sections and forms.

No verdict of the package samples: every check decides its identity on
generators and probe sections. These generators remain for tests that want
random inputs and for the benchmark's trace hook on sample_poly (the CLI
imports this module, so loading the CLI loads it), and are due to be
deleted with the --seed/--samples/--max-degree options.
Coefficients lie in [-2, 2] and degrees stay at most 2 unless max_degree
says otherwise. A caller supplied random.Random pins the stream.
"""

from __future__ import annotations

import random

from algebroids.symcalc import Chart, KForm, Poly

COEFF_RANGE = (-2, 2)
MAX_SAMPLE_DEGREE = 2


def sample_poly(
    rng: random.Random,
    chart: Chart,
    max_degree: int = MAX_SAMPLE_DEGREE,
    terms: int = 3,
) -> Poly:
    acc: dict = {}
    for _ in range(terms):
        deg = rng.randint(0, max_degree)
        exps = [0] * chart.dim
        for _ in range(deg):
            if chart.dim == 0:
                break
            exps[rng.randrange(chart.dim)] += 1
        c = rng.randint(*COEFF_RANGE)
        if c:
            key = tuple(exps)
            acc[key] = acc.get(key, 0) + c
    return Poly(chart, acc)


def sample_section(
    rng: random.Random, chart: Chart, rank: int, **kw
) -> tuple[Poly, ...]:
    return tuple(sample_poly(rng, chart, **kw) for _ in range(rank))


def sample_kform(
    rng: random.Random, chart: Chart, degree: int, components: int = 2, **kw
) -> KForm:
    if degree > chart.dim:
        return KForm.zero(chart, degree)
    out = KForm.zero(chart, degree)
    for _ in range(components):
        idx = tuple(sorted(rng.sample(range(chart.dim), degree)))
        out = out + KForm(chart, degree, {idx: sample_poly(rng, chart, **kw)})
    return out
