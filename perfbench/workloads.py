"""Seeded workload generators.

Every generator takes the seed and a size divisor (1 for the measured run,
4 for the quarter-size pass of the traced run) and returns a list of cases.
A case is one instance, as the JSON text the CLI would read, plus the solves
to run on it; each solve is followed by a verify of its output.  The run loop
stops only between cases, so every run keeps each case's mix of ops.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

VARIANTS = ("split", "pmtn", "nonp")


@dataclass(frozen=True)
class Solve:
    variant: str  # "split" | "pmtn" | "nonp", as `batchsched solve --variant`
    algo: str  # "jump" | "eps" | "two-approx", as `batchsched solve --algo`
    eps: Optional[Fraction] = None


@dataclass(frozen=True)
class Case:
    label: str
    text: str  # instance JSON, parsed by the op through parse_instance
    n: int
    solves: tuple[Solve, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int], list[Case]]  # (seed, size divisor) -> cases
    op_limit_s: float  # an op running longer counts as failed


def _case(label: str, raw: dict, solves: tuple[Solve, ...]) -> Case:
    n = sum(len(cl["jobs"]) for cl in raw["classes"])
    return Case(label, json.dumps(raw), n, solves)


def criterion9_instance(rng: random.Random, n: int) -> dict:
    """The near-linear-scaling generator of the acceptance suite: c = isqrt(n)
    classes of random sizes, setups and jobs in 1..100, m = n/10."""
    c = math.isqrt(n)
    sizes = [1] * c
    for _ in range(n - c):
        sizes[rng.randrange(c)] += 1
    classes = [
        {"setup": rng.randint(1, 100), "jobs": [rng.randint(1, 100) for _ in range(k)]}
        for k in sizes
    ]
    return {"m": max(1, n // 10), "classes": classes}


def large_jump(seed: int, div: int) -> list[Case]:
    raw = criterion9_instance(random.Random(seed), 40_000 // div)
    return [_case("n=%d" % (40_000 // div), raw, tuple(Solve(v, "jump") for v in VARIANTS))]


def eps_bisect(seed: int, div: int) -> list[Case]:
    raw = criterion9_instance(random.Random(seed), 10_000 // div)
    solves = tuple(Solve(v, "eps", Fraction(1, 1000)) for v in VARIANTS)
    return [_case("n=%d" % (10_000 // div), raw, solves)]


SMALL_SOLVES = tuple(
    Solve(v, algo, Fraction(1, 16) if algo == "eps" else None)
    for v in VARIANTS
    for algo in ("two-approx", "jump", "eps")
)


def small_corpus(seed: int, div: int) -> list[Case]:
    """2,000 small instances.  Odd ones are setup-dominated (setups 20..100
    over jobs 1..60, m between c/2 and c+2), which makes the preemptive jump
    search leave T_min far more often than uniform draws do."""
    rng = random.Random(seed)
    per = max(1, 8 // div)
    cases = []
    for k in range(2000):
        c = rng.randint(1, 12)
        if k % 2:
            m = rng.randint(max(1, c // 2), c + 2)
            setups, jobs = (20, 100), (1, 60)
        else:
            m = rng.randint(1, 16)
            setups, jobs = (1, 100), (1, 100)
        classes = [
            {
                "setup": rng.randint(*setups),
                "jobs": [rng.randint(*jobs) for _ in range(rng.randint(1, per))],
            }
            for _ in range(c)
        ]
        cases.append(_case("#%d" % k, {"m": m, "classes": classes}, SMALL_SOLVES))
    return cases


WORKLOADS = {
    w.name: w
    for w in (
        Workload("large-jump", large_jump, op_limit_s=60.0),
        Workload("eps-bisect", eps_bisect, op_limit_s=60.0),
        Workload("small-corpus", small_corpus, op_limit_s=5.0),
    )
}

# A tiny instance solved by every op of a workload during set-up, so that
# lazy imports and first-call costs land in setup_s, not in the first op.
WARMUP = json.dumps(
    {"m": 3, "classes": [{"setup": 4, "jobs": [3, 5, 2]}, {"setup": 9, "jobs": [7, 1]}]}
)
