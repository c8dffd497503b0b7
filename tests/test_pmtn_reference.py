"""The preemptive construction that reads its nice remainder off the plan
against the one it replaced, which sorted and classified that remainder a
second time: equal schedules from `dual_pmtn` and `reference_build_pmtn` on
10,000+ (instance, accepted guess) pairs, with every branch of the build
reached."""

import random
from collections import Counter
from fractions import Fraction

from batchsched.core import Variant, lower_bound_tmin
from batchsched.preemptive import class_jump_pmtn, dual_pmtn
from conftest import random_instance
from oracle import reference_build_pmtn
from test_preemptive import knapsack_heavy_instance

GRID = 8  # guesses T_min * (1 + k / GRID), k = 0 .. GRID
ABOVE = (1, Fraction(10_001, 10_000), Fraction(1_001, 1_000), Fraction(101, 100), Fraction(21, 20))


def _branches(plan) -> Counter:
    part, sol = plan.part, plan.knapsack
    seen: Counter = Counter()
    if sol is not None:
        for i in part.chp_star:
            share = sol.x[i]
            seen["share 0" if share == 0 else "share 1" if share == 1 else "fractional share"] += 1
    elif part.exp_zero:
        seen["no knapsack, dedicated machines"] += 1
    else:
        seen["nice"] += 1
    for g in plan.gamma.values():
        seen["gamma 1" if g == 1 else "gamma >= 2"] += 1
    if len(part.exp_minus) % 2:
        seen["odd exp_minus machine"] += 1
    return seen


def _check(inst, guess, branches: Counter) -> bool:
    d = dual_pmtn(inst, guess)
    if not d.accepted or d.plan is None:
        return False
    assert d.schedule == reference_build_pmtn(inst, guess, d.plan), (inst, guess)
    branches.update(_branches(d.plan))
    return True


def test_build_equals_the_reference():
    rng = random.Random(1201)
    branches: Counter = Counter()
    grid = 0
    while grid < 5_000:
        inst = random_instance(rng)
        tmin = lower_bound_tmin(inst, Variant.PREEMPTIVE)
        for k in range(GRID + 1):
            grid += _check(inst, tmin * (GRID + k) / GRID, branches)
    heavy = 0
    while heavy < 5_000:
        # at the search's answer, where the knapsack capacity often runs out
        # exactly, and just above it
        inst = knapsack_heavy_instance(rng)
        answer = class_jump_pmtn(inst).guess
        for above in ABOVE:
            heavy += _check(inst, answer * above, branches)
    assert set(branches) == {
        "share 0", "share 1", "fractional share", "no knapsack, dedicated machines", "nice",
        "gamma 1", "gamma >= 2", "odd exp_minus machine",
    }
    assert min(branches.values()) >= 50, branches
