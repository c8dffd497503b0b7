"""The preemptive construction that reads its nice remainder off the plan
against the one it replaced, which sorted and classified that remainder a
second time: equal schedules, with the build's runs expanded to one pair
per job (`expand_runs`) and the reference's rows sorted by start
(`rows_by_start`: the reference wrote a large machine's bottom after its
top), from `dual_pmtn` and `reference_build_pmtn` on 10,000+ (instance,
accepted guess) pairs, with every branch of the build reached."""

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

from batchsched.core import Instance, JobClass, Variant, lower_bound_tmin, verify_schedule
from batchsched.preemptive import class_jump_pmtn, dual_pmtn
from conftest import random_instance
from oracle import expand_runs, reference_build_pmtn, rows_by_start, run_pairs
from test_preemptive import knapsack_heavy_instance

GRID = 8  # guesses T_min * (1 + k / GRID), k = 0 .. GRID
ABOVE = (1, Fraction(10_001, 10_000), Fraction(1_001, 1_000), Fraction(101, 100), Fraction(21, 20))


SHARE_1 = "share-1 star class under a knapsack"


def _branches(inst, guess, plan) -> Counter:
    part, sol = plan.part, plan.knapsack
    seen: Counter = Counter()
    if sol is not None:
        for i in part.chp_star:
            share = sol.x[i]
            seen["share 0" if share == 0 else SHARE_1 if share == 1 else "fractional share"] += 1
    else:
        seen["no knapsack, dedicated machines" if part.exp_zero else "nice"] += 1
        # the build's greedy cut of the other small-setup classes, replayed
        # in time units (the plan's free time is F * q on the guess's scale
        # q); a cut that ends on a job end has no label
        budget = Fraction(plan.free_time, guess.denominator) - plan.star_total
        for i in part.chp_minus:
            if i in part.chp_star:
                continue
            cl = inst.classes[i]
            if cl.setup + cl.total <= budget:
                seen["class whole within budget"] += 1
                budget -= cl.setup + cl.total
                continue
            room = budget - cl.setup
            if room <= 0:
                seen["all left over without a knapsack"] += 1
            elif room not in accumulate(cl.jobs):
                seen["cut inside a job"] += 1
            budget = 0
    for g in plan.gamma.values():
        seen["gamma 1" if g == 1 else "gamma >= 2"] += 1
    if len(part.exp_minus) % 2:
        seen["odd exp_minus machine"] += 1
    return seen


def _check(inst, guess, branches: Counter) -> bool:
    d = dual_pmtn(inst, guess)
    if not d.accepted or d.plan is None:
        return False
    assert expand_runs(d.schedule, inst) == \
        rows_by_start(reference_build_pmtn(inst, guess, d.plan)), (inst, guess)
    branches.update(_branches(inst, guess, d.plan))
    branches["run pairs"] += run_pairs(d.schedule, inst)
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
        "share 0", SHARE_1, "fractional share", "no knapsack, dedicated machines", "nice",
        "gamma 1", "gamma >= 2", "odd exp_minus machine", "class whole within budget",
        "cut inside a job", "all left over without a knapsack", "run pairs",
    }
    assert min(branches.values()) >= 50, branches


def test_cut_on_a_job_end_equals_the_reference():
    # the random stream never cuts on a job end: at guess 96 the budget is
    # 35, class 0 keeps its job 0 whole (3 + 32) and job 1 goes to a bottom
    inst = Instance(m=5, classes=tuple(JobClass(s, jobs) for s, jobs in (
        (3, (32, 37)), (7, (56, 32)), (50, (23, 3)), (4, (49, 56)), (11, (38,)), (55, (19,)))))
    guess = Fraction(96)
    d = dual_pmtn(inst, guess)
    assert d.accepted and d.plan.knapsack is None
    assert Fraction(d.plan.free_time, guess.denominator) - d.plan.star_total == 35
    assert _branches(inst, guess, d.plan)["cut inside a job"] == 0
    assert expand_runs(d.schedule, inst) == rows_by_start(reference_build_pmtn(inst, guess, d.plan))
    assert verify_schedule(inst, d.schedule, Variant.PREEMPTIVE, guess * 3 / 2).ok
