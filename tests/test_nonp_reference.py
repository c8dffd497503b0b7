"""The non-preemptive construction against the item-object build it
replaced: equal schedules, with the build's runs expanded to one pair per
job (`expand_runs`) and the reference's setups that serve no job dropped
(`drop_idle_setups`: the build decides each cut before it writes, so it
never writes one), from `dual_nonp` and `reference_build_nonp` on 20,000+
(instance, accepted guess) pairs of small instances, with every repair
branch reached, and on 400 pairs of instances with 50-500 jobs per class;
equal next-fit 2-approximations on the same instances.  Then the
decisions' per-class counts against per-job reference lists on 20,000
(instance, guess) pairs: the non-preemptive machines and leftovers, and the
preemptive star classes and knapsack items."""

import random
from collections import Counter
from fractions import Fraction
from itertools import islice

from batchsched.core import Instance, JobClass, Variant, lower_bound_tmin
from batchsched.nonpreemptive import _decide_nonp, counts_nonp, dual_nonp, next_fit_two_approx
from batchsched.preemptive import _pmtn_counts, _star_items
from conftest import random_instance
from oracle import (
    drop_idle_setups,
    expand_runs,
    reference_big_jobs,
    reference_build_nonp,
    reference_counts_nonp,
    reference_next_fit_two_approx,
    reference_star_items,
    run_pairs,
    star_items_in_time,
)
from test_acceptance import _scaling_instance
from test_preemptive import knapsack_heavy_instance

GRID = 16  # guesses T_min * (1 + k / GRID), k = 0 .. GRID


def _next_fit(inst: Instance, runs: Counter):
    """The next-fit 2-approximation with its runs expanded, counting them."""
    sched, makespan = next_fit_two_approx(inst, Variant.NONPREEMPTIVE)
    runs["next-fit"] += run_pairs(sched, inst)
    return expand_runs(sched, inst), makespan


def _built(inst: Instance, guess, runs: Counter):
    """The dual's schedule at an accepted guess with its runs expanded,
    counting them."""
    sched = dual_nonp(inst, guess).schedule
    runs["build"] += run_pairs(sched, inst)
    return expand_runs(sched, inst)


def _accepted(rng: random.Random, inst):
    """(guess, dual) for accepted grid guesses: the four lowest, where the
    final item is often parked on an already used machine, and up to three
    random ones above them."""
    tmin = lower_bound_tmin(inst, Variant.NONPREEMPTIVE)

    def at(k):
        guess = tmin * (GRID + k) / GRID
        return guess, dual_nonp(inst, guess)

    low = []
    for k in range(GRID + 1):  # k = GRID, 2 T_min, is always accepted
        if len(low) == 4:
            break
        guess, d = at(k)
        if d.accepted:
            low.append((guess, d))
    high = [at(j) for j in {rng.randint(k, GRID) for _ in range(3)}]
    return low + [(guess, d) for guess, d in high if d.accepted]


def test_build_and_next_fit_equal_the_reference():
    rng = random.Random(1101)
    branches: Counter = Counter()
    runs: Counter = Counter()  # pairs that span more than one job
    pairs = instances = 0
    while pairs < 20_000:
        inst = random_instance(rng, max_m=5, max_c=3, max_jobs=4)
        if inst.m >= inst.n:
            continue  # one job per machine: no construction runs
        instances += 1
        assert _next_fit(inst, runs) == \
            reference_next_fit_two_approx(inst, Variant.NONPREEMPTIVE), inst
        for guess, d in _accepted(rng, inst):
            pairs += 1
            runs["build"] += run_pairs(d.schedule, inst)
            assert expand_runs(d.schedule, inst) == \
                drop_idle_setups(reference_build_nonp(inst, guess, branches)), (inst, guess)
    assert instances >= 2_000
    assert min(runs.values()) >= 1_000, runs
    assert set(branches) == {
        "first-piece swap", "carried piece", "carried setup", "uncovered continuation",
        "parked on a new machine", "parked on an existing machine",
    }
    assert min(branches.values()) >= 50, branches


def _large_instance(rng: random.Random) -> Instance:
    """3-10 classes of 50-500 jobs, m >= 20 and 2-30 jobs per machine: small
    setups or large ones, short jobs or long ones, so every step of the
    construction places runs of many jobs."""
    classes = []
    for _ in range(rng.randint(3, 10)):
        k = rng.randint(50, 500) if rng.random() < 0.15 else rng.randint(50, 100)
        s = rng.randint(1, 20) if rng.random() < 0.5 else rng.randint(40, 150)
        hi = rng.choice([20, 100, 300])
        classes.append(JobClass(s, tuple(rng.randint(1, hi) for _ in range(k))))
    n = sum(len(cl.jobs) for cl in classes)
    return Instance(max(20, n // rng.choice([2, 3, 4, 8, 16, 30])), tuple(classes))


def test_build_and_next_fit_equal_the_reference_on_large_instances():
    # 180 instances of the generator above and 20 of criterion 9's at
    # n = 2.5k with 5-50 classes, each at its two lowest accepted grid
    # guesses: jobs cut in steps 1 and 2, and long greedy runs in step 3
    rng = random.Random(1103)
    branches: Counter = Counter()
    runs: Counter = Counter()  # pairs that span more than one job
    insts = [_large_instance(rng) for _ in range(180)]
    insts += [_scaling_instance(2_500, seed, c=5 * (1 + seed % 10)) for seed in range(20)]
    pairs = 0
    for inst in insts:
        assert _next_fit(inst, runs) == \
            reference_next_fit_two_approx(inst, Variant.NONPREEMPTIVE), inst
        tmin = lower_bound_tmin(inst, Variant.NONPREEMPTIVE)
        accepted = (g for g in (tmin * (GRID + k) / GRID for k in range(GRID + 1))
                    if _decide_nonp(inst, g).accepted)
        for guess in islice(accepted, 2):
            pairs += 1
            assert _built(inst, guess, runs) == \
                drop_idle_setups(reference_build_nonp(inst, guess, branches)), (inst, guess)
    assert pairs == 400
    assert min(runs.values()) >= 1_000, runs
    # an existing machine takes the last item only when m is nearly used up,
    # which the small instances above reach
    assert min(branches[b] for b in ("first-piece swap", "carried piece", "carried setup",
                                     "uncovered continuation", "parked on a new machine")) >= 20, \
        branches


def _decision_pairs(seed: int):
    """20,000 (instance, guess) pairs: random instances at T_min * k/4 for
    k = 4 .. 8, and knapsack-heavy ones at T_min * (1 + k/16) for k = 0 .. 8,
    where small-setup classes hold big and forced jobs (and star classes)."""
    rng = random.Random(seed)
    pairs = 0
    while pairs < 20_000:
        inst = random_instance(rng)
        tmin = lower_bound_tmin(inst, Variant.NONPREEMPTIVE)
        for k in range(4, 9):
            yield inst, tmin * Fraction(k, 4)
        inst = knapsack_heavy_instance(rng)
        tmin = lower_bound_tmin(inst, Variant.NONPREEMPTIVE)
        for k in range(9):
            yield inst, tmin * Fraction(16 + k, 16)
        pairs += 14


def test_counts_regroup_the_reference_lists():
    # the per-class counts equal the ones the reference reads off its per-job
    # lists, and its solo list is those lists plus every job of an expensive class
    big = forced = 0
    for inst, guess in _decision_pairs(1102):
        p, q = guess.as_integer_ratio()
        new, ref = counts_nonp(inst, p, q), reference_counts_nonp(inst, guess)
        # the leftovers are x_i * q on the guess's scale q
        leftover = [Fraction(x, q) for x in new.leftover]
        assert (new.machines, leftover) == (ref.machines, ref.leftover), (inst, guess)
        expensive = [(i, j) for i, cl in enumerate(inst.classes) if 2 * cl.setup > guess
                     for j in range(len(cl.jobs))]
        assert set(ref.solo) == {*ref.big_jobs, *ref.forced, *expensive}
        big += bool(ref.big_jobs)
        forced += bool(ref.forced)
    assert big >= 5_000 and forced >= 5_000, (big, forced)


def test_star_classes_and_items_equal_the_reference_positions():
    # the preemptive partition's star classes are the classes with an
    # oversized job, and the knapsack items read off each class's durations
    # equal the ones read off the reference's job positions
    star = 0
    for inst, guess in _decision_pairs(1102):
        p, q = guess.as_integer_ratio()
        plan = _pmtn_counts(inst, p, q)
        assert plan.part.chp_star == tuple(reference_big_jobs(inst, guess)), (inst, guess)
        free = Fraction(plan.free_time, q)  # F * q on the guess's scale q
        assert star_items_in_time(*_star_items(inst, plan.part, p, q, plan.free_time), q) == \
            reference_star_items(inst, guess, free), (inst, guess)
        star += bool(plan.part.chp_star)
    assert star >= 5_000, star
