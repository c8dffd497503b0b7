"""The tuple-stack non-preemptive construction against the item-object build
it replaced: equal schedules from `dual_nonp` and `reference_build_nonp` on
20,000+ (instance, accepted guess) pairs, with every repair branch reached,
and equal next-fit 2-approximations on the same instances.  Then the
decisions' per-class counts against per-job reference lists on 20,000
(instance, guess) pairs: the non-preemptive machines and leftovers, and the
preemptive star classes and knapsack items."""

import random
from collections import Counter
from fractions import Fraction

from batchsched.core import Variant, lower_bound_tmin
from batchsched.nonpreemptive import counts_nonp, dual_nonp, next_fit_two_approx
from batchsched.preemptive import _pmtn_counts, _star_items
from conftest import random_instance
from oracle import (
    reference_big_jobs,
    reference_build_nonp,
    reference_counts_nonp,
    reference_next_fit_two_approx,
    reference_star_items,
)
from test_preemptive import knapsack_heavy_instance

GRID = 16  # guesses T_min * (1 + k / GRID), k = 0 .. GRID


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
    pairs = instances = 0
    while pairs < 20_000:
        inst = random_instance(rng, max_m=5, max_c=3, max_jobs=4)
        if inst.m >= inst.n:
            continue  # one job per machine: no construction runs
        instances += 1
        assert next_fit_two_approx(inst, Variant.NONPREEMPTIVE) == \
            reference_next_fit_two_approx(inst, Variant.NONPREEMPTIVE), inst
        for guess, d in _accepted(rng, inst):
            pairs += 1
            assert d.schedule == reference_build_nonp(inst, guess, branches), (inst, guess)
    assert instances >= 2_000
    assert set(branches) == {
        "first-piece swap", "carried piece", "carried setup", "uncovered continuation",
        "parked on a new machine", "parked on an existing machine",
    }
    assert min(branches.values()) >= 50, branches


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
        new, ref = counts_nonp(inst, guess), reference_counts_nonp(inst, guess)
        assert (new.machines, new.leftover) == (ref.machines, ref.leftover), (inst, guess)
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
        plan = _pmtn_counts(inst, guess)
        assert plan.part.chp_star == tuple(reference_big_jobs(inst, guess)), (inst, guess)
        assert _star_items(inst, plan.part, guess / 2, plan.free_time) == \
            reference_star_items(inst, guess, plan.free_time), (inst, guess)
        star += bool(plan.part.chp_star)
    assert star >= 5_000, star
