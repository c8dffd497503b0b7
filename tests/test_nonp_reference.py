"""The tuple-stack non-preemptive construction against the item-object build
it replaced: equal schedules from `dual_nonp` and `reference_build_nonp` on
20,000+ (instance, accepted guess) pairs, with every repair branch reached,
and equal next-fit 2-approximations on the same instances."""

import random
from collections import Counter
from fractions import Fraction

from batchsched.core import Variant, lower_bound_tmin
from batchsched.nonpreemptive import counts_nonp, dual_nonp, next_fit_two_approx
from conftest import random_instance
from oracle import reference_build_nonp, reference_counts_nonp, reference_next_fit_two_approx

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


def test_counts_regroup_the_reference_lists():
    # the per-class positions are the reference's job refs grouped by class,
    # and its solo list is them plus every job of an expensive class
    rng = random.Random(1102)
    for _ in range(300):
        inst = random_instance(rng)
        guess = lower_bound_tmin(inst, Variant.NONPREEMPTIVE) * Fraction(rng.randint(4, 8), 4)
        new, ref = counts_nonp(inst, guess), reference_counts_nonp(inst, guess)
        assert (new.machines, new.leftover) == (ref.machines, ref.leftover)
        assert [(i, j) for i, js in new.big_jobs.items() for j in js] == ref.big_jobs
        assert [(i, j) for i, js in new.forced.items() for j in js] == ref.forced
        expensive = [(i, j) for i, cl in enumerate(inst.classes) if 2 * cl.setup > guess
                     for j in range(len(cl.jobs))]
        assert set(ref.solo) == {*ref.big_jobs, *ref.forced, *expensive}
