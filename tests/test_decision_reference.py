"""The integer decisions against the Fraction decisions they replaced, frozen
in `tests/oracle.py`: on at least 20,000 seeded (instance, guess) pairs per
variant, equal verdicts, reasons, required loads and machines, and equal plan
data read through the plan's documented scales: the splittable betas, the
non-preemptive machines and leftovers (x_i * q), the preemptive partition,
heavy-class machine counts, free time (F * q), spills (L*_i * 2q), knapsack
shares and split item.  The pairs include knapsack-heavy instances and
guesses exactly at the thresholds 2s, 2(s+t), s+P and 4(s+P)/3."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

from batchsched.core import Variant, lower_bound_tmin
from batchsched.nonpreemptive import _decide_nonp
from batchsched.preemptive import _decide_pmtn, class_jump_pmtn
from batchsched.splittable import _decide_split
from conftest import random_instance
from oracle import (
    reference_decide_nonp,
    reference_decide_pmtn,
    reference_decide_split,
    reference_star_items,
)
from test_preemptive import knapsack_heavy_instance

PAIRS = 20_000


def _thresholds(rng: random.Random, inst, count: int):
    """count guesses exactly at a random class's 2s, 2(s+t), s+P or 4(s+P)/3."""
    for _ in range(count):
        cl = rng.choice(inst.classes)
        s, reach = cl.setup, cl.setup + cl.total
        yield rng.choice((F(2 * s), F(2 * (s + rng.choice(cl.jobs))), F(reach), F(4 * reach, 3)))


def _pairs(seed: int):
    """(instance, guess) pairs: random instances from 3/4 T_min to 2 T_min
    and at six thresholds; every third round a knapsack-heavy instance at
    its preemptive answer and the bottom of that search's final bracket, at
    T_min * (1 + k/16), k = 0 .. 8, and at four thresholds."""
    rng = random.Random(seed)
    pairs = 0
    for r in range(10**9):
        if pairs >= PAIRS:
            return
        inst = random_instance(rng)
        tmin = lower_bound_tmin(inst, Variant.NONPREEMPTIVE)
        guesses = [tmin * F(k, 4) for k in range(3, 9)] + list(_thresholds(rng, inst, 6))
        if r % 3 == 0:
            heavy = knapsack_heavy_instance(rng)
            tmin = lower_bound_tmin(heavy, Variant.NONPREEMPTIVE)
            # the preemptive answer, where the knapsack capacity often runs
            # out exactly, and the bottom of its final bracket
            found = class_jump_pmtn(heavy)
            extra = [found.guess] + ([found.trace.final_interval[0]] if found.trace else [])
            extra += [tmin * F(16 + k, 16) for k in range(9)] + list(_thresholds(rng, heavy, 4))
            for guess in extra:
                yield heavy, guess
            pairs += len(extra)
        for guess in guesses:
            yield inst, guess
        pairs += len(guesses)


def _verdict(d):
    return d.accepted, d.reason, d.load, d.machines


def test_split_decisions_equal_the_fraction_reference():
    seen = Counter()
    for inst, guess in _pairs(2301):
        new, ref = _decide_split(inst, guess), reference_decide_split(inst, guess)
        assert _verdict(new) == _verdict(ref) and new.plan == ref.plan, (inst, guess)
        seen[new.reason or "accepted"] += 1
        seen["expensive"] += bool(new.plan)
    assert sum(seen.values()) - seen["expensive"] >= PAIRS
    assert min(seen[k] for k in ("accepted", "load", "machines", "setup-bound", "expensive")) >= 500, seen


def test_nonp_decisions_equal_the_fraction_reference():
    seen = Counter()
    for inst, guess in _pairs(2302):
        new, ref = _decide_nonp(inst, guess), reference_decide_nonp(inst, guess)
        assert _verdict(new) == _verdict(ref), (inst, guess)
        assert (new.plan is None) == (ref.plan is None), (inst, guess)
        if new.plan is not None:
            q = guess.denominator  # the leftovers are x_i * q
            assert new.plan.machines == ref.plan.machines, (inst, guess)
            assert [F(x, q) for x in new.plan.leftover] == ref.plan.leftover, (inst, guess)
            seen["positive leftover"] += any(x > 0 for x in new.plan.leftover)
        seen[new.reason or "accepted"] += 1
    assert sum(seen.values()) - seen["positive leftover"] >= PAIRS
    assert min(seen[k] for k in ("accepted", "load", "machines", "job-bound",
                                 "positive leftover")) >= 500, seen


def _density_tie(inst, guess, free) -> bool:
    items, _, _ = reference_star_items(inst, guess, free)
    return any(a.profit * b.weight == b.profit * a.weight
               for a, b in combinations([it for it in items if it.weight > 0], 2))


def test_pmtn_decisions_equal_the_fraction_reference():
    seen = Counter()
    for inst, guess in _pairs(2303):
        new, ref = _decide_pmtn(inst, guess), reference_decide_pmtn(inst, guess)
        assert _verdict(new) == _verdict(ref), (inst, guess)
        assert (new.plan is None) == (ref.plan is None), (inst, guess)
        seen[new.reason or "accepted"] += 1
        if new.plan is None:
            continue
        plan, want = new.plan, ref.plan
        q = guess.denominator  # free time F * q, spills L*_i * 2q
        assert (plan.part, plan.gamma, plan.star_total, plan.machines, plan.reject) == \
            (want.part, want.gamma, want.star_total, want.machines, want.reject), (inst, guess)
        assert F(plan.free_time, q) == want.free_time and plan.load == want.load, (inst, guess)
        assert (plan.knapsack is None) == (want.shares is None), (inst, guess)
        seen["geometric reject"] += plan.reject is not None
        if plan.knapsack is None:
            continue
        sol = plan.knapsack
        assert (sol.x, sol.split_item) == (want.shares, want.split_item), (inst, guess)
        assert {i: F(x, 2 * q) for i, x in plan.obligatory.items()} == want.obligatory, (inst, guess)
        seen["knapsack"] += 1
        if sol.split_item is not None:
            share = sol.x[sol.split_item]
            seen["share-0 split item" if share == 0 else "fractional split share"] += 1
        seen["density tie"] += _density_tie(inst, guess, want.free_time)
    assert sum(seen[k] for k in ("accepted", "load", "machines", "job-bound")) >= PAIRS
    assert min(seen[k] for k in ("accepted", "load", "job-bound", "knapsack",
                                 "fractional split share")) >= 500, seen
    # a preemptive machine count rarely exceeds m before the job bound rejects
    assert seen["machines"] >= 5 and seen["geometric reject"] >= 50, seen
    assert seen["density tie"] >= 200 and seen["share-0 split item"] >= 20, seen
