import itertools
import random
from fractions import Fraction as F

import pytest

from batchsched.core import (
    Accepted,
    Instance,
    JobClass,
    Rejected,
    Variant,
    verify_schedule,
)
from batchsched.oracle import exact_nonp, min_accepted_scan
from batchsched.preemptive import (
    KnapsackItem,
    _decide_nice_parts,
    _decide_pmtn,
    _full_specs,
    _gamma_count,
    _nice_parts,
    _pmtn_plan,
    class_jump_pmtn,
    continuous_knapsack,
    dual_pmtn,
)
from batchsched.search import certified_report

from conftest import random_instance, tiny_instances


# -- continuous knapsack ----------------------------------------------------


def test_knapsack_example():
    items = [KnapsackItem(0, F(3), F(4)), KnapsackItem(1, F(2), F(2)), KnapsackItem(2, F(1), F(3))]
    sol = continuous_knapsack(items, F(5))
    assert sol.x == {1: F(1), 0: F(3, 4), 2: F(0)}
    assert sol.split_item == 0
    assert sol.value == F(17, 4)


def test_knapsack_unconstrained():
    items = [KnapsackItem(0, F(3), F(4)), KnapsackItem(1, F(2), F(2))]
    sol = continuous_knapsack(items, F(100))
    assert all(v == 1 for v in sol.x.values()) and sol.split_item is None


def test_knapsack_zero_capacity():
    items = [KnapsackItem(0, F(3), F(4))]
    sol = continuous_knapsack(items, F(0))
    assert sol.x == {0: F(0)} and sol.value == 0


def brute_force_lp(items, capacity):
    """Exact continuous optimum: some extreme solution has at most one
    fractional item, so try every integral subset plus one fractional top-up."""
    n = len(items)
    best = F(0)
    for mask in range(1 << n):
        w = sum((items[k].weight for k in range(n) if mask >> k & 1), F(0))
        if w > capacity:
            continue
        v = sum((items[k].profit for k in range(n) if mask >> k & 1), F(0))
        best = max(best, v)
        room = capacity - w
        for k in range(n):
            if not mask >> k & 1 and items[k].weight > 0:
                share = min(F(1), room / items[k].weight)
                best = max(best, v + share * items[k].profit)
    return best


def test_knapsack_matches_bruteforce():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(1, 8)
        items = [
            KnapsackItem(k, F(rng.randint(1, 9)), F(rng.randint(0, 9)))
            for k in range(n)
        ]
        cap = F(rng.randint(0, 25))
        sol = continuous_knapsack(items, cap)
        assert sol.value == brute_force_lp(items, cap)
        used = sum((items[k].weight * sol.x[k] for k in range(n)), F(0))
        assert used == min(cap, sum((it.weight for it in items), F(0)))
        fractional = [k for k, v in sol.x.items() if 0 < v < 1]
        assert len(fractional) <= 1


# -- nice instances -----------------------------------------------------------


NICE = Instance(m=4, classes=(JobClass(6, (8,)), JobClass(6, (1,)), JobClass(1, (2, 2))))


def test_nice_decision_formula_values():
    # class 0 packs into max(1, ceil(2*14/10) - 2) = 1 half-gap machine
    parts = _nice_parts(_full_specs(NICE, range(3)), F(10))
    d = _decide_nice_parts(parts, 4, F(10))
    assert d.load == 26 and d.machines == 2 and d.accepted
    d2 = _decide_nice_parts(parts, 2, F(10))
    assert not d2.accepted and d2.reason == "load"
    d1 = _decide_nice_parts(parts, 1, F(10))
    assert not d1.accepted and d1.reason == "machines"


def test_nice_rejects_below_job_bound():
    # guess 10 passes the load check but the longest job cannot finish by
    # then: setup 6 + job 8 = 14 is a certified bound, so reject
    out = dual_pmtn(NICE, F(10))
    assert isinstance(out, Rejected) and out.reason == "job-bound"


def test_nice_accepts_and_builds_at_valid_guess():
    inst = Instance(m=3, classes=(JobClass(6, (5, 5)), JobClass(1, (2, 2))))
    out = dual_pmtn(inst, F(11))
    assert isinstance(out, Accepted)
    assert verify_schedule(inst, out.schedule, Variant.PREEMPTIVE, F(33, 2)).ok


def test_all_cheap_degenerate_wrap():
    # m = 2 < n = 3 keeps the nice wrap on, not the one-job-per-machine path
    inst = Instance(m=2, classes=(JobClass(1, (2, 2)), JobClass(2, (1,))))
    assert _pmtn_plan(inst, F(4)).nice
    out = dual_pmtn(inst, F(4))
    assert isinstance(out, Accepted)
    assert verify_schedule(inst, out.schedule, Variant.PREEMPTIVE, F(6)).ok


# -- general dual -------------------------------------------------------------


def test_pmtn_accepts_case_without_knapsack():
    inst = Instance(m=2, classes=(JobClass(5, (2,)), JobClass(1, (4,))))
    out = dual_pmtn(inst, F(8))
    assert isinstance(out, Accepted)
    rep = verify_schedule(inst, out.schedule, Variant.PREEMPTIVE, F(12))
    assert rep.ok and rep.makespan <= 12


def test_pmtn_reject_example():
    inst = Instance(m=2, classes=(JobClass(5, (2,)), JobClass(1, (4, 4, 4))))
    out = dual_pmtn(inst, F(8))
    assert isinstance(out, Rejected) and out.reason == "load"


def test_pmtn_defers_to_nice_when_nice():
    inst = Instance(m=3, classes=(JobClass(6, (5, 5)), JobClass(1, (2, 2))))
    assert _pmtn_plan(inst, F(11)).nice
    out = dual_pmtn(inst, F(11))
    assert isinstance(out, Accepted)
    assert verify_schedule(inst, out.schedule, Variant.PREEMPTIVE, F(33, 2)).ok


def test_pmtn_knapsack_case_with_rejected_class():
    # five dedicated machines; the knapsack selects the dense oversized-job
    # class, rejects the other (share 0), whose job head then parks at a
    # dedicated-machine bottom while the plain small class wraps below a
    # quarter of the guess
    inst = Instance(
        m=6,
        classes=(
            JobClass(21, (10,)),
            JobClass(21, (10,)),
            JobClass(21, (10,)),
            JobClass(21, (10,)),
            JobClass(21, (10,)),
            JobClass(9, (12,)),  # selected outright
            JobClass(1, (25,)),  # share 0: head goes to a bottom
            JobClass(11, (1,)),  # setup above a quarter of the guess
            JobClass(2, (5, 5, 5)),  # wrapped into the bottoms
        ),
    )
    plan = _pmtn_plan(inst, F(40))
    assert plan.knapsack is not None and plan.knapsack.x == {5: F(1), 6: F(0)}
    out = dual_pmtn(inst, F(40))
    assert isinstance(out, Accepted)
    assert verify_schedule(inst, out.schedule, Variant.PREEMPTIVE, F(60)).ok


def test_pmtn_greedy_case_with_straddler():
    # enough free time for every oversized-job class, but the last small
    # class is cut between the regular machines and the bottoms
    inst = Instance(
        m=4,
        classes=(
            JobClass(21, (10,)),
            JobClass(21, (10,)),
            JobClass(9, (12,)),
            JobClass(2, (5, 5)),
            JobClass(3, (4, 4)),  # straddles
            JobClass(10, (28,)),
        ),
    )
    plan = _pmtn_plan(inst, F(40))
    assert not plan.nice and plan.knapsack is None
    out = dual_pmtn(inst, F(40))
    assert isinstance(out, Accepted)
    assert verify_schedule(inst, out.schedule, Variant.PREEMPTIVE, F(60)).ok


def test_pmtn_knapsack_split_item_case():
    # random-found shape where the knapsack splits one class fractionally
    inst = Instance(
        m=8,
        classes=(
            JobClass(39, (25,)),
            JobClass(29, (19, 23, 19, 23)),
            JobClass(26, (21, 1, 32, 25)),
            JobClass(29, (12, 35, 20)),
            JobClass(10, (37, 25, 38, 15)),
            JobClass(6, (21, 39, 16)),
        ),
    )
    guess = F(585, 8)
    plan = _pmtn_plan(inst, guess)
    assert plan.knapsack is not None and plan.knapsack.split_item == 5
    out = dual_pmtn(inst, guess)
    assert isinstance(out, Accepted)
    assert verify_schedule(inst, out.schedule, Variant.PREEMPTIVE, F(3, 2) * guess).ok


def test_pmtn_trivial_when_machines_cover_jobs():
    inst = Instance(m=2, classes=(JobClass(5, (2,)), JobClass(1, (4,))))
    out = dual_pmtn(inst, F(8))
    assert isinstance(out, Accepted)
    assert out.schedule.makespan() == 7  # one job per machine is optimal


def test_pmtn_accepts_above_exact_nonpreemptive_optimum():
    # a non-preemptive schedule is preemptive-feasible, so the dual must
    # accept any guess at or above the exhaustive non-preemptive optimum
    for inst in tiny_instances(400, seed=77):
        opt = exact_nonp(inst)
        for guess in (F(opt), F(opt) + 1, F(2 * opt)):
            out = dual_pmtn(inst, guess)
            assert isinstance(out, Accepted), (inst, guess)
            rep = verify_schedule(inst, out.schedule, Variant.PREEMPTIVE, F(3, 2) * guess)
            assert rep.ok, (inst, guess, [str(v) for v in rep.violations][:4])


# -- class jumping ------------------------------------------------------------


def test_gamma_jump_arithmetic():
    # with 2 half-gap machines a class with setup 6 and work 10 reshapes at
    # 2*16/4 = 8; the next reshape is at 2*16/5 = 6.4
    assert F(2 * 16, 4) == 8 and F(2 * 16, 5) == F(32, 5)
    assert _gamma_count(6, 10, F(8)) == 2
    assert _gamma_count(6, 10, F(8) + F(1, 100)) == 2
    assert _gamma_count(6, 10, F(8) - F(1, 100)) == 3


def test_class_jump_single_class_scan_agreement():
    inst = Instance(m=2, classes=(JobClass(6, (5, 5)),))
    r = class_jump_pmtn(inst)
    scan = min_accepted_scan(inst, Variant.PREEMPTIVE)
    assert r.guess <= scan and r.makespan <= F(3, 2) * scan
    assert isinstance(dual_pmtn(inst, r.guess), Accepted)
    assert verify_schedule(inst, r.schedule, Variant.PREEMPTIVE, F(3, 2) * r.guess).ok


def test_class_jump_accept_first_short_circuit():
    inst = Instance(m=2, classes=(JobClass(1, (2, 2)), JobClass(1, (3,))))
    r = class_jump_pmtn(inst)
    # T_min accepted immediately: exactly one probe, optimal certificate
    assert len(r.probes) == 1 and r.probes[0][1]
    assert r.guess == r.lower_bound


def test_class_jump_random_scan_agreement():
    rng = random.Random(31337)
    for _ in range(80):
        inst = random_instance(rng, max_m=5, max_c=5, max_jobs=4, max_val=20)
        r = class_jump_pmtn(inst)
        assert r.lower_bound == r.guess
        scan = min_accepted_scan(inst, Variant.PREEMPTIVE)
        assert r.guess <= scan
        assert r.makespan <= F(3, 2) * scan
        assert verify_schedule(inst, r.schedule, Variant.PREEMPTIVE, F(3, 2) * r.guess).ok


# The knapsack capacity runs out exactly at the answer, with the split item
# at share 0.  The answer must decide as the guesses just above it do, so
# that the search closes on it exactly.
EXHAUSTED_AT_ANSWER = [
    (
        Instance(5, (JobClass(68, (16,)), JobClass(66, (12,)), JobClass(56, (5, 14)),
                     JobClass(35, (12, 2)), JobClass(12, (56,)), JobClass(44, (1, 31, 7)),
                     JobClass(69, (13,)))),
        F(730, 7),
    ),
    (
        Instance(9, (JobClass(48, (19,)), JobClass(57, (14,)), JobClass(56, (7, 13, 2)),
                     JobClass(17, (46, 24)), JobClass(38, (27, 21, 6, 10)), JobClass(59, (11,)),
                     JobClass(60, (3, 2, 5)), JobClass(31, (16, 33, 24)), JobClass(9, (39,)))),
        F(856, 11),
    ),
]


@pytest.mark.parametrize("inst,answer", EXHAUSTED_AT_ANSWER)
def test_class_jump_exact_at_knapsack_exhaustion(inst, answer):
    sol = _pmtn_plan(inst, answer).knapsack
    assert sol.x[sol.split_item] == 0
    r = class_jump_pmtn(inst)
    assert r.guess == r.lower_bound == answer
    assert len(r.probes) <= 8
    assert certified_report(r).ratio_bound <= F(3, 2)
    assert verify_schedule(inst, r.schedule, Variant.PREEMPTIVE, F(3, 2) * r.guess).ok


def test_class_jump_exact_at_density_tie():
    # at the answer 42 the star classes 7 and 8 are equally dense, and just
    # above it 8 is denser; the tie must break as just above, so that 42
    # decides as the guesses above it do and the search closes on it exactly
    inst = Instance(12, (
        JobClass(24, (2, 7)), JobClass(5, (19,)), JobClass(5, (24, 14)), JobClass(23, (2, 5, 2, 2)),
        JobClass(22, (15, 16, 10)), JobClass(24, (2, 3, 6, 1)), JobClass(21, (2, 2, 7, 1)),
        JobClass(3, (20,)), JobClass(5, (14, 25)), JobClass(5, (22,)), JobClass(5, (17,)),
        JobClass(23, (2, 8, 2)), JobClass(23, (12,)), JobClass(21, (14, 14)),
    ))
    assert _pmtn_plan(inst, F(42)).knapsack.split_item == 8
    r = class_jump_pmtn(inst)
    assert r.guess == r.lower_bound == 42
    assert len(r.probes) <= 8
    assert verify_schedule(inst, r.schedule, Variant.PREEMPTIVE, F(63)).ok


def _split_work(rng, work, parts):
    cuts = sorted(rng.sample(range(1, work), min(parts, work) - 1)) if work > 1 else []
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [work]))


def knapsack_heavy_instance(rng):
    """Shapes that drive the preemptive dual into its knapsack case, around an
    answer scale S: classes with setup just above S/2 and little work (setup
    + work in (3/4 S, S), a dedicated machine each), up to two heavy classes,
    and 1-60 small-setup classes with jobs at 35-70% of S (oversized jobs).
    m is the load over S, clipped to [n/8, n/2]."""
    S = rng.randint(40, 120)
    small = rng.randint(1, rng.choice((6, 12, 24, 60)))
    classes = []
    for _ in range(max(1, round(small * rng.uniform(0.5, 1.0)))):
        s = S // 2 + rng.randint(1, S // 10)
        work = rng.randint(max(1, 76 * S // 100 - s), max(1, 9 * S // 10 - s))
        classes.append(JobClass(s, _split_work(rng, work, rng.randint(1, 4))))
    for _ in range(rng.randint(0, 2)):
        s = S // 2 + rng.randint(1, S // 10)
        classes.append(JobClass(s, tuple(
            rng.randint(S // 8, 95 * S // 100 - s) for _ in range(rng.randint(2, 6)))))
    for _ in range(small):
        classes.append(JobClass(rng.randint(1, S // 8), tuple(
            rng.randint(35 * S // 100, 70 * S // 100) for _ in range(rng.randint(1, 2)))))
    rng.shuffle(classes)
    n = sum(len(cl.jobs) for cl in classes)
    m = round(sum(cl.setup + cl.total for cl in classes) / S * rng.uniform(0.95, 1.05))
    return Instance(m=min(max(m, n // 8, 1), n // 2), classes=tuple(classes))


def test_class_jump_knapsack_heavy_corpus():
    # the closing rests on the decision's load and machines being constant
    # on the final bracket and right-continuous at its bottom
    rng = random.Random(2024)
    searches = knapsack = many_star = 0
    while searches < 300:
        inst = knapsack_heavy_instance(rng)
        r = class_jump_pmtn(inst)
        if r.probes[0][1]:
            continue  # T_min accepted: no bracket to close
        searches += 1
        assert r.lower_bound == r.guess, inst
        lo, hi = r.trace.final_interval
        needs = {
            (d.load, d.machines)
            for d in (_decide_pmtn(inst, lo + (hi - lo) * F(k, 97)) for k in range(1, 97))
        }
        assert len(needs) == 1, inst
        assert verify_schedule(inst, r.schedule, Variant.PREEMPTIVE, F(3, 2) * r.guess).ok
        plan = _pmtn_plan(inst, r.guess)
        knapsack += plan.knapsack is not None
        many_star += len(plan.part.chp_star) > 14
    assert knapsack >= 60 and many_star >= 30
