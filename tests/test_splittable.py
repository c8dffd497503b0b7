import random
import time
from fractions import Fraction as F

from batchsched.core import (
    Instance,
    JobClass,
    Variant,
    lower_bound_tmin,
    verify_schedule,
)
from batchsched.splittable import class_jump_split, dual_split, two_approx_split

from conftest import random_instance
from oracle import min_accepted_scan


def test_two_approx_small():
    inst = Instance(m=2, classes=(JobClass(2, (3,)), JobClass(1, (1, 1))))
    sched, makespan = two_approx_split(inst)
    assert makespan <= 6  # s_max + N/m
    assert verify_schedule(inst, sched, Variant.SPLITTABLE, F(6)).ok


def test_two_approx_single_machine_exact():
    inst = Instance(m=1, classes=(JobClass(2, (3,)), JobClass(1, (1, 1))))
    sched, makespan = two_approx_split(inst)
    assert makespan == inst.total_load  # one gap holds everything back to back


def test_two_approx_huge_machine_count_compressed():
    inst = Instance(m=10**6, classes=(JobClass(1, (10,)), JobClass(2, (7,)), JobClass(1, (3,))))
    sched, makespan = two_approx_split(inst)
    bound = 2 * lower_bound_tmin(inst, Variant.SPLITTABLE)
    assert makespan <= bound
    assert sched.placement_count() < 100  # compressed, not materialized
    assert verify_schedule(inst, sched, Variant.SPLITTABLE, bound).ok


def test_class_jump_huge_machine_count():
    # two jobs long enough to span about 10m and 2m gaps of a run: the search and
    # its schedule must cost O(output), not O(m)
    m = 10**12
    inst = Instance(m, (JobClass(3, (10 * m + 7,) + (5,) * 25), JobClass(5, (2 * m,) + (9,) * 25)))
    t0 = time.perf_counter()
    r = class_jump_split(inst)
    assert time.perf_counter() - t0 < 2
    assert r.schedule.placement_count() < 1000
    assert verify_schedule(inst, r.schedule, Variant.SPLITTABLE, F(3, 2) * r.guess).ok


def test_dual_accept_two_classes():
    inst = Instance(m=3, classes=(JobClass(6, (5, 5)), JobClass(2, (3,))))
    out = dual_split(inst, F(10))
    assert out.accepted
    assert verify_schedule(inst, out.schedule, Variant.SPLITTABLE, F(15)).ok


def test_dual_reject_machine_count():
    inst = Instance(m=1, classes=(JobClass(6, (5, 5)), JobClass(2, (3,))))
    out = dual_split(inst, F(10))
    assert not out.accepted and out.reason == "machines"


def test_dual_exact_load_boundary():
    inst = Instance(m=2, classes=(JobClass(6, (5, 5)),))
    assert dual_split(inst, F(11)).accepted
    out = dual_split(inst, F(11) - F(1, 1000))
    assert not out.accepted and out.reason == "load"


def test_class_jump_single_class():
    inst = Instance(m=2, classes=(JobClass(6, (5, 5)),))
    r = class_jump_split(inst)
    assert r.guess == 11
    assert r.makespan <= F(3, 2) * 11
    assert verify_schedule(inst, r.schedule, Variant.SPLITTABLE, F(3, 2) * r.guess).ok
    assert min_accepted_scan(inst, Variant.SPLITTABLE) == 11


def test_class_jump_all_cheap_load_average():
    # every class cheap around the answer: the search lands on the exact load
    # average, which may sit below any scan grid point
    inst = Instance(m=4, classes=(JobClass(1, (2,)), JobClass(2, (1, 1))))
    r = class_jump_split(inst)
    assert dual_split(inst, r.guess).accepted
    assert r.guess == F(9, 4)  # (work + all setups) / m
    scan = min_accepted_scan(inst, Variant.SPLITTABLE)
    assert r.guess <= scan and r.makespan <= F(3, 2) * scan


def test_jump_arithmetic():
    # consecutive jump values of a class with work 10
    assert F(2 * 10, 4) == 5 and F(2 * 10, 5) == 4


def test_class_jump_matches_scan_on_random_instances():
    rng = random.Random(1234)
    for _ in range(120):
        inst = random_instance(rng)
        r = class_jump_split(inst)
        scan = min_accepted_scan(inst, Variant.SPLITTABLE)
        assert r.guess <= scan
        assert r.makespan <= F(3, 2) * scan
        assert dual_split(inst, r.guess).accepted
        assert verify_schedule(inst, r.schedule, Variant.SPLITTABLE, F(3, 2) * r.guess).ok


def test_dual_rejections_certify_against_scan():
    rng = random.Random(99)
    for _ in range(40):
        inst = random_instance(rng, max_m=4, max_c=4, max_jobs=4, max_val=12)
        least = min_accepted_scan(inst, Variant.SPLITTABLE)
        r = class_jump_split(inst)
        for guess, ok in r.probes:
            if not ok:
                assert guess < least
