import math
import random
import sys
from fractions import Fraction as F

import pytest

from batchsched.core import (
    ContractError,
    Instance,
    JobClass,
    Variant,
    lower_bound_tmin,
    rows_end,
    verify_schedule,
)
from batchsched.nonpreemptive import (
    counts_nonp,
    dual_nonp,
    exact_integer_search_nonp,
    next_fit_two_approx,
)

from batchsched.search import Probe
from conftest import random_instance, tiny_instances
from oracle import exact_nonp, records_its_end


def test_next_fit_two_classes():
    inst = Instance(m=2, classes=(JobClass(1, (2, 2)), JobClass(1, (2,))))
    sched, makespan = next_fit_two_approx(inst, Variant.NONPREEMPTIVE)
    tmin = lower_bound_tmin(inst, Variant.NONPREEMPTIVE)
    assert tmin == 4
    assert makespan <= 2 * tmin
    assert verify_schedule(inst, sched, Variant.NONPREEMPTIVE, 2 * tmin).ok


def test_next_fit_single_machine():
    inst = Instance(m=1, classes=(JobClass(2, (3, 1)), JobClass(1, (2,))))
    sched, makespan = next_fit_two_approx(inst, Variant.NONPREEMPTIVE)
    assert makespan == inst.total_load


def test_next_fit_machines_cover_jobs():
    inst = Instance(m=5, classes=(JobClass(2, (3,)), JobClass(1, (4, 2))))
    sched, makespan = next_fit_two_approx(inst, Variant.PREEMPTIVE)
    assert makespan == max(cl.setup + cl.t_max for cl in inst.classes)
    assert verify_schedule(inst, sched, Variant.NONPREEMPTIVE, makespan).ok


EX = Instance(m=2, classes=(JobClass(1, (4, 2)), JobClass(2, (3, 1))))


def test_counts_at_six():
    c = counts_nonp(EX, 6, 1)
    assert c.machines == [1, 1]
    assert [F(x, 1) for x in c.leftover] == [F(1), F(0)]  # x_i * q, q = 1


def test_counts_at_seven():
    c = counts_nonp(EX, 7, 1)
    assert c.machines == [1, 1]
    assert [F(x, 1) for x in c.leftover] == [F(0), F(-1)]  # x_i * q, q = 1


def test_counts_expensive_class():
    inst = Instance(m=3, classes=(JobClass(6, (3, 2)),))
    c = counts_nonp(inst, 10, 1)
    assert c.machines == [2]  # ceil(5 / 4)
    # an expensive class (2 s > T) counts by its work, not by its jobs
    assert 2 * inst.classes[0].setup > 10


def test_counts_refuse_a_guess_at_or_below_a_setup():
    # the dual reaches counts_nonp only above the job-setup bound, so a guess
    # at or below a setup is a caller's error, not a reject
    inst = Instance(m=3, classes=(JobClass(6, (3, 2)), JobClass(1, (1,))))
    for guess in (F(6), F(11, 2)):
        with pytest.raises(ContractError):
            counts_nonp(inst, *guess.as_integer_ratio())
    c = counts_nonp(inst, 13, 2)
    assert c.machines == [10, 0]
    assert [F(x, 2) for x in c.leftover] == [0, 1]  # x_i * q, q = 2


def test_dual_reject_then_accept():
    out6 = dual_nonp(EX, F(6))
    assert not out6.accepted and out6.reason == "load"
    out7 = dual_nonp(EX, F(7))
    assert out7.accepted
    rep = verify_schedule(EX, out7.schedule, Variant.NONPREEMPTIVE, F(21, 2))
    assert rep.ok
    assert exact_nonp(EX) == 7


def test_dual_single_machine_exact_fit():
    inst = Instance(m=1, classes=(JobClass(2, (3, 3)),))
    out = dual_nonp(inst, F(8))
    assert out.accepted
    assert out.schedule.makespan() == 8


def test_repair_records_where_the_moved_item_ends():
    # at T = 10 steps 1-2 give class 0 machine 0 (ends at 6) and class 1
    # machine 1 (ends at 8); class 2's setup fits machine 0's room of 4 but
    # its job sticks out, so with no machine left step 4 moves the job behind
    # a fresh setup onto machine 1, the other one at or below T, to end at 13
    inst = Instance(m=2, classes=(JobClass(4, (2,)), JobClass(3, (5,)), JobClass(3, (2,))))
    out = dual_nonp(inst, F(10))
    assert out.accepted
    assert out.schedule.machines == [[0, 0, 4, 1, 0, 2], [1, 0, 3, 1, 0, 5, 2, 8, 3, 1, 0, 2]]
    assert out.schedule.end() == rows_end(out.schedule.rows()) == 13
    assert records_its_end(out.schedule)


def test_integer_search_matches_oracle():
    r = exact_integer_search_nonp(EX)
    assert r.guess == 7
    assert r.makespan <= F(21, 2)


def test_integer_search_trivial_case():
    inst = Instance(m=5, classes=(JobClass(2, (3,)), JobClass(1, (4,))))
    r = exact_integer_search_nonp(inst)
    assert r.guess == 5 == exact_nonp(inst)
    assert r.probes == [(5, True)]  # m >= n: the dual accepts ceil(T_min)


def test_integer_search_unit_instance():
    inst = Instance(m=2, classes=(JobClass(1, (2,)), JobClass(1, (2,))))
    r = exact_integer_search_nonp(inst)
    assert r.guess == 3 == exact_nonp(inst)


def test_integer_search_past_sys_maxsize():
    # a guess range of about 10**30 integers, past sys.maxsize: the search
    # probes exactly as a plain integer bisection that opens at ceil(T_min)
    inst = Instance(m=2, classes=(JobClass(10**30 + 7, (3, 5)), JobClass(2, (1, 1, 1))))
    r = exact_integer_search_nonp(inst)

    probe = Probe(inst, Variant.NONPREEMPTIVE)
    tmin = lower_bound_tmin(inst, Variant.NONPREEMPTIVE)
    lo, hi = math.ceil(tmin), math.ceil(2 * tmin)
    assert hi - lo > sys.maxsize
    assert not probe(lo)
    assert probe(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid
    assert r.guess == hi
    assert r.probes == probe.probes
    assert len(r.probes) > 90


def test_probe_budget():
    rng = random.Random(8)
    for _ in range(60):
        inst = random_instance(rng)
        if inst.m >= inst.n:
            continue
        tmin = lower_bound_tmin(inst, Variant.NONPREEMPTIVE)
        r = exact_integer_search_nonp(inst)
        assert len(r.probes) <= math.ceil(math.log2(math.ceil(tmin))) + 2


def test_schedules_are_contiguous_per_job():
    # the dual's schedule and next fit's, each with the end it recorded
    rng = random.Random(21)
    for _ in range(150):
        inst = random_instance(rng)
        r = exact_integer_search_nonp(inst)
        rep = verify_schedule(inst, r.schedule, Variant.NONPREEMPTIVE, F(3, 2) * r.guess)
        assert rep.ok, [str(v) for v in rep.violations][:4]
        sched, makespan = next_fit_two_approx(inst, Variant.NONPREEMPTIVE)
        assert records_its_end(r.schedule) and records_its_end(sched), inst
        assert makespan == verify_schedule(inst, sched, Variant.NONPREEMPTIVE, makespan).makespan


def test_rejections_certify_on_tiny_family():
    for inst in tiny_instances(300, seed=5150):
        opt = exact_nonp(inst)
        r = exact_integer_search_nonp(inst)
        assert r.makespan <= F(3, 2) * opt
        for guess, ok in r.probes:
            if not ok:
                assert guess < opt, (inst, guess, opt)
