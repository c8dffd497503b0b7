import copy
import pickle
import random
import re
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from batchsched.core import (
    Instance,
    JobClass,
    Schedule,
    ValidationError,
    Variant,
    classify,
    lower_bound_tmin,
    parse_instance,
    verify_schedule,
)
from batchsched.preemptive import _star_items

from conftest import random_instance
from oracle import batch_list, flat_row, placements, reference_verify, tuple_view


def test_parse_instance_roundtrip():
    inst = parse_instance({"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]})
    assert inst.m == 2 and inst.c == 1 and inst.n == 2


def test_parse_instance_rejects_empty_classes():
    with pytest.raises(ValidationError, match="no classes"):
        parse_instance({"m": 1, "classes": []})


def test_parse_instance_rejects_zero_setup():
    with pytest.raises(ValidationError, match="setup"):
        parse_instance({"m": 2, "classes": [{"setup": 0, "jobs": [1]}]})


def test_parse_instance_rejects_bad_fields():
    with pytest.raises(ValidationError):
        parse_instance({"classes": [{"setup": 1, "jobs": [1]}]})
    with pytest.raises(ValidationError):
        parse_instance({"m": 0, "classes": [{"setup": 1, "jobs": [1]}]})
    with pytest.raises(ValidationError):
        parse_instance({"m": 1, "classes": [{"setup": 1, "jobs": []}]})
    # the job checks run on the whole list at once; a failure names the job
    with pytest.raises(ValidationError, match=r"^classes\[1\]\.jobs\[2\] must be >= 1$"):
        parse_instance({"m": 1, "classes": [{"setup": 1, "jobs": [1]},
                                            {"setup": 1, "jobs": [3, 2, 0, -1]}]})
    for bad in ([1, True], [1, 2.0], [1, "2"], [1, None], "12"):
        with pytest.raises(ValidationError, match=r"^classes\[0\]\.jobs must be a list of integers$"):
            parse_instance({"m": 1, "classes": [{"setup": 1, "jobs": bad}]})


INST = Instance(m=2, classes=(JobClass(2, (3,)), JobClass(1, (1, 1))))


def test_job_class_total_is_cached_outside_equality_and_hash():
    a, b = JobClass(3, (4, 5)), JobClass(3, (4, 5))
    assert a.total == 9
    # found at construction, after the fields that define the class
    assert a._fields == ("setup", "jobs", "sums", "total", "t_max") and a[:2] == (3, (4, 5))
    assert a[2:] == ((0, 4, 9), 9, 5)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1 and a != JobClass(3, (5, 4)) and a != JobClass(4, (4, 5))
    assert a._replace(jobs=(1,)).total == 1
    with pytest.raises(AttributeError):
        a.total = 1
    # a whole tuple, stale aggregates and all, is refused rather than taken as it is
    with pytest.raises(TypeError):
        JobClass._make((3, (1,), (0, 9), 9, 9))
    with pytest.raises(TypeError):
        Instance._make(tuple(INST))


@pytest.mark.parametrize("copy_of", [
    lambda x, **kw: x._replace(**kw),
    lambda x, **kw: copy.copy(x)._replace(**kw),
    lambda x, **kw: pickle.loads(pickle.dumps(x))._replace(**kw),
    lambda x, **kw: type(x)._make({**dict(zip(x._fields, x[:2])), **kw}.values()),
    # copy.replace from Python 3.13 on; the protocol it calls before
    getattr(copy, "replace", lambda x, **kw: type(x).__replace__(x, **kw)),
])
def test_copies_with_new_jobs_carry_their_own_aggregates(copy_of):
    cl = copy_of(JobClass(3, (4, 5)), jobs=(7, 1, 2))
    assert cl == JobClass(3, (7, 1, 2)) and type(cl) is JobClass
    assert (cl.sums, cl.total, cl.t_max) == ((0, 7, 8, 10), 10, 7)
    inst = copy_of(INST, classes=(cl,))
    assert inst == Instance(m=2, classes=(cl,)) and type(inst) is Instance
    assert (inst.n, inst.total_work, inst.total_load, inst.s_max, inst.job_setup_bound) == (3, 10, 13, 3, 10)
    assert copy_of(INST, m=5).n == INST.n == 3
    # an aggregate is no field a copy may set, and a copy is validated again
    for bad in ({"total": 1}, {"sums": (0, 1)}):
        with pytest.raises(TypeError):
            copy_of(cl, **bad)
    with pytest.raises(TypeError):
        copy_of(INST, n=1)
    with pytest.raises(ValidationError, match="m must be >= 1"):
        copy_of(INST, m=0)
    with pytest.raises(ValidationError, match=r"classes\[0\]\.jobs\[1\] must be >= 1"):
        copy_of(INST, classes=(JobClass(1, (1, 0)),))


def test_lower_bound_splittable():
    assert lower_bound_tmin(INST, Variant.SPLITTABLE) == 4  # max(8/2, 2)


def test_lower_bound_preemptive():
    assert lower_bound_tmin(INST, Variant.PREEMPTIVE) == 5  # max(4, 2+3)
    assert lower_bound_tmin(INST, Variant.NONPREEMPTIVE) == 5


def test_lower_bound_single_machine():
    one = Instance(m=1, classes=(JobClass(1, (1,)),))
    for v in Variant:
        assert lower_bound_tmin(one, v) == 2


def test_classify_examples():
    inst = Instance(
        m=4,
        classes=(
            JobClass(5, (4,)),  # expensive, reaches the guess
            JobClass(5, (1,)),  # expensive, light
            JobClass(6, (1,)),  # expensive, in between
            JobClass(2, (3,)),  # cheap, setup exactly a quarter: small-setup
            JobClass(1, (4, 1)),  # cheap small setup, one oversized job
        ),
    )
    part = classify(inst, 8, 1)
    assert part.exp_plus == (0,)
    assert part.exp_minus == (1,)
    assert part.exp_zero == (2,)
    assert part.chp_plus == ()
    assert part.chp_minus == (3, 4)
    assert part.chp_star == (3, 4)
    # each star class has one oversized job: 2 + 3 and 1 + 4 overrun half
    # the guess by 1 next to their setups; the others fit
    # (the spills are on the knapsack's scale 2q, here 2)
    _, spills, _ = _star_items(inst, part, 8, 1, 0)
    assert {i: F(x, 2) for i, x in spills.items()} == {3: 1, 4: 1}


def test_classify_all_cheap_at_double_setup():
    inst = random_instance(random.Random(7))
    part = classify(inst, 2 * inst.s_max, 1)
    assert part.exp_plus + part.exp_zero + part.exp_minus == ()
    assert sorted(part.chp_plus + part.chp_minus) == list(range(inst.c))


def test_classify_partitions_cover():
    rng = random.Random(11)
    for _ in range(200):
        inst = random_instance(rng)
        guess = F(rng.randint(1, 120), rng.randint(1, 4))
        part = classify(inst, *guess.as_integer_ratio())
        exp = part.exp_plus + part.exp_zero + part.exp_minus
        chp = part.chp_plus + part.chp_minus
        assert sorted(exp) == [i for i, cl in enumerate(inst.classes) if 2 * cl.setup > guess]
        assert sorted(chp) == [i for i, cl in enumerate(inst.classes) if 2 * cl.setup <= guess]
        assert sorted(exp + chp) == list(range(inst.c))
        assert set(part.chp_star) <= set(part.chp_minus)


def test_rational_arithmetic_exact():
    rng = random.Random(3)
    for _ in range(500):
        a = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        b = F(rng.randint(1, 10**12), rng.randint(1, 10**9))
        assert (a / b) * b == a


def test_verify_single_machine_ok():
    inst = Instance(m=1, classes=(JobClass(1, (2,)),))
    sched = Schedule(
        m=1,
        machines=[[0, F(0), F(1), 1, 0, F(2)]],
    )
    rep = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(3))
    assert rep.ok and rep.makespan == 3


def test_verify_same_job_parallel_overlap():
    inst = Instance(m=2, classes=(JobClass(1, (4,)),))
    sched = Schedule(
        m=2,
        machines=[
            [0, F(0), F(1), 1, 0, F(2)],
            [0, F(0), F(1), 2, -1, F(1), 0, F(2)],  # idle from 1 to 2
        ],
    )
    rep = verify_schedule(inst, sched, Variant.PREEMPTIVE, F(10))
    assert not rep.ok and any(v.rule == "e" for v in rep.violations)
    # the same pieces are fine in the splittable reading
    assert verify_schedule(inst, sched, Variant.SPLITTABLE, F(10)).ok


def test_verify_missing_setup():
    # a batch always has a setup: a missing one is a setup of length 0
    inst = Instance(m=1, classes=(JobClass(1, (2,)), JobClass(1, (2,))))
    sched = Schedule(
        m=1,
        machines=[[1, F(0), F(0), 1, 0, F(2)]],
    )
    rep = verify_schedule(inst, sched, Variant.SPLITTABLE, F(10))
    assert any(v.rule == "b" for v in rep.violations)
    assert any(v.rule == "c" for v in rep.violations)  # other jobs absent


def test_verify_idle_inside_class_run_allowed():
    # idle pairs: the setup from 0 to 1, idle to 2, job 0 to 4, idle to 5,
    # job 1 to 6
    inst = Instance(m=1, classes=(JobClass(1, (2, 1)),))
    sched = Schedule(
        m=1,
        machines=[[0, F(0), F(1), 4, -1, F(1), 0, F(2), -1, F(1), 1, F(1)]],
    )
    assert sched.placement_count() == 3
    assert verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(6)).ok


def test_placement_count_skips_idle_pairs_only():
    # setups plus pieces, each configuration's once: a -1 counts as idle
    # time only in a job slot, not as a class, start or duration
    sched = Schedule(
        m=5,
        machines=[[0, 0, 2, 2, -1, 1, 0, 3, -1, 6, 1, 1, 0, 2],
                  [1, -1, 1, 4, -1, 2, -1, 3, 0, 1, 1, -1]],
        compressed=[([0, 0, 2, 2, 0, -1, -1, 4], 3)],
    )
    assert sched.placement_count() == 2 + 2 + 3 + 2


def _rules(report):
    return [(v.rule, v.machine, v.time, v.message) for v in report.violations]


def test_verify_run_past_the_class_end():
    # one pair of 6 from job 0 of a class of jobs 2 and 3: both whole, then
    # 1 time unit past the class's last job, an unknown job
    inst = Instance(m=1, classes=(JobClass(1, (2, 3)),))
    sched = Schedule(m=1, machines=[[0, 0, 1, 1, 0, 6]])
    for variant in Variant:
        rep = verify_schedule(inst, sched, variant, F(9))
        assert _rules(rep) == [("s", 0, F(6), "unknown job id (0, 2)")]
        assert rep == reference_verify(inst, tuple_view(sched, inst), variant, F(9))
    # one unit less is the class in one run
    assert verify_schedule(inst, Schedule(m=1, machines=[[0, 0, 1, 1, 0, 5]]),
                           Variant.NONPREEMPTIVE, F(6)).ok
    # job 1 also runs whole on machine 1 from 6, when it ends on machine 0:
    # its total is twice its length, but its two copies do not overlap (the
    # time past the class's end is no part of job 1)
    inst = Instance(m=2, classes=inst.classes)
    sched = Schedule(m=2, machines=[[0, 0, 1, 1, 0, 6], [0, 5, 1, 1, 1, 3]])
    unknown = ("s", 0, F(6), "unknown job id (0, 2)")
    total = ("c", "-", F(0), "job (0, 1) placed for 6 time units, needs exactly 3")
    _same_as_reference(inst, sched, F(9), {
        Variant.SPLITTABLE: [unknown, total],
        Variant.PREEMPTIVE: [unknown, total],
        Variant.NONPREEMPTIVE: [unknown, total, ("d", "-", F(0), "job (0, 1) split into 2 pieces")],
    })


def test_verify_nonp_run_ending_in_a_split_job():
    # the run from job 0 ends 2 units into job 1, whose other unit runs on
    # machine 1: totals are right, but job 1 is in two pieces
    inst = Instance(m=2, classes=(JobClass(1, (2, 3)),))
    sched = Schedule(m=2, machines=[[0, 0, 1, 1, 0, 4], [0, 0, 1, 1, 1, 1]])
    assert _rules(verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(5))) == [
        ("d", "-", F(0), "job (0, 1) split into 2 pieces")]
    assert verify_schedule(inst, sched, Variant.PREEMPTIVE, F(5)).ok


def test_verify_pmtn_whole_job_of_a_run_overlapping_its_other_piece():
    # jobs 0, 1 and 2 whole in one run, job 1 from 3 to 6; a piece of job 1
    # from 4 to 5 on machine 1 overlaps it (and makes its total 4)
    inst = Instance(m=2, classes=(JobClass(1, (2, 3, 4)),))
    sched = Schedule(m=2, machines=[[0, 0, 1, 1, 0, 9], [0, 3, 1, 1, 1, 1]])
    rep = verify_schedule(inst, sched, Variant.PREEMPTIVE, F(10))
    assert _rules(rep) == [
        ("c", "-", F(0), "job (0, 1) placed for 4 time units, needs exactly 3"),
        ("e", "-", F(4), "pieces of job (0, 1) overlap in time"),
    ]
    assert rep == reference_verify(inst, tuple_view(sched, inst), Variant.PREEMPTIVE, F(10))
    # moved to start when the run's job 1 ends, the piece overlaps nothing:
    # the job is decided by the pass over its pieces, and only its total is wrong
    sched.machines[1] = [0, 5, 1, 1, 1, 1]
    rep = verify_schedule(inst, sched, Variant.PREEMPTIVE, F(10))
    assert _rules(rep) == [("c", "-", F(0), "job (0, 1) placed for 4 time units, needs exactly 3")]
    assert rep == reference_verify(inst, tuple_view(sched, inst), Variant.PREEMPTIVE, F(10))


@pytest.mark.parametrize("scale", [1, 2])
def test_verify_run_in_a_config_of_mult_3(scale):
    # a configuration of one batch whose pair runs job 0 whole and 3/2 of
    # job 1, copied 3 times: every job's total and count triple, and in
    # pmtn each runs on 3 machines in parallel; with Fraction times on the
    # scale 1 the same report as on the int scale 2
    inst = Instance(m=3, classes=(JobClass(1, (2, 3)),))
    config = [0, F(0), F(1), 1, 0, F(7, 2)] if scale == 1 else [0, 0, 2, 1, 0, 7]
    sched = Schedule(m=3, compressed=[(config, 3)], scale=scale)
    want = {
        Variant.SPLITTABLE: [
            ("c", "-", F(0), "job (0, 0) placed for 6 time units, needs exactly 2"),
            ("c", "-", F(0), "job (0, 1) placed for 9/2 time units, needs exactly 3")],
        Variant.PREEMPTIVE: [
            ("c", "-", F(0), "job (0, 0) placed for 6 time units, needs exactly 2"),
            ("c", "-", F(0), "job (0, 1) placed for 9/2 time units, needs exactly 3"),
            ("e", "-", F(1), "job (0, 0) runs on 3 identical machines in parallel"),
            ("e", "-", F(3), "job (0, 1) runs on 3 identical machines in parallel")],
        Variant.NONPREEMPTIVE: [
            ("c", "-", F(0), "job (0, 0) placed for 6 time units, needs exactly 2"),
            ("c", "-", F(0), "job (0, 1) placed for 9/2 time units, needs exactly 3"),
            ("d", "-", F(0), "job (0, 0) split into 3 pieces"),
            ("d", "-", F(0), "job (0, 1) split into 3 pieces")],
    }
    for variant, rules in want.items():
        rep = verify_schedule(inst, sched, variant, F(9, 2))
        assert _rules(rep) == rules and rep.makespan == F(9, 2), variant
        assert rep == reference_verify(inst, tuple_view(sched, inst), variant, F(9, 2))


def _same_as_reference(inst, sched, bound, want):
    """The report of each variant is want[variant] (rule, machine, time,
    message), and equals the reference verifier's on the runs expanded."""
    for variant, rules in want.items():
        rep = verify_schedule(inst, sched, variant, bound)
        assert _rules(rep) == rules, variant
        assert rep == reference_verify(inst, tuple_view(sched, inst), variant, bound), variant


def test_verify_run_in_a_config_of_mult_2():
    # job 0 whole and 2 units of job 1 in one pair, copied twice: job 1's
    # pieces add up to its length, but both jobs run on 2 machines at once
    # (job 0 found from its whole copies, job 1 from its pieces)
    inst = Instance(m=2, classes=(JobClass(1, (2, 4)),))
    sched = Schedule(m=2, compressed=[([0, 0, 1, 1, 0, 4], 2)])
    total = ("c", "-", F(0), "job (0, 0) placed for 4 time units, needs exactly 2")
    _same_as_reference(inst, sched, F(5), {
        Variant.SPLITTABLE: [total],
        Variant.PREEMPTIVE: [
            total,
            ("e", "-", F(1), "job (0, 0) runs on 2 identical machines in parallel"),
            ("e", "-", F(3), "job (0, 1) runs on 2 identical machines in parallel")],
        Variant.NONPREEMPTIVE: [
            total,
            ("d", "-", F(0), "job (0, 0) split into 2 pieces"),
            ("d", "-", F(0), "job (0, 1) split into 2 pieces")],
    })


@pytest.mark.parametrize("first_copied", [False, True])
def test_verify_pmtn_job_in_two_pieces_one_copied_twice(first_copied):
    # job 0 of 4 in a piece of 1 from 1, copied twice, and a piece of 2 from
    # 3: the total is right and the pieces do not overlap, but the first
    # piece runs on 2 machines at once; it is the job's first piece or its
    # second in schedule order (configurations come after machine rows)
    inst = Instance(m=3, classes=(JobClass(1, (4,)),))
    copied, once = [0, 0, 1, 1, 0, 1], [0, 2, 1, 1, 0, 2]
    if first_copied:
        sched = Schedule(m=3, compressed=[(copied, 2), (once, 1)])
    else:
        sched = Schedule(m=3, machines=[once], compressed=[(copied, 2)])
    _same_as_reference(inst, sched, F(5), {
        Variant.SPLITTABLE: [],
        Variant.PREEMPTIVE: [("e", "-", F(1), "job (0, 0) runs on 2 identical machines in parallel")],
        Variant.NONPREEMPTIVE: [("d", "-", F(0), "job (0, 0) split into 3 pieces")],
    })


def test_verify_job_whole_in_two_runs():
    # jobs 0 and 1 whole on machine 0, jobs 1 and 2 whole on machine 1: job 1
    # is whole twice, from 3 to 6 and from 1 to 4
    inst = Instance(m=2, classes=(JobClass(1, (2, 3, 4)),))
    sched = Schedule(m=2, machines=[[0, 0, 1, 1, 0, 5], [0, 0, 1, 1, 1, 7]])
    total = ("c", "-", F(0), "job (0, 1) placed for 6 time units, needs exactly 3")
    _same_as_reference(inst, sched, F(8), {
        Variant.SPLITTABLE: [total],
        Variant.PREEMPTIVE: [total, ("e", "-", F(3), "pieces of job (0, 1) overlap in time")],
        Variant.NONPREEMPTIVE: [total, ("d", "-", F(0), "job (0, 1) split into 2 pieces")],
    })
    # on one machine, one after the other, the job only has the wrong total
    sched = Schedule(m=1, machines=[[0, 0, 1, 1, 0, 5, 0, 6, 1, 1, 1, 7]])
    _same_as_reference(inst, sched, F(14), {
        Variant.SPLITTABLE: [total],
        Variant.PREEMPTIVE: [total],
        Variant.NONPREEMPTIVE: [total, ("d", "-", F(0), "job (0, 1) split into 2 pieces")],
    })


def test_verify_run_before_time_0():
    # the setup from -5, then jobs 0, 1 and 2 whole from -4, -2 and 1: a
    # message for the setup and for each job that starts before 0
    inst = Instance(m=1, classes=(JobClass(1, (2, 3, 4)),))
    sched = Schedule(m=1, machines=[[0, -5, 1, 1, 0, 9]])
    early = [("a", 0, F(t), "placement starts before time 0") for t in (-5, -4, -2)]
    _same_as_reference(inst, sched, F(5), {v: early for v in Variant})
    # the setup from -3, then jobs 0 and 1 whole from -2 and 0: job 1 starts
    # at 0, not before it
    inst = Instance(m=1, classes=(JobClass(1, (2, 3)),))
    sched = Schedule(m=1, machines=[[0, -3, 1, 1, 0, 5]])
    early = [("a", 0, F(t), "placement starts before time 0") for t in (-3, -2)]
    _same_as_reference(inst, sched, F(5), {v: early for v in Variant})
    # the same run past the end of a class of one job of 2: the time past
    # it starts at 0 too
    inst = Instance(m=1, classes=(JobClass(1, (2,)),))
    _same_as_reference(inst, sched, F(5), {v: early + [("s", 0, F(0), "unknown job id (0, 1)")]
                                           for v in Variant})
    # a pair as long as its job, from -1
    inst = Instance(m=1, classes=(JobClass(1, (2,)),))
    sched = Schedule(m=1, machines=[[0, -2, 1, 1, 0, 2]])
    early = [("a", 0, F(t), "placement starts before time 0") for t in (-2, -1)]
    _same_as_reference(inst, sched, F(5), {v: early for v in Variant})
    # idle time, an unknown job and a run past the class's end from -9: the
    # idle time starts no placement, the unknown job, both jobs and the time
    # past the end (from -1) each start one before 0
    inst = Instance(m=1, classes=(JobClass(1, (2, 3)),))
    sched = Schedule(m=1, machines=[[0, -9, 1, 3, -1, 1, 7, 1, 0, 7]])
    _same_as_reference(inst, sched, F(5), {v: [
        ("a", 0, F(-9), "placement starts before time 0"),
        ("a", 0, F(-7), "placement starts before time 0"),
        ("s", 0, F(-7), "unknown job id (0, 7)"),
        ("a", 0, F(-6), "placement starts before time 0"),
        ("a", 0, F(-4), "placement starts before time 0"),
        ("a", 0, F(-1), "placement starts before time 0"),
        ("s", 0, F(-1), "unknown job id (0, 2)"),
    ] for v in Variant})


def test_verify_zero_setup_and_run_from_minus_one():
    # a setup of length 0 at time 0 is a placement of non-positive duration
    # as well as a setup of the wrong length
    inst = Instance(m=1, classes=(JobClass(1, (2,)),))
    sched = Schedule(m=1, machines=[[0, 0, 0, 1, 0, 2]])
    _same_as_reference(inst, sched, F(5), {v: [
        ("a", 0, F(0), "placement with non-positive duration"),
        ("b", 0, F(0), "setup of class 0 has length 0, expected 1"),
    ] for v in Variant})
    # the setup from -3, then a run of both jobs from -1: job 0 starts at
    # -1, before 0, and job 1 at 0
    inst = Instance(m=1, classes=(JobClass(2, (1, 1)),))
    sched = Schedule(m=1, machines=[[0, -3, 2, 1, 0, 2]])
    early = [("a", 0, F(t), "placement starts before time 0") for t in (-3, -1)]
    _same_as_reference(inst, sched, F(5), {v: early for v in Variant})


def test_verify_fraction_run_ending_inside_a_job():
    # On the scale 3, with unscaled prefix sums 0, 2, 5 and 9, a pair from
    # job 0 of 31/2 reaches 31/6 job time units, 1/6 past the end of job 1:
    # jobs 0 and 1 whole, then 1/6 of job 2, whose other 23/6 run on machine
    # 1.  The run's whole jobs come from the floor of 31/6, 5, and a prefix
    # sum ends within the run exactly when it is at most that floor.
    inst = Instance(m=2, classes=(JobClass(1, (2, 3, 4)),))
    sched = Schedule(m=2, scale=3, machines=[[0, F(0), F(3), 1, 0, F(31, 2)],
                                             [0, F(0), F(3), 1, 2, F(23, 2)]])
    _same_as_reference(inst, sched, F(37, 6), {
        Variant.SPLITTABLE: [],
        Variant.PREEMPTIVE: [],
        Variant.NONPREEMPTIVE: [("d", "-", F(0), "job (0, 2) split into 2 pieces")],
    })
    # 1/2 more on machine 1: job 2 is placed for 25/6
    sched.machines[1] = [0, F(0), F(3), 1, 2, F(12)]
    total = ("c", "-", F(0), "job (0, 2) placed for 25/6 time units, needs exactly 4")
    _same_as_reference(inst, sched, F(37, 6), {
        Variant.SPLITTABLE: [total],
        Variant.PREEMPTIVE: [total],
        Variant.NONPREEMPTIVE: [total, ("d", "-", F(0), "job (0, 2) split into 2 pieces")],
    })
    # a pair of 29/2 reaches 29/6, 1/6 before the end of job 1, whose last
    # 1/6 runs on machine 1 before job 2 (the ceiling, 5, would take job 1
    # whole)
    sched.machines[:] = [[0, F(0), F(3), 1, 0, F(29, 2)],
                         [0, F(0), F(3), 2, 1, F(1, 2), 2, F(12)]]
    _same_as_reference(inst, sched, F(35, 6), {
        Variant.SPLITTABLE: [],
        Variant.PREEMPTIVE: [],
        Variant.NONPREEMPTIVE: [("d", "-", F(0), "job (0, 1) split into 2 pieces")],
    })


def _whole_in_runs(inst, sched) -> set:
    """The jobs (cls, job) that some pair of a row of positive multiplicity
    holds whole in a run, before its last job (as `expand_runs` reads it)."""
    out = set()
    for row, mult in [(row, 1) for row in sched.machines] + sched.compressed:
        for b in batch_list(row) if mult >= 1 else ():
            lens = [t * sched.scale for t in inst.classes[b[0]].jobs] if 0 <= b[0] < inst.c else []
            for job, dur in zip(b[3::2], b[4::2]):
                while 0 <= job < len(lens) and dur > lens[job]:
                    out.add((b[0], job))
                    dur -= lens[job]
                    job += 1
    return out


def test_verify_whole_copies_decided_by_the_pass_over_pieces(monkeypatch):
    # a job that is whole in a run and has another piece or copy is found
    # from its whole copies and decided by the second pass (_pieces_of).
    # Over mutated schedules, count the reports of rule (d) and (e) that
    # pass names a job of a run for, and require equal reports wherever the
    # reference reads the same placements
    from batchsched import core
    from batchsched.search import variant_ops
    from test_verify_reference import _mutate, _same_reading

    rng = random.Random(20261020)
    passes, hits = [], Counter()
    real = core._pieces_of

    def pieces_of(*args):
        found = real(*args)
        passes.append(set(found))
        return found

    monkeypatch.setattr(core, "_pieces_of", pieces_of)
    while min(hits["d"], hits["e"]) < 20:
        inst = random_instance(rng, max_m=8, max_c=3, max_jobs=5, max_val=9)
        built = variant_ops(rng.choice(list(Variant))).search(inst).schedule
        sched = _mutate(rng, inst, built, Counter())
        if not _same_reading(inst, sched):
            continue
        runs = _whole_in_runs(inst, sched)
        for variant, rule in ((Variant.NONPREEMPTIVE, "d"), (Variant.PREEMPTIVE, "e")):
            passes.clear()
            rep = verify_schedule(inst, sched, variant, F(10**6))
            assert rep == reference_verify(inst, tuple_view(sched, inst), variant, F(10**6))
            named = {tuple(map(int, re.search(r"job \((\d+), (\d+)\)", v.message).groups()))
                     for v in rep.violations if v.rule == rule}
            hits[rule] += bool(named & passes[-1] & runs)
    assert hits["d"] >= 20 and hits["e"] >= 20, hits


def test_verify_python_steps_follow_the_rows_not_the_jobs():
    # The per-job rules are C-level passes, so a class in one run costs the
    # verifier as many Python steps at 2,000 jobs as at 20, and so does one
    # whose last job is cut between two machines (split and pmtn: the
    # schedule is feasible there)
    def one_run(n):
        inst = Instance(m=2, classes=(JobClass(1, (3,) * n),))
        return inst, Schedule(m=2, machines=[[0, 0, 1, 1, 0, 3 * n]])

    def last_cut(n):
        inst = Instance(m=2, classes=(JobClass(1, (3,) * n),))
        return inst, Schedule(m=2, machines=[[0, 0, 1, 1, 0, 3 * n - 2], [0, 0, 1, 1, n - 1, 2]])

    from test_acceptance import _opcodes

    cases = [(one_run, v) for v in Variant] + [(last_cut, Variant.SPLITTABLE), (last_cut, Variant.PREEMPTIVE)]
    for make, variant in cases:
        steps = []
        for n in (20, 2000):
            inst, sched = make(n)
            assert verify_schedule(inst, sched, variant, F(10**6)).ok
            steps.append(_opcodes(verify_schedule, inst, sched, variant, F(10**6)))
        assert steps[0] == steps[1], (make.__name__, variant, steps)


def test_verify_overlap_and_bound():
    inst = Instance(m=1, classes=(JobClass(1, (2, 2)),))
    sched = Schedule(
        m=1,
        machines=[[0, F(0), F(1), 1, 0, F(2), 0, F(2), F(1), 1, 1, F(2)]],
    )
    rep = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(3))
    rules = {v.rule for v in rep.violations}
    assert "a" in rules and "f" in rules


def test_verify_wrong_setup_length():
    inst = Instance(m=1, classes=(JobClass(3, (1,)),))
    sched = Schedule(
        m=1,
        machines=[[0, F(0), F(2), 1, 0, F(1)]],
    )
    rep = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(10))
    assert any(v.rule == "b" for v in rep.violations)


def test_verify_machine_budget():
    inst = Instance(m=1, classes=(JobClass(1, (1, 1)),))
    sched = Schedule(
        m=1,
        machines=[
            [0, F(0), F(1), 1, 0, F(1)],
            [0, F(0), F(1), 1, 1, F(1)],
        ],
    )
    rep = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(10))
    assert any(v.rule == "s" for v in rep.violations)


def test_verify_machine_budget_from_the_instance():
    # a schedule that claims more machines than the instance has is judged
    # by the instance's budget
    inst = Instance(m=1, classes=(JobClass(1, (2, 2)),))
    sched = Schedule(
        m=2,
        machines=[
            [0, 0, 1, 1, 0, 2],
            [0, 0, 1, 1, 1, 2],
        ],
    )
    rep = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(3))
    assert not rep.ok and rep.makespan == 3
    assert [(v.rule, v.message) for v in rep.violations] == [
        ("s", "schedule uses 2 machines, instance has 1")]


def test_verifier_catches_mutations():
    # corrupt correct schedules in every rule-relevant way; the verifier must
    # flag each one
    from batchsched.nonpreemptive import exact_integer_search_nonp
    from batchsched.splittable import class_jump_split

    rng = random.Random(1701)
    caught = {"drop_setup": 0, "stretch": 0, "shift_overlap": 0, "drop_piece": 0,
              "foreign_setup": 0, "dup_machine": 0}
    for _ in range(40):
        inst = random_instance(rng, max_m=4, max_c=4, max_jobs=3, max_val=9)
        r = exact_integer_search_nonp(inst)
        bound = F(3, 2) * r.guess
        base = r.schedule
        assert verify_schedule(inst, base, Variant.NONPREEMPTIVE, bound).ok

        def mutate(which):
            # each row as a list of batches [cls, start, setup, job, dur, ...],
            # flattened again below
            machines = [list(map(list, batch_list(m))) for m in base.machines]
            busy = [i for i, m in enumerate(machines) if m]
            u = rng.choice(busy)
            row = machines[u]
            with_piece = [b for b in row if len(b) > 3]
            if which == "drop_setup":  # its pieces start where it did
                if not with_piece:
                    return None
                with_piece[0][2] = 0
            elif which == "stretch":
                if not with_piece:
                    return None
                with_piece[0][4] += base.scale
            elif which == "shift_overlap":  # before 0, or into the batch below
                row[-1][1] -= base.scale
            elif which == "drop_piece":
                if not with_piece:
                    return None
                del with_piece[0][3:5]
            elif which == "foreign_setup":  # the batch's pieces claimed by another class
                if inst.c < 2 or not with_piece:
                    return None
                with_piece[0][0] = (with_piece[0][0] + 1) % inst.c
            elif which == "dup_machine":
                if len(machines) < base.m:
                    machines.append([list(b) for b in row])
                else:
                    return None
            return base._replace(machines=list(map(flat_row, machines)))

        for which in caught:
            sched = mutate(which)
            if sched is None:
                continue
            rep = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, bound)
            assert not rep.ok, (which, inst)
            caught[which] += 1

        # splittable: inflating a multiplicity must break the job totals
        rs = class_jump_split(inst)
        if rs.schedule.compressed:
            cfgs = [(c, mult + 1) for c, mult in rs.schedule.compressed]
            bad = rs.schedule._replace(compressed=cfgs)
            rep = verify_schedule(inst, bad, Variant.SPLITTABLE, F(3, 2) * rs.guess)
            assert any(v.rule == "c" for v in rep.violations), (rep, inst)
    assert all(v > 0 for v in caught.values()), caught


# -- the verifier on one integer time scale ----------------------------------
# Hand-built bad schedules with times in thirds, quarters and sevenths; the
# expected lists are the exact reports, in order.

SCALE_INST = Instance(m=3, classes=(JobClass(1, (1, 2)), JobClass(2, (3,))))


def _bad_machines():
    # machine 2's batches are out of start order
    return Schedule(m=3, machines=[
        [0, F(-1, 3), F(1), 3, 0, F(1, 4), 0, F(3, 4), 1, F(0)],
        [1, F(0), F(13, 7), 1, 0, F(3), 0, F(1, 7), F(1), 2, -1, F(0), 1, F(2)],
        [5, F(1, 3), F(1), 1, 0, F(1), 0, F(-3, 4), F(1), 1, 7, F(1, 7)],
    ])


def _bad_compressed():
    # two explicit machines (one empty), a configuration twice and one with
    # multiplicity 0: 4 machines on an instance with 3
    return Schedule(m=3, machines=[
        [0, F(0), F(1), 2, 1, F(1, 3), 1, F(1, 4)],
        [],
    ], compressed=[
        ([0, F(0), F(1), 4, -1, F(1, 4), 0, F(1, 2), -1, F(3, 28), 1, F(5, 7)], 2),
        ([1, F(0), F(2), 1, 0, F(3)], 0),
    ])


def _bad_overlap():
    return Schedule(m=3, machines=[
        [0, F(0), F(1), 2, 1, F(1, 3), 0, F(1)],
        [0, F(0), F(1), 2, -1, F(1, 4), 1, F(5, 3)],
        [1, F(1, 7), F(2), 1, 0, F(3)],
    ])


MACHINE_RULES = [
    ("a", 0, F(-1, 3), "placement starts before time 0"),
    ("a", 0, F(5, 3), "placement with non-positive duration"),
    ("b", 1, F(0), "setup of class 1 has length 13/7, expected 2"),
    ("a", 1, F(1, 7), "placements overlap on the machine"),
    ("a", 1, F(8, 7), "idle time of non-positive length"),
    ("a", 2, F(-3, 4), "placement starts before time 0"),
    ("s", 2, F(1, 4), "unknown job id (0, 7)"),
    ("s", 2, F(1, 3), "unknown class 5"),
]
COMPRESSED_RULES = [
    ("s", "-", F(0), "schedule uses 4 machines, instance has 3"),
    ("s", "compressed[1]", F(0), "multiplicity < 1"),
    ("c", "-", F(0), "job (0, 1) placed for 169/84 time units, needs exactly 2"),
    ("c", "-", F(0), "job (1, 0) placed for 0 time units, needs exactly 3"),
]


@pytest.mark.parametrize("schedule, variant, makespan, expected", [
    (_bad_machines, Variant.SPLITTABLE, F(34, 7), MACHINE_RULES),
    (_bad_machines, Variant.PREEMPTIVE, F(34, 7), MACHINE_RULES + [
        ("e", "-", F(5, 3), "pieces of job (0, 1) overlap in time")]),
    (_bad_machines, Variant.NONPREEMPTIVE, F(34, 7), MACHINE_RULES + [
        ("d", "-", F(0), "job (0, 0) split into 2 pieces"),
        ("d", "-", F(0), "job (0, 1) split into 2 pieces")]),
    (_bad_compressed, Variant.SPLITTABLE, F(5), COMPRESSED_RULES),
    (_bad_compressed, Variant.PREEMPTIVE, F(5), COMPRESSED_RULES + [
        ("e", "-", F(13, 7), "job (0, 1) runs on 2 identical machines in parallel"),
        ("e", "-", F(5, 4), "job (0, 0) runs on 2 identical machines in parallel")]),
    (_bad_compressed, Variant.NONPREEMPTIVE, F(5), COMPRESSED_RULES + [
        ("d", "-", F(0), "job (0, 1) split into 4 pieces"),
        ("d", "-", F(0), "job (0, 0) split into 2 pieces")]),
    (_bad_overlap, Variant.SPLITTABLE, F(36, 7), [
        ("f", "-", F(36, 7), "makespan 36/7 exceeds bound 5")]),
    (_bad_overlap, Variant.PREEMPTIVE, F(36, 7), [
        ("e", "-", F(5, 4), "pieces of job (0, 1) overlap in time"),
        ("f", "-", F(36, 7), "makespan 36/7 exceeds bound 5")]),
    (_bad_overlap, Variant.NONPREEMPTIVE, F(36, 7), [
        ("d", "-", F(0), "job (0, 1) split into 2 pieces"),
        ("f", "-", F(36, 7), "makespan 36/7 exceeds bound 5")]),
])
def test_verify_exact_violations_mixed_denominators(schedule, variant, makespan, expected):
    sched = schedule()
    rep = verify_schedule(SCALE_INST, sched, variant, F(5))
    assert not rep.ok
    assert type(rep.makespan) is F and rep.makespan == makespan == sched.makespan()
    got = [(v.rule, v.machine, v.time, v.message) for v in rep.violations]
    assert got == expected
    assert all(type(v.time) is F for v in rep.violations)


def test_verify_bound_off_the_time_grid():
    inst = Instance(m=1, classes=(JobClass(1, (1,)),))
    sched = Schedule(m=1, machines=[[0, F(1, 4), F(1), 1, 0, F(1)]])
    ok = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(7, 3))
    assert ok.ok and ok.makespan == F(9, 4) and ok.violations == []
    bad = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(11, 5))
    assert [(v.rule, v.time, v.message) for v in bad.violations] == [
        ("f", F(9, 4), "makespan 9/4 exceeds bound 11/5")]


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for k in range(2, int(limit ** 0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, limit, k)))
    return [k for k in range(limit) if sieve[k]]


def test_verify_distinct_prime_denominators_fast():
    # 16,000 placements whose times carry 8,000 distinct prime denominators:
    # the rules run on the Fractions themselves, whose lcm would be a
    # scale of thousands of digits
    primes = _primes_below(82_000)[:8000]
    assert len(primes) == 8000
    jobs = 4000
    inst = Instance(m=2 * jobs, classes=(JobClass(1, (2,) * jobs),))
    machines = []
    for j in range(jobs):
        p, q = primes[2 * j], primes[2 * j + 1]
        machines.append([0, F(0), F(1), 1, j, F(1, p)])
        machines.append([0, F(1, q), F(1), 1, j, 2 - F(1, p)])
    sched = Schedule(m=inst.m, machines=machines)
    top = max(start + dur for _, start, dur, _ in placements(sched, inst))
    t0 = time.perf_counter()
    rep = verify_schedule(inst, sched, Variant.SPLITTABLE, F(7, 2))
    assert time.perf_counter() - t0 <= 2.0
    assert rep.ok and rep.violations == [] and rep.makespan == top == sched.makespan()
    # one stretched piece is reported with its exact time and total
    machines[1][4:] = [0, F(2)]
    rep = verify_schedule(inst, sched, Variant.SPLITTABLE, F(3))
    assert [(v.rule, v.machine, v.time, v.message) for v in rep.violations] == [
        ("c", "-", F(0), "job (0, 0) placed for 5/2 time units, needs exactly 2"),
        ("f", "-", F(10, 3), "makespan 10/3 exceeds bound 3"),
    ]
