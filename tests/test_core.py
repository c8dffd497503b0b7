import random
from fractions import Fraction as F

import pytest

from batchsched.core import (
    PIECE,
    SETUP,
    Instance,
    JobClass,
    Placement,
    Schedule,
    ValidationError,
    Variant,
    classify,
    lower_bound_tmin,
    parse_instance,
    verify_schedule,
)

from conftest import random_instance


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


INST = Instance(m=2, classes=(JobClass(2, (3,)), JobClass(1, (1, 1))))


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
    part = classify(inst, F(8))
    assert part.exp_plus == (0,)
    assert part.exp_minus == (1,)
    assert part.exp_zero == (2,)
    assert part.chp_plus == ()
    assert part.chp_minus == (3, 4)
    assert part.chp_star == (3, 4)
    assert part.big_jobs == {3: (0,), 4: (0,)}


def test_classify_all_cheap_at_double_setup():
    inst = random_instance(random.Random(7))
    part = classify(inst, F(2 * inst.s_max))
    assert not part.expensive and len(part.cheap) == inst.c


def test_classify_partitions_cover():
    rng = random.Random(11)
    for _ in range(200):
        inst = random_instance(rng)
        guess = F(rng.randint(1, 120), rng.randint(1, 4))
        part = classify(inst, guess)
        exp = part.exp_plus + part.exp_zero + part.exp_minus
        chp = part.chp_plus + part.chp_minus
        assert sorted(exp) == sorted(part.expensive)
        assert sorted(chp) == sorted(part.cheap)
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
        machines=[[
            Placement(SETUP, 0, F(0), F(1)),
            Placement(PIECE, 0, F(1), F(2), job=0, piece=0),
        ]],
    )
    rep = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(3))
    assert rep.ok and rep.makespan == 3


def test_verify_same_job_parallel_overlap():
    inst = Instance(m=2, classes=(JobClass(1, (4,)),))
    sched = Schedule(
        m=2,
        machines=[
            [Placement(SETUP, 0, F(0), F(1)), Placement(PIECE, 0, F(1), F(2), job=0, piece=0)],
            [Placement(SETUP, 0, F(0), F(1)), Placement(PIECE, 0, F(2), F(2), job=0, piece=1)],
        ],
    )
    rep = verify_schedule(inst, sched, Variant.PREEMPTIVE, F(10))
    assert not rep.ok and any(v.rule == "e" for v in rep.violations)
    # the same pieces are fine in the splittable reading
    assert verify_schedule(inst, sched, Variant.SPLITTABLE, F(10)).ok


def test_verify_missing_setup():
    inst = Instance(m=1, classes=(JobClass(1, (2,)), JobClass(1, (2,))))
    sched = Schedule(
        m=1,
        machines=[[Placement(PIECE, 1, F(0), F(2), job=0, piece=0)]],
    )
    rep = verify_schedule(inst, sched, Variant.SPLITTABLE, F(10))
    assert any(v.rule == "b" for v in rep.violations)
    assert any(v.rule == "c" for v in rep.violations)  # other jobs absent


def test_verify_idle_inside_class_run_allowed():
    inst = Instance(m=1, classes=(JobClass(1, (2, 1)),))
    sched = Schedule(
        m=1,
        machines=[[
            Placement(SETUP, 0, F(0), F(1)),
            Placement(PIECE, 0, F(2), F(2), job=0, piece=0),
            Placement(PIECE, 0, F(5), F(1), job=1, piece=0),
        ]],
    )
    assert verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(6)).ok


def test_verify_overlap_and_bound():
    inst = Instance(m=1, classes=(JobClass(1, (2, 2)),))
    sched = Schedule(
        m=1,
        machines=[[
            Placement(SETUP, 0, F(0), F(1)),
            Placement(PIECE, 0, F(1), F(2), job=0, piece=0),
            Placement(PIECE, 0, F(2), F(2), job=1, piece=0),
        ]],
    )
    rep = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(3))
    rules = {v.rule for v in rep.violations}
    assert "a" in rules and "f" in rules


def test_verify_wrong_setup_length():
    inst = Instance(m=1, classes=(JobClass(3, (1,)),))
    sched = Schedule(
        m=1,
        machines=[[
            Placement(SETUP, 0, F(0), F(2)),
            Placement(PIECE, 0, F(2), F(1), job=0, piece=0),
        ]],
    )
    rep = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(10))
    assert any(v.rule == "b" for v in rep.violations)


def test_verify_machine_budget():
    inst = Instance(m=1, classes=(JobClass(1, (1, 1)),))
    sched = Schedule(
        m=1,
        machines=[
            [Placement(SETUP, 0, F(0), F(1)), Placement(PIECE, 0, F(1), F(1), job=0, piece=0)],
            [Placement(SETUP, 0, F(0), F(1)), Placement(PIECE, 0, F(1), F(1), job=1, piece=0)],
        ],
    )
    rep = verify_schedule(inst, sched, Variant.NONPREEMPTIVE, F(10))
    assert any(v.rule == "s" for v in rep.violations)


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
            machines = [list(m) for m in base.machines]
            busy = [i for i, m in enumerate(machines) if m]
            u = rng.choice(busy)
            if which == "drop_setup":
                k = next((k for k, p in enumerate(machines[u]) if p.kind == SETUP), None)
                if k is None or all(q.kind == SETUP for q in machines[u]):
                    return None
                del machines[u][k]
            elif which == "stretch":
                k = next((k for k, p in enumerate(machines[u]) if p.kind == PIECE), None)
                if k is None:
                    return None
                p = machines[u][k]
                machines[u][k] = Placement(PIECE, p.cls, p.start, p.dur + 1, p.job, p.piece)
            elif which == "shift_overlap":
                if len(machines[u]) < 2:
                    return None
                p = machines[u][1]
                machines[u][1] = p.shifted(-p.start + machines[u][0].start)
            elif which == "drop_piece":
                k = next((k for k, p in enumerate(machines[u]) if p.kind == PIECE), None)
                if k is None:
                    return None
                del machines[u][k]
            elif which == "foreign_setup":
                if inst.c < 2:
                    return None
                k = next((k for k, p in enumerate(machines[u]) if p.kind == PIECE), None)
                if k is None:
                    return None
                p = machines[u][k]
                other = (p.cls + 1) % inst.c
                machines[u].insert(
                    k, Placement(SETUP, other, p.start, F(inst.classes[other].setup))
                )
            elif which == "dup_machine":
                if len(machines) < base.m:
                    machines.append(list(machines[u]))
                else:
                    return None
            return Schedule(m=base.m, machines=machines)

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
            bad = Schedule(m=rs.schedule.m, machines=rs.schedule.machines, compressed=cfgs)
            assert not verify_schedule(inst, bad, Variant.SPLITTABLE, F(3, 2) * rs.guess).ok
    assert all(v > 0 for v in caught.values()), caught
