import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from batchsched import nonpreemptive, preemptive, splittable
from batchsched.cli import emit_schedule, generate_instance
from batchsched.core import (
    ContractError,
    Instance,
    JobClass,
    ValidationError,
    Variant,
    lower_bound_tmin,
    verify_schedule,
)
from batchsched.search import (
    Rejected,
    SearchResult,
    certified_report,
    epsilon_search,
    solve,
    variant_ops,
)
from batchsched.splittable import class_jump_split

from conftest import random_instance, tiny_instances
from oracle import exact_nonp, min_accepted_scan
from test_golden import solves


def test_eps_one_needs_single_probe():
    inst = Instance(m=2, classes=(JobClass(2, (3,)), JobClass(1, (1, 1))))
    r = epsilon_search(inst, Variant.SPLITTABLE, F(1))
    assert len(r.probes) == 1


def test_eps_probe_budget():
    # 2 T_min, then one midpoint per level down to the grid T_min/2^k with
    # 2^k >= 1/eps: ceil(log2(1/eps)) + 1 probes, whatever the answer
    rng = random.Random(12)
    for _ in range(30):
        inst = random_instance(rng)
        for v, (eps, probes) in itertools.product(Variant, ((F(1, 2**10), 11), (F(1, 3), 3))):
            r = epsilon_search(inst, v, eps)
            assert len(r.probes) == probes
            assert r.guess <= (1 + eps) * max(r.lower_bound, lower_bound_tmin(inst, v))
            assert verify_schedule(inst, r.schedule, v, F(3, 2) * r.guess).ok


def test_eps_converges_to_exact_boundary():
    inst = Instance(m=2, classes=(JobClass(6, (5, 5)),))
    r = epsilon_search(inst, Variant.SPLITTABLE, F(1, 10**9))
    j = class_jump_split(inst)
    assert j.guess == 11
    assert abs(r.guess - 11) <= F(11, 10**8)
    assert abs(r.makespan - j.makespan) <= j.makespan / 10**5


@pytest.mark.parametrize(
    "variant, module, name",
    [
        (Variant.SPLITTABLE, splittable, "dual_split"),
        (Variant.PREEMPTIVE, preemptive, "dual_pmtn"),
        (Variant.NONPREEMPTIVE, nonpreemptive, "dual_nonp"),
    ],
    ids=["split", "pmtn", "nonp"],
)
def test_eps_builds_only_the_final_guess(monkeypatch, variant, module, name):
    inst = generate_instance(seed=3, machines=3, classes=4)
    real = getattr(module, name)
    calls = []

    def counting(inst, guess):
        calls.append(guess)
        return real(inst, guess)

    monkeypatch.setattr(module, name, counting)
    r = epsilon_search(inst, variant, F(1, 1000))
    assert len(r.probes) > 1
    assert calls == [r.guess]
    assert r.schedule == real(inst, r.guess).schedule


def test_decide_matches_dual():
    rng = random.Random(2024)
    for k in range(120):
        inst = random_instance(rng, max_m=10, max_c=4, max_jobs=4, max_val=20)
        if k % 4 == 0:  # one job per machine
            inst = Instance(m=inst.n + rng.randint(0, 2), classes=inst.classes)
        for v in Variant:
            ops = variant_ops(v)
            tmin = lower_bound_tmin(inst, v)
            bound = inst.s_max if v is Variant.SPLITTABLE else inst.job_setup_bound
            guesses = [F(bound) - F(1, 2), F(bound) * F(9, 10)]
            guesses += [tmin * q for q in (F(1), F(23, 20), F(4, 3), F(2))]
            for g in guesses:
                d = ops.decide(inst, g)
                out = ops.dual(inst, g)
                assert d.schedule is None
                assert out._replace(schedule=None) == d, (inst, v, g)  # verdict, reason, plan
                assert (out.schedule is not None) == out.accepted, (inst, v, g)


def test_eps_rejects_bad_tolerance():
    inst = Instance(m=1, classes=(JobClass(1, (1,)),))
    with pytest.raises(ValidationError):
        epsilon_search(inst, Variant.SPLITTABLE, F(0))


def test_certified_report_division():
    r = SearchResult(guess=F(7), schedule=None, lower_bound=F(7), makespan=F(21, 2))
    assert r.ratio_bound == F(3, 2)
    rep = certified_report(r)
    assert rep.ratio_bound == F(3, 2)
    for bound in (F(0), F(-7)):
        r = SearchResult(guess=F(7), schedule=None, lower_bound=bound, makespan=F(21, 2))
        with pytest.raises(ContractError):
            r.ratio_bound
        with pytest.raises(ContractError):
            certified_report(r)


def test_certified_report_jump_always_within_three_halves():
    rng = random.Random(77)
    for _ in range(60):
        inst = random_instance(rng)
        rep = certified_report(class_jump_split(inst))
        assert rep.ratio_bound <= F(3, 2)


def test_exact_nonp_examples():
    assert exact_nonp(Instance(m=2, classes=(JobClass(1, (2,)), JobClass(1, (2,))))) == 3
    assert exact_nonp(Instance(m=2, classes=(JobClass(1, (4, 2)), JobClass(2, (3, 1))))) == 7
    inst = Instance(m=4, classes=(JobClass(2, (3,)), JobClass(1, (4,))))
    assert exact_nonp(inst) == max(cl.setup + cl.t_max for cl in inst.classes)


def test_exact_nonp_guard():
    big = Instance(m=2, classes=(JobClass(1, tuple([1] * 11)),))
    with pytest.raises(Exception):
        exact_nonp(big)


def test_exact_nonp_permutation_invariant():
    rng = random.Random(123)
    for _ in range(200):
        inst = random_instance(rng, max_m=3, max_c=3, max_jobs=3, max_val=6)
        base = exact_nonp(inst)
        perm_classes = list(inst.classes)
        rng.shuffle(perm_classes)
        perm_classes = [JobClass(c.setup, tuple(sorted(c.jobs, key=lambda _: rng.random())))
                        for c in perm_classes]
        assert exact_nonp(Instance(m=inst.m, classes=tuple(perm_classes))) == base


def test_scan_examples():
    inst = Instance(m=2, classes=(JobClass(6, (5, 5)),))
    assert min_accepted_scan(inst, Variant.SPLITTABLE) == 11
    ex = Instance(m=2, classes=(JobClass(1, (4, 2)), JobClass(2, (3, 1))))
    assert min_accepted_scan(ex, Variant.NONPREEMPTIVE) == 7
    easy = Instance(m=5, classes=(JobClass(2, (3,)), JobClass(1, (4,))))
    assert min_accepted_scan(easy, Variant.NONPREEMPTIVE) == math.ceil(
        lower_bound_tmin(easy, Variant.NONPREEMPTIVE)
    )


# what solve dispatches to, by each function's own name
DUALS = {Variant.SPLITTABLE: splittable.dual_split, Variant.PREEMPTIVE: preemptive.dual_pmtn,
         Variant.NONPREEMPTIVE: nonpreemptive.dual_nonp}
SEARCHES = {Variant.SPLITTABLE: splittable.class_jump_split,
            Variant.PREEMPTIVE: preemptive.class_jump_pmtn,
            Variant.NONPREEMPTIVE: nonpreemptive.exact_integer_search_nonp}


def _direct(inst, v, algo, guess):
    """(guess, bound, makespan, probes, schedule) of the algorithm's own
    function, as solve's callers got them before solve."""
    tmin = lower_bound_tmin(inst, v)
    if algo == "two-approx":
        sched, makespan = (splittable.two_approx_split(inst) if v is Variant.SPLITTABLE
                           else nonpreemptive.next_fit_two_approx(inst, v))
        return 2 * tmin, tmin, makespan, [], sched
    if algo == "dual":
        sched = DUALS[v](inst, guess).schedule
        return guess, tmin, sched.makespan(), [(guess, True)], sched
    r = epsilon_search(inst, v, F(1, 1000)) if algo == "eps" else SEARCHES[v](inst)
    return r.guess, r.lower_bound, r.makespan, r.probes, r.schedule


def test_solve_equals_the_direct_functions():
    rng = random.Random(2718)
    trivial = 0
    for k in range(60):
        inst = random_instance(rng, max_m=10, max_c=5, max_jobs=5, max_val=40)
        if k % 5 == 0:  # one job per machine
            inst = Instance(m=inst.n + rng.randint(0, 2), classes=inst.classes)
        trivial += inst.m >= inst.n
        for v in Variant:
            # the exact search's guess and 2 T_min are accepted by the dual
            for algo, guess in (("two-approx", None), ("eps", None), ("jump", None),
                                ("dual", SEARCHES[v](inst).guess),
                                ("dual", 2 * lower_bound_tmin(inst, v))):
                r = solve(inst, v, algo, guess=guess)  # eps: the default 1/1000
                want = _direct(inst, v, algo, guess)
                got = (r.guess, r.lower_bound, r.makespan, r.probes, r.schedule)
                assert got[:4] == want[:4], (inst, v, algo)
                assert [type(g) for g, _ in got[3]] == [type(g) for g, _ in want[3]]
                assert json.dumps(emit_schedule(got[4]), sort_keys=True) == json.dumps(
                    emit_schedule(want[4]), sort_keys=True), (inst, v, algo)
    assert trivial >= 12


def test_jump_probes_open_at_the_bottom_inside_one_bracket():
    # every exact search on the golden corpus probes its certified bottom
    # first (T_min, or ceil(T_min) for nonp), is done if that is accepted,
    # and otherwise probes distinct guesses within [T_min, 2 T_min]
    # ([ceil(T_min), ceil(2 T_min)] for nonp)
    opened_past = Counter()
    for inst, v, algo, r, _ in solves():
        if algo != "jump":
            continue
        tmin = lower_bound_tmin(inst, v)
        bottom, top = tmin, 2 * tmin
        if v is Variant.NONPREEMPTIVE:
            bottom, top = math.ceil(bottom), math.ceil(top)
        guesses = [g for g, _ in r.probes]
        assert guesses[:1] == [bottom], (inst, v, r.probes[:2])
        assert len(set(guesses)) == len(guesses), (inst, v, r.probes)
        assert all(bottom <= g <= top for g in guesses), (inst, v, r.probes)
        if r.probes[0][1]:
            assert len(r.probes) == 1 and r.guess == bottom, (inst, v, r.probes)
        else:
            opened_past[v] += 1
    assert all(opened_past[v] >= 40 for v in Variant), opened_past


def test_solve_dual_rejected_raises_the_decision_reason():
    rng = random.Random(314)
    reasons = set()
    for _ in range(80):
        inst = random_instance(rng, max_m=6, max_c=5, max_jobs=5, max_val=40)
        for v in Variant:
            tmin = lower_bound_tmin(inst, v)
            for g in (tmin - F(1, 2), tmin * F(9, 10), tmin * F(21, 20)):
                d = variant_ops(v).decide(inst, g)
                if d.accepted:
                    continue
                with pytest.raises(Rejected) as exc:
                    solve(inst, v, "dual", guess=g)
                assert (exc.value.guess, exc.value.reason) == (g, d.reason), (inst, v, g)
                reasons.add((v, d.reason))
    assert {reason for _, reason in reasons} == {"load", "job-bound", "machines", "setup-bound"}


def test_solve_refuses_unknown_algo_and_dual_without_guess():
    inst = Instance(m=2, classes=(JobClass(2, (3,)), JobClass(1, (1, 1))))
    for v in Variant:
        with pytest.raises(ValidationError):
            solve(inst, v, "bisect")
        with pytest.raises(ValidationError):
            solve(inst, v, "dual")
