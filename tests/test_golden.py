"""Golden output: the emitted schedule JSON of a fixed corpus, pinned by one
sha256, plus the invariants of the integer time scale on the same solves."""

import hashlib
import json
import random
from fractions import Fraction as F

from batchsched.cli import _two_approx, emit_schedule, generate_instance, parse_schedule
from batchsched.core import Variant, verify_schedule
from batchsched.preemptive import _pmtn_plan
from batchsched.search import epsilon_search, variant_ops

from test_preemptive import knapsack_heavy_instance

# sha256 over the sort_keys JSON of every schedule below, in order; the
# schedules were emitted when every time was still a Fraction
GOLDEN_SHA256 = "a54ef50d1d0a160559ba8e008b3b28abf2b7ab68c616bf6c0824bd68638f6f0d"


def corpus():
    rng = random.Random(606)
    profiles = ("uniform", "few-expensive", "many-small")
    for k in range(300):
        yield generate_instance(seed=k, machines=rng.randint(1, 10), classes=rng.randint(1, 6),
                                profile=profiles[k % 3])
    rng = random.Random(607)
    for _ in range(50):
        yield knapsack_heavy_instance(rng)


def solves():
    """(instance, variant, algo, result, bound) for jump, eps 1/64 and the
    2-approximation of every variant on the corpus."""
    for inst in corpus():
        for variant in Variant:
            r = _two_approx(inst, variant)
            yield inst, variant, "two-approx", r, 2 * r.lower_bound
            r = variant_ops(variant).search(inst)
            yield inst, variant, "jump", r, F(3, 2) * r.guess
            r = epsilon_search(inst, variant, F(1, 64))
            yield inst, variant, "eps", r, F(3, 2) * r.guess


def schedule_text(sched) -> str:
    return json.dumps(emit_schedule(sched), sort_keys=True)


def golden_digest(rows) -> str:
    h = hashlib.sha256()
    for *_, r, _bound in rows:
        h.update(schedule_text(r.schedule).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_golden_schedules_on_the_integer_scale():
    rows = list(solves())
    assert len(rows) == 350 * 9
    split_shares = 0
    for inst, variant, algo, r, bound in rows:
        sched = r.schedule
        assert all(type(p) is tuple and type(p[2]) is int and type(p[3]) is int
                   for p in sched.placements()), (inst, variant, algo)
        assert type(sched.makespan()) is F and sched.makespan() == r.makespan
        mem = verify_schedule(inst, sched, variant, bound)
        wire = verify_schedule(inst, parse_schedule(json.loads(schedule_text(sched)), inst.m),
                               variant, bound)
        assert mem.ok and mem == wire, (inst, variant, algo)
        if variant is Variant.PREEMPTIVE and algo != "two-approx":
            sol = _pmtn_plan(inst, r.guess).knapsack
            if sol is not None and sol.split_item is not None:
                split_shares += sol.x[sol.split_item].denominator > 1
    assert split_shares >= 1
    assert golden_digest(rows) == GOLDEN_SHA256
