"""The one-pass verifier against the reference verifier it replaced: equal
reports (violations, their order, times and messages, and the makespan) on
built, mutated and hand-built Fraction schedules."""

import random
from collections import Counter
from itertools import chain
from fractions import Fraction

from batchsched import Instance, Schedule, Variant, verify_schedule
from batchsched.search import variant_ops
from conftest import random_instance
from oracle import reference_verify, tuple_view


def _mutate(rng: random.Random, inst: Instance, sched: Schedule) -> Schedule:
    """One to three random edits: a changed field, a duplicated, deleted or
    moved placement, a shuffled machine, a changed multiplicity, an extra
    machine or a machine turned into a configuration.  Placement j of a part
    is part[4 * j: 4 * j + 4]."""
    parts = [list(m) for m in sched.machines] + [list(c) for c, _ in sched.compressed]
    mults = [mult for _, mult in sched.compressed]
    n_machines = len(sched.machines)
    for _ in range(rng.randint(1, 3)):
        placements = [(i, 4 * j) for i, p in enumerate(parts) for j in range(len(p) // 4)]
        what = rng.randrange(10)
        if what == 9 and n_machines:
            parts.append(parts.pop(rng.randrange(n_machines)))
            mults.append(rng.choice([1, 2]))
            n_machines -= 1
        elif what == 8 and n_machines:
            parts.insert(n_machines, list(parts[rng.randrange(n_machines)]))
            n_machines += 1
        elif what == 7 and mults:
            mults[rng.randrange(len(mults))] = rng.choice([-1, 0, 2, 3])
        elif what == 6 and parts:
            part = parts[rng.randrange(len(parts))]
            quads = [part[k:k + 4] for k in range(0, len(part), 4)]
            rng.shuffle(quads)
            part[:] = chain.from_iterable(quads)
        elif placements:
            i, k = rng.choice(placements)
            p = parts[i][k:k + 4]
            if what == 0:  # shift a time
                f = rng.choice([1, 2])
                p[f] += rng.choice([-2, -1, 1, 2]) * rng.choice([1, sched.scale])
            elif what == 1:  # change an id
                f = rng.choice([0, 3])
                cls = p[0]
                p[f] = rng.choice({
                    0: [-1, inst.c, rng.randrange(inst.c)],
                    3: [-1, -2, 0, len(inst.classes[cls].jobs) if 0 <= cls < inst.c else 9],
                }[f])
            elif what == 2:  # a setup becomes a piece of job 0, a piece a setup
                p[3] = 0 if p[3] == -1 else -1
            if what <= 2:
                parts[i][k:k + 4] = p
            else:  # duplicate, delete, or move to any part
                if what != 3:
                    del parts[i][k:k + 4]
                if what != 4:
                    dest = parts[rng.randrange(len(parts))]
                    at = 4 * rng.randrange(len(dest) // 4 + 1)
                    dest[at:at] = p
    return Schedule(m=sched.m, machines=parts[:n_machines],
                    compressed=list(zip(parts[n_machines:], mults)), scale=sched.scale)


def _as_fractions(sched: Schedule, scale: int) -> Schedule:
    """The same times as Fractions on another scale, as a hand-built schedule
    may hold them."""
    def conv(row):
        return [Fraction(x * scale, sched.scale) if k % 4 in (1, 2) else x
                for k, x in enumerate(row)]
    return Schedule(
        m=sched.m,
        machines=[conv(row) for row in sched.machines],
        compressed=[(conv(row), mult) for row, mult in sched.compressed],
        scale=scale,
    )


def _unsorted_rows(sched: Schedule) -> Counter:
    """The rows of positive multiplicity the verifier sorts, by why: starts
    out of order, or in order with two equal."""
    rows = sched.machines + [row for row, mult in sched.compressed if mult >= 1]
    out: Counter = Counter()
    for row in rows:
        starts = row[1::4]
        if starts != sorted(starts):
            out["shuffled"] += 1
        elif len(set(starts)) < len(starts):
            out["equal starts"] += 1
    return out


def test_verify_equals_reference_verifier():
    # about 3 s: 3,000+ schedules, each verified for every variant at and
    # just under its makespan
    rng = random.Random(20260509)
    rules: Counter = Counter()
    sorted_rows: Counter = Counter()
    schedules = 0
    while schedules < 3000:
        inst = random_instance(rng, max_m=12, max_c=4, max_jobs=5, max_val=12)
        for built_as in Variant:
            built = variant_ops(built_as).search(inst).schedule
            family = [built, _mutate(rng, inst, built), _mutate(rng, inst, built)]
            if rng.random() < 0.25:
                frac = _as_fractions(built, rng.choice([1, 3]))
                family += [frac, _mutate(rng, inst, frac)]
            for sched in family:
                schedules += 1
                sorted_rows += _unsorted_rows(sched)
                view = tuple_view(sched)
                ms = reference_verify(inst, view, built_as, Fraction(10**9)).makespan
                bounds = (ms, ms - Fraction(1, 2 * sched.scale))  # at and just under
                for variant in Variant:
                    for bound in bounds:
                        want = reference_verify(inst, view, variant, bound)
                        got = verify_schedule(inst, sched, variant, bound)
                        assert got == want, (inst, sched, variant, bound)
                        rules.update(v.rule for v in got.violations)
    assert all(rules[r] >= 20 for r in "abcdefs"), rules
    assert sorted_rows["shuffled"] >= 200 and sorted_rows["equal starts"] >= 200, sorted_rows
