"""The one-pass verifier against the reference verifier it replaced: equal
reports (violations, their order, times and messages, and the makespan) on
built, mutated and hand-built Fraction schedules."""

import random
from collections import Counter
from fractions import Fraction

from batchsched import Instance, Schedule, Variant, verify_schedule
from batchsched.core import PIECE, SETUP
from batchsched.search import variant_ops
from conftest import random_instance
from oracle import reference_verify


def _mutate(rng: random.Random, inst: Instance, sched: Schedule) -> Schedule:
    """One to three random edits: a changed field, a duplicated, deleted or
    moved row, a shuffled machine, a changed multiplicity, an extra machine
    or a machine turned into a configuration."""
    parts = [list(m) for m in sched.machines] + [list(c) for c, _ in sched.compressed]
    mults = [mult for _, mult in sched.compressed]
    n_machines = len(sched.machines)
    for _ in range(rng.randint(1, 3)):
        rows = [(i, j) for i, p in enumerate(parts) for j in range(len(p))]
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
            rng.shuffle(parts[rng.randrange(len(parts))])
        elif rows:
            i, j = rng.choice(rows)
            row = parts[i][j]
            if what == 0:  # shift a time
                k = rng.choice([2, 3])
                step = rng.choice([-2, -1, 1, 2]) * rng.choice([1, sched.scale])
                row = row[:k] + (row[k] + step,) + row[k + 1:]
            elif what == 1:  # change an id
                k = rng.choice([1, 4, 5])
                cls = row[1]
                choices = {
                    1: [-1, inst.c, rng.randrange(inst.c)],
                    4: [None, -1, 0, len(inst.classes[cls].jobs) if 0 <= cls < inst.c else 9],
                    5: [0, 1, 7],
                }[k]
                row = row[:k] + (rng.choice(choices),) + row[k + 1:]
            elif what == 2:  # swap the kind
                row = (PIECE if row[0] == SETUP else SETUP,) + row[1:4] + (
                    (rng.choice([0, None]), 0) if row[0] == SETUP else (None, None))
            if what <= 2:
                parts[i][j] = row
            else:  # duplicate, delete, or move to any part
                if what != 3:
                    del parts[i][j]
                if what != 4:
                    dest = parts[rng.randrange(len(parts))]
                    dest.insert(rng.randrange(len(dest) + 1), row)
    return Schedule(m=sched.m, machines=parts[:n_machines],
                    compressed=list(zip(map(tuple, parts[n_machines:]), mults)), scale=sched.scale)


def _as_fractions(sched: Schedule, scale: int) -> Schedule:
    """The same times as Fractions on another scale, as a hand-built schedule
    may hold them."""
    def conv(p):
        return (p[0], p[1], Fraction(p[2] * scale, sched.scale), Fraction(p[3] * scale, sched.scale)) + p[4:]
    return Schedule(
        m=sched.m,
        machines=[[conv(p) for p in m] for m in sched.machines],
        compressed=[(tuple(conv(p) for p in c), mult) for c, mult in sched.compressed],
        scale=scale,
    )


def test_verify_equals_reference_verifier():
    # about 3 s: 3,000+ schedules, each verified for every variant at and
    # just under its makespan
    rng = random.Random(20260509)
    rules: Counter = Counter()
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
                ms = reference_verify(inst, sched, built_as, Fraction(10**9)).makespan
                bounds = (ms, ms - Fraction(1, 2 * sched.scale))  # at and just under
                for variant in Variant:
                    for bound in bounds:
                        want = reference_verify(inst, sched, variant, bound)
                        got = verify_schedule(inst, sched, variant, bound)
                        assert got == want, (inst, sched, variant, bound)
                        rules.update(v.rule for v in got.violations)
    assert all(rules[r] >= 20 for r in "abcdefs"), rules
