"""The one-pass batch verifier against the reference verifier it replaced,
which reads the same schedule expanded into placements, runs of whole jobs
into one placement per job (`expand_runs`): equal reports
(violations, their order, times and messages, and the makespan) where both
read the same placements in the same order, and on every other schedule
the batch verifier at least as strict, on built, mutated and hand-built
Fraction schedules."""

import random
from collections import Counter
from fractions import Fraction
from operator import itemgetter

from batchsched import Instance, Schedule, Variant, verify_schedule
from batchsched.search import variant_ops
from conftest import random_instance
from oracle import batch_list, flat_row, reference_verify, run_pairs, tuple_view


def _pair_at(rng: random.Random, batch: list, trailing: bool = False) -> int:
    """The index of a random (job, dur) pair of the batch, or with trailing
    of the end, where a new pair goes last."""
    return 3 + 2 * rng.randrange((len(batch) - 3) // 2 + trailing)


def _mutate(rng: random.Random, inst: Instance, sched: Schedule, runs: Counter) -> Schedule:
    """One to three random edits of the batch rows: a shifted start or
    duration, a changed class or job id, added idle time, a changed setup
    length, a duplicated, deleted or moved batch or pair, shuffled batches,
    a changed multiplicity, an extra machine or a machine turned into a
    configuration, or a pair lengthened or shortened by a job's duration,
    so that a run takes in one more job or one less (tallied in runs)."""
    # each row as a list of batches [cls, start, setup, job, dur, ...],
    # flattened again at the end
    parts = [list(map(list, batch_list(row))) for row in sched.machines]
    parts += [list(map(list, batch_list(row))) for row, _ in sched.compressed]
    mults = [mult for _, mult in sched.compressed]
    n_machines = len(sched.machines)
    for _ in range(rng.randint(1, 3)):
        where = [(i, k) for i, p in enumerate(parts) for k in range(len(p))]
        what = rng.randrange(16)
        what = 9 if what > 13 else what  # a shuffle three times as often as the rest
        if what == 12 and n_machines:
            parts.append(parts.pop(rng.randrange(n_machines)))
            mults.append(rng.choice([1, 2]))
            n_machines -= 1
        elif what == 11 and n_machines:
            parts.insert(n_machines, [list(b) for b in parts[rng.randrange(n_machines)]])
            n_machines += 1
        elif what == 10 and mults:
            mults[rng.randrange(len(mults))] = rng.choice([-1, 0, 2, 3])
        elif what == 9 and any(len(p) > 1 for p in parts):
            rng.shuffle(rng.choice([p for p in parts if len(p) > 1]))
        elif where:
            i, k = rng.choice(where)
            batch = parts[i][k]
            cls = batch[0]
            size = len(inst.classes[cls].jobs) if 0 <= cls < inst.c else 9
            pairs = len(batch) > 3
            if what == 0:  # shift a start or a duration
                f = rng.choice([1, 2] + ([_pair_at(rng, batch) + 1] if pairs else []))
                batch[f] += rng.choice([-2, -1, 1, 2]) * rng.choice([1, sched.scale])
            elif what == 1:  # change the class or a job id (-1 turns a piece into idle time)
                if pairs and rng.random() < 0.5:
                    batch[_pair_at(rng, batch)] = rng.choice([-1, -2, 0, size, rng.randrange(size)])
                else:
                    batch[0] = rng.choice([-1, inst.c, rng.randrange(inst.c)])
            elif what == 2:  # idle time, anywhere from after the setup to the end
                at = _pair_at(rng, batch, trailing=True)
                batch[at:at] = [-1, rng.choice([1, 2, sched.scale, 0, -1])]
            elif what == 3:  # a setup length
                if 0 <= cls < inst.c:
                    s = inst.classes[cls].setup * sched.scale
                    batch[2] = rng.choice([0, s - 1, s + 1, 2 * s])
            elif what == 13:  # a run one job longer or shorter
                if pairs and 0 <= cls < inst.c:
                    at = _pair_at(rng, batch) + 1
                    job, dur = batch[at - 1], batch[at]
                    durs = [t * sched.scale for t in inst.classes[cls].jobs]
                    while 0 <= job < size - 1 and dur > durs[job]:  # to the run's last job
                        dur -= durs[job]
                        job += 1
                    if not 0 <= job < size:
                        job = rng.randrange(size)
                    # the job after it (or it again, at the class's end), or it
                    longer = rng.random() < 0.5
                    batch[at] += durs[min(job + 1, size - 1)] if longer else -durs[job]
                    runs["longer" if longer else "shorter"] += 1
            elif what in (4, 5, 6):  # duplicate, delete or move the batch
                if what != 4:
                    del parts[i][k]
                if what != 5:
                    dest = parts[rng.randrange(len(parts))]
                    dest.insert(rng.randrange(len(dest) + 1), list(batch))
            elif pairs:  # duplicate, delete or move a pair to any batch
                at = _pair_at(rng, batch)
                pair = batch[at:at + 2]
                if what != 7:
                    del batch[at:at + 2]
                if what != 8:
                    j, h = rng.choice(where)
                    dest = parts[j][h] if h < len(parts[j]) else batch
                    at = _pair_at(rng, dest, trailing=True)
                    dest[at:at] = pair
    parts = list(map(flat_row, parts))
    return Schedule(m=sched.m, machines=parts[:n_machines],
                    compressed=list(zip(parts[n_machines:], mults)), scale=sched.scale)


def _as_fractions(sched: Schedule, scale: int) -> Schedule:
    """The same times as Fractions on another scale, as a hand-built schedule
    may hold them: each batch's start and every length."""
    def conv(row):
        return flat_row([Fraction(x * scale, sched.scale) if k == 1 or k and k % 2 == 0 else x
                         for k, x in enumerate(b)] for b in batch_list(row))
    return Schedule(
        m=sched.m,
        machines=[conv(row) for row in sched.machines],
        compressed=[(conv(row), mult) for row, mult in sched.compressed],
        scale=scale,
    )


def _walk(row: list) -> list:
    """The row's batches in the order the verifier reads them."""
    batches = batch_list(row)
    starts = [b[1] for b in batches]
    if all(a < b for a, b in zip(starts, starts[1:])):
        return batches
    return sorted(batches, key=itemgetter(1, 2))


def _same_reading(inst: Instance, sched: Schedule) -> bool:
    """Whether the verifier and the reference read the same placements in
    the same order: every batch has a known class, positive lengths (setup,
    pieces and idle time) and no idle pair last, and in a row of positive
    multiplicity no batch starts before the one before it ends."""
    for row, mult in [(row, 1) for row in sched.machines] + sched.compressed:
        end = None
        for b in _walk(row) if mult >= 1 else batch_list(row):
            if not 0 <= b[0] < inst.c or min(b[2::2]) <= 0 or len(b) > 3 and b[-2] == -1:
                return False
            if mult >= 1:
                if end is not None and b[1] < end:
                    return False
                end = b[1] + sum(b[2::2])
    return True


def _unsorted_rows(sched: Schedule) -> Counter:
    """The rows of positive multiplicity the verifier sorts, by why: batch
    starts out of order, or in order with two equal."""
    rows = sched.machines + [row for row, mult in sched.compressed if mult >= 1]
    out: Counter = Counter()
    for row in rows:
        starts = [b[1] for b in batch_list(row)]
        if starts != sorted(starts):
            out["shuffled"] += 1
        elif len(set(starts)) < len(starts):
            out["equal starts"] += 1
    return out


def _schedule_wide(report) -> list:
    """The violations of the whole schedule but the makespan's: the machine
    budget, job totals, split and overlapping jobs."""
    return [v for v in report.violations if v.machine == "-" and v.rule != "f"]


def _rows_flagged(report) -> set:
    return {v.machine for v in report.violations if v.machine != "-"}


def test_verify_equals_reference_verifier():
    # about 5 s: 3,000+ schedules, each verified for every variant at and
    # just under its makespan
    rng = random.Random(20260509)
    rules: Counter = Counter()
    same_rules: Counter = Counter()
    sorted_rows: Counter = Counter()
    schedules = same = 0
    mutated_runs: Counter = Counter()  # run mutations, and pairs that span more than one job
    while schedules < 3000:
        inst = random_instance(rng, max_m=12, max_c=4, max_jobs=5, max_val=12)
        for built_as in Variant:
            built = variant_ops(built_as).search(inst).schedule
            family = [built, _mutate(rng, inst, built, mutated_runs),
                      _mutate(rng, inst, built, mutated_runs)]
            if rng.random() < 0.25:
                frac = _as_fractions(built, rng.choice([1, 3]))
                family += [frac, _mutate(rng, inst, frac, mutated_runs)]
            for at, sched in enumerate(family):
                schedules += 1
                sorted_rows += _unsorted_rows(sched)
                view = tuple_view(sched, inst)
                if at % 3:  # a mutated schedule
                    mutated_runs["pairs"] += run_pairs(sched, inst)
                same_reading = _same_reading(inst, sched)
                same += same_reading
                ms = reference_verify(inst, view, built_as, Fraction(10**9)).makespan
                bounds = (ms, ms - Fraction(1, 2 * sched.scale))  # at and just under
                for variant in Variant:
                    for bound in bounds:
                        want = reference_verify(inst, view, variant, bound)
                        got = verify_schedule(inst, sched, variant, bound)
                        rules.update(v.rule for v in got.violations)
                        if same_reading:
                            assert got == want, (inst, sched, variant, bound)
                            same_rules.update(v.rule for v in got.violations)
                            continue
                        # batches overlap, a length is not positive, a class
                        # unknown or idle time last: the reference may miss
                        # what the batches say and count a row's faults
                        # another way, but never flags a row the verifier
                        # passes, and the schedule-wide rules agree
                        assert _schedule_wide(got) == _schedule_wide(want), (inst, sched, variant)
                        assert _rows_flagged(want) <= _rows_flagged(got), (inst, sched, variant)
                        assert want.ok or not got.ok, (inst, sched, variant, bound)
    assert all(rules[r] >= 20 for r in "abcdefs"), rules
    assert all(same_rules[r] >= 20 for r in "abcdefs"), same_rules
    assert same >= 1500 and schedules - same >= 600, (same, schedules)
    assert mutated_runs["pairs"] >= 500, mutated_runs
    assert mutated_runs["longer"] >= 100 and mutated_runs["shorter"] >= 100, mutated_runs
    assert sorted_rows["shuffled"] >= 200 and sorted_rows["equal starts"] >= 200, sorted_rows
