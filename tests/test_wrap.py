import random
from collections import Counter
from itertools import accumulate
from types import SimpleNamespace
from fractions import Fraction as F

import pytest

from batchsched import preemptive, splittable
from batchsched.core import CapacityError, Instance, JobClass, Schedule, Variant, verify_schedule
from batchsched.search import variant_ops
from batchsched.wrap import Batch, Builder, Gap, class_batch, run_wrap
from oracle import expand, expand_runs, placements, reference_run_wrap, run_pairs


def durations(b):
    """A batch's item durations: a whole class's from its prefix sums."""
    if b.sums is None:
        return b.jobs[1::2]
    return tuple((y - x) * b.scale for x, y in zip(b.sums, b.sums[1:]))


def classes_of(seq):
    """What `expand_runs` reads of an instance, from a wrap sequence whose
    classes are 0, 1, ... in order: each class's job durations."""
    return SimpleNamespace(classes=[JobClass(b.setup, durations(b)) for b in seq])


def flat(sched, seq):
    """(machine, cls, start, dur, job) of every setup (job -1) and piece,
    each machine's in start order."""
    inst = classes_of(seq)
    return [(u, *p) for u, mach in enumerate(expand(sched, inst).machines)
            for p in placements(Schedule(1, [mach]), inst)]


def batch(cls, s, durs):
    return Batch(cls=cls, setup=F(s), jobs=tuple(x for j, d in enumerate(durs) for x in (j, F(d))))


def load(seq):
    return sum(b.setup + sum(durations(b)) for b in seq)


def wrap_plain(seq, gaps, m):
    """Wrap into explicit gaps: the schedule and where its content ends."""
    builder = Builder(m)
    res = run_wrap(builder, seq, gaps)
    return builder.finalize(), res


def wrap_run(seq, gap, count):
    """Wrap into `count` identical gaps given as one run."""
    builder = Builder(count)
    res = run_wrap(builder, seq, [Gap(0, *gap, count)])
    return builder.finalize(), res


def test_wrap_two_gap_example():
    seq = [batch(0, 2, [3, 3])]
    tmpl = [Gap(1, F(0), F(6)), Gap(2, F(2), F(6))]
    sched, res = wrap_plain(seq, tmpl, 3)
    assert flat(sched, seq) == [
        (0, 0, F(0), F(2), -1),
        (0, 0, F(2), F(3), 0),
        (0, 0, F(5), F(1), 1),
        (1, 0, F(0), F(2), -1),
        (1, 0, F(2), F(2), 1),
    ]


def test_wrap_setup_exactly_fills_gap():
    # the first batch ends level with the gap: its successor starts in the
    # next gap, setup moved below the gap start
    seq = [batch(0, 2, [2]), batch(1, 1, [2])]
    tmpl = [Gap(0, F(0), F(4)), Gap(1, F(2), F(8))]
    sched, _ = wrap_plain(seq, tmpl, 2)
    assert flat(sched, seq) == [
        (0, 0, F(0), F(2), -1),
        (0, 0, F(2), F(2), 0),
        (1, 1, F(1), F(1), -1),
        (1, 1, F(2), F(2), 0),
    ]


def test_wrap_long_job_split_across_four_gaps():
    seq = [batch(0, 1, [10])]
    tmpl = [Gap(k, F(0 if k == 0 else 1), F(4)) for k in range(4)]
    sched, _ = wrap_plain(seq, tmpl, 5)
    got = flat(sched, seq)
    durs = [e[3] for e in got if e[4] != -1]
    assert durs == [F(3), F(3), F(3), F(1)]
    assert sum(durs) == 10
    # a fresh setup ends exactly at each later gap start
    setups = [e for e in got if e[4] == -1]
    assert [(e[0], e[2]) for e in setups] == [(0, F(0)), (1, F(0)), (2, F(0)), (3, F(0))]


def test_wrap_capacity_error():
    seq = [batch(0, 1, [10])]
    with pytest.raises(CapacityError):
        wrap_plain(seq, [Gap(0, F(0), F(4))], 1)


# -- templates of gap runs ----------------------------------------------------


@pytest.mark.parametrize("second", [0, 1, 2])
def test_runs_overlapping_machines_rejected(second):
    # the first run holds machines 0-2, so the next may start at 3 at the
    # earliest
    with pytest.raises(ValueError):
        wrap_plain([batch(0, 1, [1])], [Gap(0, F(1), F(3), 3), Gap(second, F(1), F(3))], 4)
    wrap_plain([batch(0, 1, [1])], [Gap(0, F(1), F(3), 3), Gap(3, F(1), F(3))], 4)


def test_run_negative_count_rejected():
    with pytest.raises(ValueError):
        Gap(0, F(1), F(3), -1)


@pytest.mark.parametrize("runs", [[], [Gap(0, F(1), F(3), 0)],
                                  [Gap(0, F(1), F(3), 0), Gap(0, F(0), F(9), 0)]])
def test_template_of_empty_runs_is_out_of_capacity(runs):
    with pytest.raises(CapacityError):
        wrap_plain([batch(0, 1, [1])], runs, 1)


def test_count_zero_run_skipped():
    # an empty run holds no machine, so the run after it may reuse its id
    seq = [batch(0, 1, [3, 4])]
    runs = [Gap(0, F(1), F(4)), Gap(1, F(2), F(9), 0), Gap(1, F(1), F(6), 2)]
    got, res = wrap_plain(seq, runs, 3)
    want, want_res = wrap_plain(seq, [Gap(0, F(1), F(4)), Gap(1, F(1), F(6)),
                                      Gap(2, F(1), F(6))], 3)
    assert flat(got, seq) == flat(want, seq)
    assert (res.last_machine, res.last_fill) == (want_res.last_machine, want_res.last_fill)


@pytest.mark.parametrize("variant, inst, guess", [
    # m = 1: two_approx_split's run of identical gaps is empty
    (Variant.SPLITTABLE, Instance(1, (JobClass(2, (3, 4)),)), None),
    # beta = 1: the expensive class has no identical gaps after its first
    (Variant.SPLITTABLE, Instance(2, (JobClass(10, (3,)), JobClass(1, (2, 2)))), F(12)),
    # gamma = 2: the heavy class has no half gaps between its first and last
    (Variant.PREEMPTIVE, Instance(4, (JobClass(4, (19, 9)), JobClass(10, (3,)),
                                      JobClass(16, (3, 12, 3, 14)))), F(30)),
])
def test_builds_pass_count_zero_runs(monkeypatch, variant, inst, guess):
    templates = []
    for mod in (splittable, preemptive):
        def recording(builder, seq, gaps, *args, _real=mod.run_wrap, **kwargs):
            templates.append(gaps)
            return _real(builder, seq, gaps, *args, **kwargs)

        monkeypatch.setattr(mod, "run_wrap", recording)
    if guess is None:
        sched, makespan = splittable.two_approx_split(inst)
        assert makespan == inst.total_load
        bound = makespan
    else:
        d = variant_ops(variant).dual(inst, guess)
        assert d.accepted
        sched, bound = d.schedule, F(3, 2) * guess
    assert any(g.count == 0 for g in templates[0])
    assert verify_schedule(inst, sched, variant, bound).ok


# A piece starting at time t inside a gap: the gap opens at t - 1, under the
# piece's class setup of length 1.


def test_split_piece_fits():
    _, res = wrap_plain([batch(0, 1, [1])], [Gap(0, F(1), F(6))], 1)
    assert (res.last_machine, res.last_fill) == (0, F(3))


def test_split_piece_cut_once():
    tmpl = [Gap(0, F(3), F(6)), Gap(1, F(2), F(8))]
    seq = [batch(0, 1, [5])]
    sched, res = wrap_plain(seq, tmpl, 2)
    assert (res.last_machine, res.last_fill) == (1, F(5))
    got = flat(sched, seq)
    assert (0, 0, F(4), F(2), 0) in got
    assert (1, 0, F(1), F(1), -1) in got  # placed right below the next gap
    assert (1, 0, F(2), F(3), 0) in got


def test_split_exact_fit_no_cut():
    tmpl = [Gap(0, F(3), F(6)), Gap(1, F(2), F(8))]
    seq = [batch(0, 1, [2])]
    sched, res = wrap_plain(seq, tmpl, 2)
    assert (res.last_machine, res.last_fill) == (0, F(6))
    assert flat(sched, seq) == [(0, 0, F(3), F(1), -1), (0, 0, F(4), F(2), 0)]


def test_compressed_single_long_job():
    seq = [batch(0, 1, [10])]
    sched, _ = wrap_run(seq, (F(1), F(2)), 12)
    assert len(sched.compressed) <= 3 + 1
    assert sched.machine_count() <= 12
    plain, _ = wrap_plain(seq, [Gap(k, F(1), F(2)) for k in range(12)], 12)
    assert expand(sched, classes_of(seq)).machines == plain.machines


def test_compressed_no_crossing_matches_plain():
    seq = [batch(0, 1, [1]), batch(1, 2, [1, 1])]
    sched, _ = wrap_run(seq, (F(2), F(9)), 3)
    plain, _ = wrap_plain(seq, [Gap(k, F(2), F(9)) for k in range(3)], 3)
    assert expand(sched, classes_of(seq)).machines == plain.machines
    assert sched.compressed == []


def test_compressed_exact_capacity():
    seq = [batch(0, 2, [6])]  # load 8 = 2 gaps of height 4 exactly
    sched, _ = wrap_run(seq, (F(2), F(6)), 2)
    inst = classes_of(seq)
    total = sum(dur for _, _, dur, job in placements(expand(sched, inst), inst) if job != -1)
    assert total == 6


def machine_multiset(sched):
    return Counter(map(tuple, sched.machines))


@pytest.mark.parametrize("dur, mult", [(4, None), (5, None), (6, 2), (7, 2)])
def test_bulk_needs_two_full_run_gaps(dur, mult):
    # gaps (1, 3) under a setup of 1: the job's head fills the first gap to
    # its top, so a remainder of 3 or 4 covers one full gap (rows only) and
    # one of 5 or 6 covers two (a single config of multiplicity 2); the last
    # gap, full or not, is always a row
    seq = [batch(0, 1, [dur])]
    sched, res = wrap_run(seq, (F(1), F(3)), 5)
    plain, plain_res = wrap_plain(seq, [Gap(k, F(1), F(3)) for k in range(5)], 5)
    if mult is None:
        assert sched.compressed == []
    else:
        assert sched.compressed == [([0, F(0), F(1), 1, 0, F(2)], mult)]
    assert machine_multiset(expand(sched, classes_of(seq))) == machine_multiset(plain)
    assert (res.last_machine, res.last_fill) == (plain_res.last_machine, plain_res.last_fill)


def random_case(rng):
    k = rng.randint(1, 4)
    seq = []
    smax = 0
    for ci in range(k):
        s = rng.randint(1, 4)
        smax = max(smax, s)
        durs = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        seq.append(batch(ci, s, durs))
    # 1-3 runs of 0-8 gaps each, on increasing machines with holes between
    # them, each above its own floor that fits every setup; heights between
    # half and twice the mean a gap needs, so some templates are too small
    counts = [rng.randint(0, 8) for _ in range(rng.randint(1, 3))]
    mean = load(seq) / max(1, sum(counts))
    runs, u = [], 0
    for count in counts:
        a = F(smax + rng.randint(0, 2))
        runs.append(Gap(u, a, a + mean * F(rng.randint(2, 8), 4), count))
        u += count + rng.randint(0, 2)
    return seq, runs, u


def test_compressed_matches_plain_on_random_cases():
    # each template against the same gaps given one per run
    rng = random.Random(20240817)
    wrapped = configs = 0
    for _ in range(400):
        seq, runs, m = random_case(rng)
        gaps = [Gap(g.machine + r, g.open, g.close) for g in runs for r in range(g.count)]
        builder = Builder(m)
        try:
            res = run_wrap(builder, seq, runs)
        except CapacityError:
            with pytest.raises(CapacityError):
                wrap_plain(seq, gaps, m)
            continue
        comp = builder.finalize()
        plain, plain_res = wrap_plain(seq, gaps, m)
        wrapped += 1
        configs += len(comp.compressed)
        # equal as machine multisets: expand lists rows before copies
        assert machine_multiset(expand(comp, classes_of(seq))) == machine_multiset(plain)
        assert (res.last_machine, res.last_fill) == (plain_res.last_machine, plain_res.last_fill)
        assert all(len(cfg) == 6 and cfg[3] == 1 and mult >= 2 for cfg, mult in comp.compressed)
        # each config covers gaps of one run, short of its last, and none of
        # them is a machine row as well
        for base, cfg, mult in builder._configs:
            assert any(g.machine <= base and base + mult < g.machine + g.count
                       and cfg[1] + cfg[2] == g.open and cfg[5] == g.close - g.open
                       for g in runs)
            assert not set(range(base, base + mult)) & set(builder.rows)
        assert all(comp.machines)  # a row exists only with a placement on it
        # conservation: every job placed for exactly its duration
        want = {}
        for b in seq:
            for job, d in zip(b.jobs[::2], b.jobs[1::2]):
                want[(b.cls, job)] = d
        got = {}
        for cls, _, dur, job in placements(plain, classes_of(seq)):
            if job != -1:
                got[(cls, job)] = got.get((cls, job), F(0)) + dur
        assert got == want
        # work bound: placements <= |Q| + 2 |template|
        q_len = sum(1 + len(b.jobs) // 2 for b in seq)
        assert plain.placement_count() <= q_len + 2 * len(gaps)
    assert wrapped >= 250 and configs >= 50, (wrapped, configs)


def test_wrap_soundness_rules_on_random_templates():
    # whenever the load fits and every later gap has the largest setup's
    # room below it, the output obeys the machine rules: no overlap, every
    # class run behind a completed setup of its class
    rng = random.Random(90210)
    for _ in range(200):
        k = rng.randint(1, 4)
        seq = []
        smax = 0
        setups = []
        jobs_by_cls = []
        for ci in range(k):
            s = rng.randint(1, 5)
            smax = max(smax, s)
            durs = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
            seq.append(batch(ci, s, durs))
            setups.append(s)
            jobs_by_cls.append(tuple(durs))
        need = load(seq)
        gaps = []
        a = F(smax)
        remaining = need + rng.randint(0, 6)
        u = 0
        while remaining > 0:
            h = F(rng.randint(1, 12))
            h = min(h, remaining) if remaining - h < 1 else h
            gaps.append(Gap(u, a, a + h))
            remaining -= h
            u += 1
        capacity = sum(g.close - g.open for g in gaps)
        if capacity < need:
            gaps.append(Gap(u, a, a + need - capacity))
            u += 1
        sched, _ = wrap_plain(seq, gaps, u)
        inst = Instance(m=u, classes=tuple(JobClass(s, j) for s, j in zip(setups, jobs_by_cls)))
        rep = verify_schedule(inst, sched, Variant.SPLITTABLE, F(10**9))
        assert rep.ok, [str(v) for v in rep.violations][:4]


def test_run_wrap_int_gaps_past_float_precision():
    # int times far beyond 2**53: the remainder 5H + 1 spans ceil((5H+1)/H) - 1
    # = 5 whole gaps of the run; a float division would read the ratio as 5.0
    # and emit one bulk gap too few
    H = 2**61 + 1
    s = 2**60 + 3
    builder = Builder(9)
    res = run_wrap(builder, [Batch(0, s, (0, 6 * H + 1))],
                   [Gap(0, 0, s + H), Gap(1, s, s + H, 8)])
    sched = builder.finalize()
    assert (res.last_machine, res.last_fill, res.placed) == (6, s + 1, 6)
    assert sched.machines == [[0, 0, s, 1, 0, H], [0, 0, s, 1, 0, 1]]
    assert sched.compressed == [([0, 0, s, 1, 0, H], 5)]
    assert all(type(start) is int and type(dur) is int
               for _, start, dur, _ in placements(sched, SimpleNamespace(
                   classes=[JobClass(s, (6 * H + 1,))])))


def _differential_case(rng):
    """A random (sequence, template, setups_below) for the wrap differential
    test, and where in a batch a non-positive duration was put (None if
    nowhere).  Batches of up to 8 jobs, so runs of several jobs fill a gap;
    in half of the cases they are whole classes, given by their prefix sums
    (`JobClass.sums`: int jobs of at least 1, on a time scale of 1 to 3) and
    written one pair per run; a fifth of the cases use Fraction times in
    setups and gaps, and in the jobs of batches that are not whole, which
    alone take the non-positive durations; some jobs are long enough to
    cover whole gaps of a run."""
    frac = rng.random() < 0.2
    whole = rng.random() < 0.5

    def num(lo, hi, frac=frac):
        return F(rng.randint(lo * 3, hi * 3), 3) if frac else rng.randint(lo, hi)

    seq, smax = [], 0
    for ci in range(rng.randint(1, 4)):
        s = num(1, 4)
        smax = max(smax, s)
        durs = [num(1, 30, frac and not whole) if rng.random() < 0.1 else num(1, 6, frac and not whole)
                for _ in range(rng.randint(1, 8))]
        if whole:
            seq.append(Batch(ci, s, sums=tuple(accumulate(durs, initial=0)), scale=rng.randint(1, 3)))
        else:
            seq.append(Batch(ci, s, tuple(x for j, d in enumerate(durs) for x in (j, d))))
    bad = None
    if not whole and rng.random() < 0.12:
        b = rng.randrange(len(seq))
        jobs = list(seq[b].jobs)
        k = len(jobs) // 2
        bad = rng.choice(["first", "middle", "last"] if k >= 3 else ["first", "last"])
        pos = {"first": 0, "middle": rng.randint(1, k - 2) if k >= 3 else 0, "last": k - 1}[bad]
        jobs[2 * pos + 1] = -jobs[2 * pos + 1] if rng.random() < 0.5 else 0
        seq[b] = Batch(seq[b].cls, seq[b].setup, tuple(jobs))
    counts = [rng.randint(0, 8) for _ in range(rng.randint(1, 3))]
    mean = load(seq) / max(1, sum(counts))
    runs, u = [], 0
    for count in counts:
        a = smax + num(0, 2)
        h = max(mean * F(rng.randint(2, 8), 4), F(1))
        if not frac:
            h = max(1, round(h))
        runs.append(Gap(u, a, a + h, count))
        u += count + rng.randint(0, 2)
    return seq, runs, rng.random() < 0.3, bad


def _wrap_outcome(wrap, seq, runs, below, m):
    builder = Builder(m)
    try:
        res = wrap(builder, seq, runs, below)
    except (ValueError, CapacityError) as exc:
        return type(exc), str(exc)
    return builder.finalize(), res


def test_run_wrap_equals_the_per_item_reference():
    # the run-at-a-time wrap against the one that placed every job on its
    # own: equal schedules, with the runs of whole classes expanded to one
    # pair per job, and equal WrapResults, or the same error
    rng = random.Random(2222)
    events, kinds = Counter(), Counter()
    for _ in range(6_000):
        seq, runs, below, bad = _differential_case(rng)
        m = runs[-1].machine + runs[-1].count + 1
        want = _wrap_outcome(
            lambda b, s, g, below: reference_run_wrap(b, s, g, below, events), seq, runs, below, m)
        got = _wrap_outcome(run_wrap, seq, runs, below, m)
        if isinstance(got[0], Schedule):
            kinds["run pairs"] += run_pairs(got[0], classes_of(seq))
            got = (expand_runs(got[0], classes_of(seq)), got[1])
        assert got == want, (seq, runs, below)
        kinds["fraction" if any(type(b.setup) is F for b in seq) else "int"] += 1
        kinds[want[0].__name__ if isinstance(want[0], type) else "wrapped"] += 1
        if bad is not None and want[0] is ValueError:
            kinds[f"non-positive {bad}"] += 1
    assert min(events[e] for e in ("job ends on a close", "setup fills a gap", "setup below",
                                   "bulk full gaps")) >= 100, events
    assert kinds["wrapped"] >= 3_000 and kinds["fraction"] >= 1_000, kinds
    assert min(kinds[f"non-positive {p}"] for p in ("first", "middle", "last")) >= 20, kinds
    assert kinds["run pairs"] >= 3_000, kinds


def test_class_batch_runs_and_heads():
    # class 0's jobs of 2, 3, 4 and 5 in gaps [0, 7), then [1, 7) above a
    # setup of 1: jobs 0 and 1 and the head 1 of job 2 are one pair; the
    # next gap holds job 2's tail 3 and the head 3 of job 3, a run of no
    # whole job; the last one job 3's tail
    inst = Instance(3, (JobClass(1, (2, 3, 4, 5)),))
    builder = Builder(3)
    res = run_wrap(builder, [class_batch(inst, 0, 1)], [Gap(0, 0, 7), Gap(1, 1, 7, 2)])
    sched = builder.finalize()
    assert sched.machines == [[0, 0, 1, 1, 0, 6], [0, 0, 1, 2, 2, 3, 3, 3], [0, 0, 1, 1, 3, 2]]
    assert res.placed == 3 + 6
    assert expand_runs(sched, inst).machines == [
        [0, 0, 1, 3, 0, 2, 1, 3, 2, 1], [0, 0, 1, 2, 2, 3, 3, 3], [0, 0, 1, 1, 3, 2]]
    assert verify_schedule(inst, sched, Variant.PREEMPTIVE, F(7)).ok
