"""Golden output: the emitted schedules of a fixed corpus, pinned by two
sha256s (their content in the schedule file format before integer rows, less
piece numbers, with runs expanded to one pair per job, and their wire JSON
now), the probe lists of its searches, pinned by a third, plus the
invariants of the integer time scale, of the flat rows and of the wire
round trip on the same solves, and the files earlier releases wrote (one
pair per job) read back to the same verdict; every built row in start
order, none empty, with no setup alone from the non-preemptive dual or
next fit; and every build's recorded end where its rows end and where the
verifier finds the makespan, on the corpus, on larger and setup-dominated
instances and on drawn instances at drawn guesses."""

import hashlib
import json
import random
import sys
from fractions import Fraction as F
from functools import cache
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsched.cli import emit_schedule, generate_instance, parse_schedule
from batchsched.core import Instance, JobClass, Variant, lower_bound_tmin, verify_schedule
from batchsched.preemptive import _pmtn_plan
from batchsched.search import solve, variant_ops

from oracle import batch_list, expand_runs, records_its_end
from test_acceptance import _corpus_setups, _scaling_instance
from test_preemptive import knapsack_heavy_instance

# sha256 over the sort_keys JSON of every schedule below, in order, in the
# file format before integer rows (reduced "p/q" times) without its piece
# numbers, one placement per job piece
GOLDEN_SHA256 = "a29695f23b5fe04db3332e4024b1f150133e1eb60c16cef95bbf2d473e2f2dc1"
# the same over emit_schedule's flat rows on the integer scale, one pair
# per run of whole jobs (the list-per-batch files' digest was d6e4c596...;
# each batch given its count after the setup, they hash to this one)
WIRE_SHA256 = "1073cd9775c7179fb6d8f408d8ab202edfb06b9e0a836696bb32d1078d6c10c1"
# the same with the runs expanded to one pair per job (f1cb61c9... in the
# list-per-batch files, mapped the same way)
PER_JOB_WIRE_SHA256 = "07c020fb6b2a69ee5529729f8908eba5fdd47aa7055a61a99ac919527756d966"
# the same over (variant, algo, [(guess, accepted), ...]) of every jump and
# eps search, in probe order
PROBES_SHA256 = "22d78a9b92941bf1df499d0be11e82182472bb14ee939a58e204ace748950211"


def corpus():
    rng = random.Random(606)
    profiles = ("uniform", "few-expensive", "many-small")
    for k in range(300):
        yield generate_instance(seed=k, machines=rng.randint(1, 10), classes=rng.randint(1, 6),
                                profile=profiles[k % 3])
    rng = random.Random(607)
    for _ in range(50):
        yield knapsack_heavy_instance(rng)


@cache
def solves() -> tuple:
    """(instance, variant, algo, result, bound) for jump, eps 1/64 and the
    2-approximation of every variant on the corpus, solved once per session."""
    return tuple(_solves())


def _solves():
    for inst in corpus():
        for variant in Variant:
            r = solve(inst, variant, "two-approx")
            yield inst, variant, "two-approx", r, 2 * r.lower_bound
            r = solve(inst, variant, "jump")
            yield inst, variant, "jump", r, F(3, 2) * r.guess
            r = solve(inst, variant, "eps", eps=F(1, 64))
            yield inst, variant, "eps", r, F(3, 2) * r.guess


def old_format(raw: dict, inst) -> dict:
    """An emitted schedule in the file format before integer rows: a dict per
    placement with reduced "p/q" times and no scale, and no piece numbers.
    Runs expand to one pair per job (`expand_runs`), then each batch to its
    setup, then its pieces from where the setup ends, one after the other;
    an idle pair only moves the time on."""
    scale = raw["scale"]
    raw = emit_schedule(expand_runs(parse_schedule(raw, inst.m), inst))

    def text(t):
        x = F(t, scale)
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)

    def placements(row):
        out = []
        for cls, start, setup, *pairs in batch_list(row):
            out.append({"kind": "setup", "class": cls, "start": text(start), "dur": text(setup)})
            t = start + setup
            for job, dur in zip(pairs[::2], pairs[1::2]):
                if job != -1:
                    out.append({"kind": "piece", "class": cls, "job": job,
                                "start": text(t), "dur": text(dur)})
                t += dur
        return out

    return {
        "makespan": raw["makespan"],
        "machines": [placements(mach) for mach in raw["machines"]],
        "compressed": [{"config": placements(entry["config"]), "mult": entry["mult"]}
                       for entry in raw["compressed"]],
    }


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def over_the_wire(sched, m):
    """emit -> dumps -> loads -> parse, with a profiler that records every
    call into fractions.py on the way."""
    calls = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.endswith("fractions.py"):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        raw = json.loads(json.dumps(emit_schedule(sched), sort_keys=True))
        back = parse_schedule(raw, m)
    finally:
        sys.setprofile(None)
    return raw, back, calls


def test_golden_schedules_on_the_integer_scale():
    rows = solves()
    assert len(rows) == 350 * 9
    split_shares = tmin_rejected = 0
    old_texts, wire_texts, per_job_texts, probe_texts = [], [], [], []
    for inst, variant, algo, r, bound in rows:
        sched = r.schedule
        # flat rows of exact ints, one list per machine or configuration and
        # none per batch, tiled by their counts, and no idle pair
        assert all(type(row) is list and set(map(type, row)) <= {int}
                   and all(-1 not in b[3::2] for b in batch_list(row))
                   for row in sched.rows()), (inst, variant, algo)
        # the only compressed part a build writes: full gaps of one run,
        # one batch [cls, open - s, s, 1, job, height]
        assert all(mult >= 2 and len(config) == 6 and config[3] == 1
                   for config, mult in sched.compressed), (inst, variant, algo)
        raw, back, fraction_calls = over_the_wire(sched, inst.m)
        # the file's rows come back as the rows that were written
        assert (back.m, back.machines, back.compressed, back.scale) == (
            sched.m, sched.machines, sched.compressed, sched.scale), (inst, variant, algo)
        assert not fraction_calls, (inst, variant, algo, fraction_calls)
        mem = verify_schedule(inst, sched, variant, bound)
        wire = verify_schedule(inst, back, variant, bound)
        assert mem.ok and mem == wire, (inst, variant, algo)
        assert type(r.makespan) is F and r.makespan == mem.makespan, (inst, variant, algo)
        assert records_its_end(sched) and sched.end() == mem.makespan * sched.scale, \
            (inst, variant, algo)
        assert raw["makespan"] == str(r.makespan)
        old_texts.append(json.dumps(old_format(raw, inst), sort_keys=True))
        # the file an earlier release wrote, one pair per job, reads back to
        # the same report
        per_job = json.loads(json.dumps(emit_schedule(expand_runs(sched, inst)), sort_keys=True))
        per_job_texts.append(json.dumps(per_job, sort_keys=True))
        assert verify_schedule(inst, parse_schedule(per_job, inst.m), variant, bound) == mem, \
            (inst, variant, algo)
        wire_texts.append(json.dumps(raw, sort_keys=True))
        if algo != "two-approx":
            probe_texts.append(json.dumps([variant.value, algo,
                                           [[str(g), ok] for g, ok in r.probes]]))
            # the pmtn jump walk past a rejected T_min
            tmin_rejected += (variant is Variant.PREEMPTIVE and algo == "jump"
                              and [ok for _, ok in r.probes[:1]] == [False])
        if variant is Variant.PREEMPTIVE and algo != "two-approx":
            sol = _pmtn_plan(inst, *r.guess.as_integer_ratio()).knapsack
            if sol is not None and sol.split_item is not None:
                split_shares += sol.x[sol.split_item].denominator > 1
    assert split_shares >= 1 and tmin_rejected >= 1
    # every emitted time is the same rational as before integer rows
    assert digest(old_texts) == GOLDEN_SHA256
    assert digest(wire_texts) == WIRE_SHA256
    assert digest(per_job_texts) == PER_JOB_WIRE_SHA256
    assert digest(probe_texts) == PROBES_SHA256


def test_built_rows_in_start_order_without_idle_setups():
    # Every build writes each row's batches in strictly increasing starts
    # and writes no empty row; the non-preemptive dual and next fit (the
    # 2-approximation of pmtn and nonp) decide each cut before they write a
    # batch, so none of their batches is a setup alone.
    multi = 0
    for inst, variant, algo, r, _ in solves():
        rows = r.schedule.rows()
        for row in rows:
            starts = [b[1] for b in batch_list(row)]
            assert starts and all(map(lt, starts, starts[1:])), (inst, variant, algo, row)
            multi += len(starts) > 1
        if variant is Variant.NONPREEMPTIVE or (variant, algo) == (Variant.PREEMPTIVE, "two-approx"):
            assert all(len(b) > 3 for row in rows for b in batch_list(row)), (inst, variant, algo)
    assert multi >= 1_000, multi


def _end_cases():
    """(instance, variant, algo) past the corpus: criterion 9's instance at
    n = 10k, a sized knapsack-heavy one, and setup-dominated ones."""
    for inst in (_scaling_instance(10_000, 1), knapsack_heavy_instance(random.Random(34), 300)):
        for variant in Variant:
            for algo in ("two-approx", "jump", "eps"):
                yield inst, variant, algo
    for inst in _corpus_setups(34)[:200]:
        for variant in Variant:
            yield inst, variant, "jump"


def test_builds_record_where_their_rows_end():
    # the recorded end is the rows' end and the makespan the verifier finds
    cases = 0
    for inst, variant, algo in _end_cases():
        r = solve(inst, variant, algo)
        sched = r.schedule
        bound = 2 * r.lower_bound if algo == "two-approx" else F(3, 2) * r.guess
        report = verify_schedule(inst, sched, variant, bound)
        assert report.ok and records_its_end(sched), (inst, variant, algo)
        assert sched.end() == report.makespan * sched.scale == r.makespan * sched.scale
        cases += 1
    assert cases == 2 * 9 + 200 * 3


_INSTANCES = st.builds(
    Instance, m=st.integers(1, 6),
    classes=st.lists(st.builds(JobClass, setup=st.integers(1, 40),
                               jobs=st.lists(st.integers(1, 40), min_size=1, max_size=5).map(tuple)),
                     min_size=1, max_size=5).map(tuple))


@pytest.mark.parametrize("variant", list(Variant))
@settings(max_examples=150, deadline=None, database=None)
@given(inst=_INSTANCES, step=st.integers(0, 16))
def test_each_dual_records_where_its_rows_end(variant, inst, step):
    # the variant's dual at T_min (1 + step/16), up to 2 T_min, which it
    # accepts; a schedule it builds records the end the verifier finds
    guess = lower_bound_tmin(inst, variant) * (16 + step) / 16
    d = variant_ops(variant).dual(inst, guess)
    if d.accepted:
        report = verify_schedule(inst, d.schedule, variant, F(3, 2) * guess)
        assert report.ok and records_its_end(d.schedule)
        assert d.schedule.end() == report.makespan * d.schedule.scale
