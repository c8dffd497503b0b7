"""Golden output: the emitted schedules of a fixed corpus, pinned by two
sha256s (their content in the schedule file format before integer rows, less
piece numbers, and their wire JSON now), the probe lists of its searches,
pinned by a third, plus the invariants of the integer time scale and of the
wire round trip on the same solves."""

import hashlib
import json
import random
import sys
from fractions import Fraction as F

from batchsched.cli import _two_approx, emit_schedule, generate_instance, parse_schedule
from batchsched.core import Variant, verify_schedule
from batchsched.preemptive import _pmtn_plan
from batchsched.search import epsilon_search, variant_ops

from test_preemptive import knapsack_heavy_instance

# sha256 over the sort_keys JSON of every schedule below, in order, in the
# file format before integer rows (reduced "p/q" times) without its piece
# numbers
GOLDEN_SHA256 = "5ca65b0608364dfc70ce98d82d8dce2c6eee0334cca2c392eaffc4dae6ea0269"
# the same over emit_schedule's flat int lists on the integer scale
WIRE_SHA256 = "d832ce829c8daac8cbdd8217645ac8d90d9c022626c1aa6861647bc42f0a1bc3"
# the same over (variant, algo, [(guess, accepted), ...]) of every jump and
# eps search, in probe order
PROBES_SHA256 = "94bc18e234261919da5d367aa99d912c056182fe83efae670b63df163565a19e"


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


def old_format(raw: dict) -> dict:
    """An emitted schedule in the file format before integer rows: a dict per
    placement with reduced "p/q" times and no scale, and no piece numbers."""
    scale = raw["scale"]

    def text(t):
        x = F(t, scale)
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)

    def placements(group):
        it = iter(group)
        out = []
        for cls, start, dur, job in zip(it, it, it, it):
            p = {"kind": "piece" if job != -1 else "setup", "class": cls,
                 "start": text(start), "dur": text(dur)}
            if job != -1:
                p["job"] = job
            out.append(p)
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
    rows = list(solves())
    assert len(rows) == 350 * 9
    split_shares = tmin_rejected = 0
    old_texts, wire_texts, probe_texts = [], [], []
    for inst, variant, algo, r, bound in rows:
        sched = r.schedule
        # flat rows of exact ints, four per placement
        assert all(type(row) is list and len(row) % 4 == 0 and set(map(type, row)) <= {int}
                   for row in sched.rows()), (inst, variant, algo)
        assert type(sched.makespan()) is F and sched.makespan() == r.makespan
        # the only compressed part a build writes: full gaps of one run,
        # a setup and then one piece from where it ends
        assert all(mult >= 2 and len(config) == 8 and config[3] == -1
                   and config[7] != -1 and config[4] == config[0]
                   and config[5] == config[1] + config[2]
                   for config, mult in sched.compressed), (inst, variant, algo)
        raw, back, fraction_calls = over_the_wire(sched, inst.m)
        # the file's rows come back as the very rows that were written
        assert (back.m, back.machines, back.compressed, back.scale) == (
            sched.m, sched.machines, sched.compressed, sched.scale), (inst, variant, algo)
        assert not fraction_calls, (inst, variant, algo, fraction_calls)
        mem = verify_schedule(inst, sched, variant, bound)
        wire = verify_schedule(inst, back, variant, bound)
        assert mem.ok and mem == wire, (inst, variant, algo)
        assert raw["makespan"] == str(r.makespan)
        old_texts.append(json.dumps(old_format(raw), sort_keys=True))
        wire_texts.append(json.dumps(raw, sort_keys=True))
        if algo != "two-approx":
            probe_texts.append(json.dumps([variant.value, algo,
                                           [[str(g), ok] for g, ok in r.probes]]))
            # the pmtn jump walk past a rejected T_min
            tmin_rejected += (variant is Variant.PREEMPTIVE and algo == "jump"
                              and [ok for _, ok in r.probes[:1]] == [False])
        if variant is Variant.PREEMPTIVE and algo != "two-approx":
            sol = _pmtn_plan(inst, r.guess).knapsack
            if sol is not None and sol.split_item is not None:
                split_shares += sol.x[sol.split_item].denominator > 1
    assert split_shares >= 1 and tmin_rejected >= 1
    # every emitted time is the same rational as before integer rows
    assert digest(old_texts) == GOLDEN_SHA256
    assert digest(wire_texts) == WIRE_SHA256
    assert digest(probe_texts) == PROBES_SHA256
