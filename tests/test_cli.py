import json
import random
from collections import Counter
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsched.cli import (
    emit_schedule,
    generate_instance,
    main,
    parse_rat,
    parse_schedule,
)
from batchsched.core import (
    ContractError,
    Schedule,
    ValidationError,
    Variant,
    emit_instance,
    fmt_rat,
    lower_bound_tmin,
    parse_instance,
    verify_schedule,
)
from batchsched.search import Rejected, solve
from batchsched.splittable import class_jump_split

from conftest import random_instance
from oracle import expand_runs, placements, run_pairs
from test_golden import corpus


def write_instance(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


GOOD = {"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}, {"setup": 1, "jobs": [2]}]}
REJ = {"m": 1, "classes": [{"setup": 6, "jobs": [5, 5]}, {"setup": 2, "jobs": [3]}]}


def test_solve_jump_exit_zero(tmp_path, capsys):
    path = write_instance(tmp_path, "a.json", GOOD)
    out = str(tmp_path / "out.json")
    code = main(["solve", "--variant", "nonp", "--algo", "jump", "--in", path, "--out", out])
    assert code == 0
    payload = json.loads(open(out).read())
    assert F(payload["summary"]["ratio_bound"]) <= F(3, 2)


def test_solve_dual_rejected_exit_two(tmp_path, capsys):
    path = write_instance(tmp_path, "b.json", REJ)
    code = main(["solve", "--variant", "split", "--algo", "dual", "--T", "10",
                 "--in", path, "--emit", "summary"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["LB"] == "10" and payload["accepted"] is False


def test_solve_bad_input_exit_one(tmp_path, capsys):
    path = write_instance(tmp_path, "c.json", {"m": 0, "classes": []})
    assert main(["solve", "--variant", "split", "--algo", "jump", "--in", path]) == 1


def test_solve_directory_input_exit_one(tmp_path, capsys):
    code = main(["solve", "--variant", "split", "--algo", "jump", "--in", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_solve_eps_probe_budget(tmp_path, capsys):
    path = write_instance(tmp_path, "a.json", GOOD)
    code = main(["solve", "--variant", "pmtn", "--algo", "eps", "--epsilon", "1/1000",
                 "--in", path, "--emit", "summary"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["probes"] <= 11


def _malformed(mutate):
    raw = {
        "scale": 1,
        "makespan": "3",
        "machines": [[0, 0, 1, 1, 0, 2]],
        "compressed": [{"config": [0, 0, 1, 1, 1, 2], "mult": 1}],
    }
    mutate(raw)
    return raw


def _set_machine(group):
    def mutate(raw):
        raw["machines"][0] = group
    return mutate


# a "row" in an id is one batch: [cls, start, setup, k, job, dur, ...]
@pytest.mark.parametrize(
    "mutate",
    [
        _set_machine([0, 1, 1, 0, 2]),  # no class: count 0, then a 2 after the batch
        _set_machine([0, 0, 1, 1, 0]),
        _set_machine([0, 0, 0, 1, 1, 0, 2]),
        _set_machine([0, 0]),
        _set_machine([[]]),
        _set_machine([0, 0, 1, 1, 0, "3/2"]),
        _set_machine([0, 0, 1, 1, 0, 1.5]),
        _set_machine([0, 0, True, 1, 0, 2]),
        _set_machine([0, 0, 1, 0, 2]),  # a batch of the list-per-batch format, without its count
        _set_machine([0, 0, 1, 1, "0", 2]),
        _set_machine([0, 0, 1, 0, 2, 0]),
        _set_machine([[0, 0, 0, 1], [1, 0, 1, 2, 0, 0]]),
        _set_machine([{"kind": "setup", "class": 0, "start": "0", "dur": "1"}]),
        _set_machine([[0, 0, 1], [0, 1, 2, 0]]),
        _set_machine([0, 0, 1, 1, None, 2]),
        _set_machine([0, 0, 1, -1, 0, 2]),
        _set_machine([0, 0, 1, 2, 0, 2]),
        _set_machine([0, 0, 1, 1, 0, 2, 0, 0, 1]),
        _set_machine([0, 0, 1, 1.0, 0, 2]),
        _set_machine([0, 0, 1, "1", 0, 2]),
        lambda raw: raw["machines"].__setitem__(0, {"rows": []}),
        lambda raw: raw["compressed"][0].update(mult="1"),
        lambda raw: raw["compressed"][0].update(mult=True),
        lambda raw: raw["compressed"][0].pop("config"),
        lambda raw: raw.update(compressed={}),
        lambda raw: raw.update(scale=0),
        lambda raw: raw.update(scale=-1),
        lambda raw: raw.update(scale="4"),
        lambda raw: raw.update(scale=True),
        lambda raw: raw.update(scale=1.0),
        lambda raw: raw.pop("scale"),
        lambda raw: raw.pop("machines"),
    ],
    ids=[
        "missing-class", "short-piece-row", "long-setup-row", "row-length-2",
        "empty-row", "string-time", "float-time", "bool-time", "row-length-5", "string-job",
        "row-length-6", "kind-led-piece-row", "dict-row", "nested-rows", "null-job",
        "dict-machine", "string-mult", "bool-mult", "missing-config", "dict-compressed",
        "scale-0", "scale-negative", "string-scale", "bool-scale", "float-scale",
        "missing-scale", "missing-machines", "negative-count", "count-past-row-end",
        "ints-after-last-batch", "float-count", "string-count",
    ],
)
def test_verify_malformed_schedule_exit_one(tmp_path, capsys, mutate):
    inst = {"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]}
    ipath = write_instance(tmp_path, "i.json", inst)
    spath = write_instance(tmp_path, "s.json", _malformed(mutate))
    code = main(["verify", "--in", ipath, "--schedule", spath, "--variant", "pmtn", "--bound", "9"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_unmutated_malformed_base_is_accepted(tmp_path, capsys):
    # the cases above fail for their mutation alone
    inst = {"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]}
    ipath = write_instance(tmp_path, "i.json", inst)
    spath = write_instance(tmp_path, "s.json", _malformed(lambda raw: None))
    code = main(["verify", "--in", ipath, "--schedule", spath, "--variant", "pmtn", "--bound", "9"])
    assert code == 0 and capsys.readouterr().out == "ok makespan=3 bound=9\n"


def test_verify_old_format_names_the_row_format(tmp_path, capsys):
    setup = {"kind": "setup", "class": 0, "start": "0", "dur": "1"}
    piece = {"kind": "piece", "class": 0, "job": 0, "piece": 0, "start": "1", "dur": "2"}
    dict_placements = {"makespan": "3", "machines": [[setup, piece]],
                       "compressed": [{"config": [setup, dict(piece, job=1)], "mult": 1}]}
    # rows led by a kind flag (0 setup, 1 piece) and ending in a piece number
    kind_led_rows = {"scale": 1, "makespan": "3", "machines": [[[0, 0, 0, 1], [1, 0, 1, 2, 0, 0]]],
                     "compressed": [{"config": [[0, 0, 0, 1], [1, 0, 1, 2, 1, 0]], "mult": 1}]}
    # a list per placement: [class, start, dur] or [class, start, dur, job]
    nested_rows = {"scale": 1, "makespan": "3", "machines": [[[0, 0, 1], [0, 1, 2, 0]]],
                   "compressed": [{"config": [[0, 0, 1], [0, 1, 2, 1]], "mult": 1}]}
    # one flat list per machine, four ints per placement, job -1 a setup
    flat_rows = {"scale": 1, "makespan": "3", "machines": [[0, 0, 1, -1, 0, 1, 2, 0]],
                 "compressed": [{"config": [0, 0, 1, -1, 0, 1, 2, 1], "mult": 1}]}
    # a list per batch: [cls, start, setup, job, dur, ...]
    batch_lists = {"scale": 1, "makespan": "3", "machines": [[[0, 0, 1, 0, 2]]],
                   "compressed": [{"config": [[0, 0, 1, 1, 2]], "mult": 1}]}
    inst = {"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]}
    ipath = write_instance(tmp_path, "i.json", inst)
    for old in (dict_placements, kind_led_rows, nested_rows, flat_rows, batch_lists):
        spath = write_instance(tmp_path, "s.json", old)
        code = main(["verify", "--in", ipath, "--schedule", spath, "--variant", "pmtn", "--bound", "9"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and "Traceback" not in err
        assert "one list of ints, its batches back to back" in err and "job -1 for idle time" in err
        assert '"scale": D' in err and "[[cls, start, setup, k, job, dur, ...], ...]" in err


@pytest.mark.parametrize("where", ["instance", "schedule", "nested-instance", "nested-schedule"])
def test_int_past_the_digit_limit_exit_one(tmp_path, capsys, where):
    # json.loads refuses ints of more than 4,300 digits with a plain
    # ValueError, and nesting past the recursion limit with a RecursionError
    huge = "9" * 5000
    inst = '{"m": 2, "classes": [{"setup": 1, "jobs": [%s]}]}' % (huge if where == "instance" else "2")
    sched = '{"scale": 1, "machines": [[0, 0, 1, 1, 0, %s]]}' % huge
    if where == "nested-instance":
        inst = "[" * 200_000
    elif where == "nested-schedule":
        sched = "[" * 200_000
    ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
    ipath.write_text(inst)
    spath.write_text(sched)
    if where.endswith("instance"):
        code = main(["solve", "--variant", "split", "--algo", "jump", "--in", str(ipath)])
    else:
        code = main(["verify", "--in", str(ipath), "--schedule", str(spath),
                     "--variant", "pmtn", "--bound", "9"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: invalid JSON") and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["solve", "--variant", "split", "--algo", "dual", "--T", "1e5000", "--emit", "summary"],
    ["solve", "--variant", "split", "--algo", "dual", "--T", "1e5000"],
    ["verify", "--variant", "split", "--bound", "1e5000"],
    ["verify", "--variant", "split", "--bound", "1e-5000"],  # used to fail in a violation message
    ["solve", "--variant", "split", "--algo", "jump", "--epsilon", "1e5000"],  # read though unused
], ids=["solve-summary", "solve-schedule", "verify-bound", "verify-tiny-bound", "solve-epsilon"])
def test_rational_past_the_digit_limit_exit_one(tmp_path, capsys, args):
    # Fraction reads "1e5000" without int()'s digit limit, but it could not be
    # written back as text
    ipath = write_instance(tmp_path, "i.json", {"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]})
    spath = str(tmp_path / "s.json")
    assert main(["solve", "--variant", "split", "--algo", "dual", "--T", "9",
                 "--in", ipath, "--out", spath]) == 0
    extra = ["--schedule", spath] if args[0] == "verify" else []
    code = main(args + ["--in", ipath] + extra)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: unparsable rational") and "Traceback" not in captured.err


@pytest.mark.parametrize("cmd", ["solve", "verify", "verify-machines", "verify-time"])
def test_derived_int_past_the_digit_limit_exit_one(tmp_path, capsys, cmd):
    # inputs that read fine, but a number a message prints has 4,301 digits:
    # the makespan of a 4,300-digit guess or of a schedule time of 4,300
    # nines plus a duration, the machine count of two configs of
    # multiplicity 10^4300 - 1, or the start of a pair after an idle time of
    # -(10^4300 - 1) from a batch start of as much
    ipath = write_instance(tmp_path, "i.json", {"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]})
    nines = "9" * 4300
    if cmd == "solve":
        args = ["solve", "--variant", "split", "--algo", "dual", "--T", "9" * 4299 + "8",
                "--in", ipath, "--emit", "summary"]
    else:
        spath = tmp_path / "s.json"
        spath.write_text({
            "verify": '{"scale": 1, "machines": [[0, %s, 1, 1, 0, 2]]}' % nines,
            "verify-machines": '{"scale": 1, "machines": [], "compressed": ['
                               '{"config": [0, 0, 1, 1, 0, 2], "mult": %s},'
                               '{"config": [0, 0, 1, 1, 1, 2], "mult": %s}]}' % (nines, nines),
            "verify-time": '{"scale": 1, "machines": [[0, -%s, 1, 2, -1, -%s, 0, 2]]}' % (nines, nines),
        }[cmd])
        args = ["verify", "--variant", "split", "--bound", "9", "--in", ipath, "--schedule", str(spath)]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "digits" in captured.err
    assert "Traceback" not in captured.err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_SMALL = st.integers(-1, 4)


def _batches(value, pair):
    """Rows of the format's shape: batches [cls, start, setup, k, job, dur,
    ...] with k pairs (k = 0 and idle pairs included) back to back in one
    list, empty rows included."""
    batch = st.tuples(value, value, value, st.lists(pair, max_size=3)).map(
        lambda b: [b[0], b[1], b[2], len(b[3]), *(x for p in b[3] for x in p)])
    return st.lists(batch, max_size=4).map(lambda batches: [x for b in batches for x in b])


_GOOD_ROWS = _batches(_SMALL, st.tuples(_SMALL, _SMALL))
# flat int lists whose counts may or may not tile them, and anything else
_ROWS = (_GOOD_ROWS | st.lists(_SMALL, max_size=12)
         | st.lists(st.lists(_SMALL | st.booleans() | _JSON, max_size=9) | _JSON, max_size=4) | _JSON)


def _schedules(scale, rows, mult, other):
    return st.fixed_dictionaries(
        {"scale": scale, "machines": st.lists(rows, max_size=3) | other},
        optional={"compressed": st.lists(st.fixed_dictionaries({"config": rows, "mult": mult})
                                         | other, max_size=2) | other},
    )


# any JSON value, dicts near the schedule format, and files of the format's
# shape (which parse, so the verifier must judge them)
_SCHEDULE_LIKE = st.one_of(
    _JSON,
    _schedules(_SMALL | _JSON, _ROWS, _SMALL | _JSON, _JSON),
    _schedules(st.integers(1, 4), _GOOD_ROWS, _SMALL, st.nothing()),
)


@settings(max_examples=400, deadline=None, database=None)
@given(_SCHEDULE_LIKE)
def test_parse_schedule_any_json_schedule_or_validation_error(raw):
    try:
        sched = parse_schedule(raw, 2)
    except ValidationError:
        return
    inst = parse_instance({"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]})
    assert all(type(p[1]) is int and type(p[2]) is int for p in placements(sched, inst))
    # whatever parses, the verifier judges without raising
    verify_schedule(inst, sched, Variant.PREEMPTIVE, F(9))


def test_non_utf8_file_exit_one(tmp_path, capsys):
    path = tmp_path / "i.json"
    path.write_bytes(b'{"m": 2, "classes": [\xff]}')
    code = main(["solve", "--variant", "split", "--algo", "jump", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: invalid JSON") and "Traceback" not in err


def test_solve_and_emit_walk_no_row(monkeypatch):
    # every build records where its schedule ends, so neither the search's
    # makespan nor the file's walks the rows again; a parsed schedule does
    from batchsched import core

    calls = Counter()
    walk = core.rows_end

    def counted(rows):
        calls["rows_end"] += 1
        return walk(rows)

    monkeypatch.setattr(core, "rows_end", counted)
    for inst in islice(corpus(), 0, 350, 35):
        for variant in Variant:
            guess = 2 * lower_bound_tmin(inst, variant)  # every dual accepts it
            for algo in ("two-approx", "dual", "jump", "eps"):
                r = solve(inst, variant, algo, guess=guess)
                raw = emit_schedule(r.schedule)
                assert calls["rows_end"] == 0, (inst, variant, algo)
                assert raw["makespan"] == fmt_rat(r.makespan)
    back = parse_schedule(json.loads(json.dumps(raw)), inst.m)
    assert back.end() == r.schedule.end() and calls["rows_end"] == 1


def test_emit_rejects_non_int_times():
    # a hand-built schedule whose batch holds a Fraction time: the writer
    # refuses it, the verifier judges it
    from batchsched.core import Instance, JobClass, VerifyReport

    sched = Schedule(m=1, machines=[[0, 0, 1, 1, 0, F(1, 2)]])
    with pytest.raises(ContractError):
        emit_schedule(sched)
    inst = Instance(m=1, classes=(JobClass(1, (2,)),))
    rep = verify_schedule(inst, sched, Variant.SPLITTABLE, F(3))
    assert isinstance(rep, VerifyReport) and rep.makespan == F(3, 2)
    assert [v.rule for v in rep.violations] == ["c"]


def test_verify_flat_sentinels_reach_the_verifier(tmp_path, capsys):
    # only job -1 marks idle time: a piece of job -2 and a setup of the
    # wrong length parse, and the verifier rejects them (exit 3, not 1)
    ipath = write_instance(tmp_path, "i.json", {"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]})
    for machine, want in [([0, 0, 1, 1, -2, 2], "unknown job id (0, -2)"),
                          ([0, 0, 3, 1, 0, 2], "rule (b)")]:
        spath = write_instance(tmp_path, "s.json", _malformed(_set_machine(machine)))
        code = main(["verify", "--in", ipath, "--schedule", spath, "--variant", "pmtn", "--bound", "9"])
        captured = capsys.readouterr()
        assert code == 3 and want in captured.out and captured.err == ""


# a row of batches with times past 2**64
_ROW = _batches(st.integers(-3, 2**70), st.tuples(st.integers(-3, 9), st.integers(-3, 2**70)))


@settings(max_examples=300, deadline=None, database=None)
@given(st.builds(Schedule, m=st.integers(1, 9), machines=st.lists(_ROW, max_size=4),
                 compressed=st.lists(st.tuples(_ROW, st.integers(-1, 5)), max_size=3),
                 scale=st.integers(1, 12)))
def test_emit_parse_round_trip(sched):
    # empty machines and configs included; dumped as `solve` writes it
    text = json.dumps(emit_schedule(sched), indent=1, sort_keys=True)
    back = parse_schedule(json.loads(text), sched.m)
    assert (back.machines, back.compressed, back.scale) == (
        sched.machines, sched.compressed, sched.scale)


def test_readme_schedule_example():
    # the README's schedule file example, as `solve --variant split --algo
    # jump` writes it, and its placement count: setups plus pieces, each
    # configuration's once
    inst = parse_instance({"m": 9, "classes": [{"setup": 3, "jobs": [5, 1]},
                                                {"setup": 1, "jobs": [30]}]})
    sched = class_jump_split(inst).schedule
    assert json.loads(json.dumps(emit_schedule(sched))) == {
        "scale": 18, "makespan": "23/3",
        "machines": [[0, 0, 54, 1, 0, 46],
                     [0, 0, 54, 2, 0, 44, 1, 2],
                     [0, 0, 54, 1, 1, 16, 1, 98, 18, 1, 0, 22],
                     [1, 28, 18, 1, 0, 58]],
        "compressed": [{"config": [1, 28, 18, 1, 0, 92], "mult": 5}],
    }
    assert sched.placement_count() == 13 and sched.machine_count() == 9
    # the README's idle pair: setup to 3, idle to 4, job 0 to 50/9; the
    # idle pair is no placement
    idle = Schedule(m=1, machines=[[0, 0, 54, 2, -1, 18, 0, 28]], scale=18)
    assert idle.placement_count() == 2 and idle.makespan() == F(50, 9)
    assert list(placements(idle, inst)) == [(0, 0, 54, -1), (0, 72, 28, 0)]


def test_verify_roundtrip_and_exit_codes(tmp_path, capsys):
    rng = random.Random(5)
    inst = random_instance(rng)
    r = class_jump_split(inst)
    ipath = write_instance(tmp_path, "i.json", emit_instance(inst))
    spath = write_instance(tmp_path, "s.json", emit_schedule(r.schedule))
    bound = str(F(3, 2) * r.guess)
    assert main(["verify", "--in", ipath, "--schedule", spath,
                 "--variant", "split", "--bound", bound]) == 0
    capsys.readouterr()

    # round trip preserves verification verdict exactly
    parsed = parse_schedule(json.loads(open(spath).read()), inst.m)
    rep = verify_schedule(inst, parsed, Variant.SPLITTABLE, F(3, 2) * r.guess)
    assert rep.ok

    # tampering: drop a machine's leading setup (its length becomes 0)
    raw = json.loads(open(spath).read())
    groups = raw["machines"] + [entry["config"] for entry in raw["compressed"]]
    group = next(group for group in groups if group)
    group[2] = 0  # its first batch's setup
    tpath = write_instance(tmp_path, "t.json", raw)
    assert main(["verify", "--in", ipath, "--schedule", tpath,
                 "--variant", "split", "--bound", bound]) == 3
    out = capsys.readouterr().out
    assert "rule (b)" in out

    # bound below the makespan
    assert main(["verify", "--in", ipath, "--schedule", spath,
                 "--variant", "split", "--bound", "1/2"]) == 3
    assert "rule (f)" in capsys.readouterr().out


def test_verify_run_past_the_class_end_exits_3(tmp_path, capsys):
    # a pair of 6 from job 0 runs jobs 0 and 1 whole, then 1 time unit past
    # the class's last job: an unknown job id; 5 is the class in one run
    ipath = write_instance(tmp_path, "i.json", {"m": 1, "classes": [{"setup": 1, "jobs": [2, 3]}]})
    for dur, code in ((5, 0), (6, 3)):
        spath = write_instance(tmp_path, "s.json", {"scale": 1, "machines": [[0, 0, 1, 1, 0, dur]]})
        assert main(["verify", "--in", ipath, "--schedule", spath,
                     "--variant", "nonp", "--bound", "9"]) == code
    assert "rule (s) machine 0 t=6: unknown job id (0, 2)" in capsys.readouterr().out


def test_verify_reads_a_file_of_one_pair_per_job(tmp_path, capsys):
    # earlier releases wrote one pair per job piece; such a file means the
    # same schedule and verifies
    inst = generate_instance(seed=3, machines=4, classes=3, proc="uniform:1:9")
    r = class_jump_split(inst)
    assert run_pairs(r.schedule, inst) >= 1
    per_job = emit_schedule(expand_runs(r.schedule, inst))
    assert per_job != emit_schedule(r.schedule)
    ipath = write_instance(tmp_path, "i.json", emit_instance(inst))
    spath = write_instance(tmp_path, "s.json", per_job)
    assert main(["verify", "--in", ipath, "--schedule", spath,
                 "--variant", "split", "--bound", str(F(3, 2) * r.guess)]) == 0


def test_instance_roundtrip():
    rng = random.Random(9)
    for _ in range(30):
        inst = random_instance(rng)
        assert parse_instance(emit_instance(inst)) == inst


def test_gen_deterministic(tmp_path):
    a = generate_instance(seed=1, machines=4, classes=3, proc="uniform:1:9")
    b = generate_instance(seed=1, machines=4, classes=3, proc="uniform:1:9")
    assert a == b
    c = generate_instance(seed=2, machines=4, classes=3, proc="uniform:1:9")
    assert a != c


def test_gen_few_expensive_profile():
    base = generate_instance(seed=11, machines=4, classes=6, profile="uniform")
    est = lower_bound_tmin(base, Variant.SPLITTABLE)
    boosted = generate_instance(seed=11, machines=4, classes=6, profile="few-expensive")
    big = sum(1 for cl in boosted.classes if cl.setup > est / 2)
    assert big >= 2  # ceil(6 / 3)


def test_gen_single_job_batches():
    inst = generate_instance(seed=3, machines=2, classes=5, jobs_per_class="uniform:1:1")
    assert all(len(cl.jobs) == 1 for cl in inst.classes)


def test_gen_cli_and_solve(tmp_path):
    out = str(tmp_path / "g.json")
    assert main(["gen", "--seed", "1", "--machines", "4", "--classes", "3", "--out", out]) == 0
    assert main(["gen", "--seed", "1", "--machines", "4", "--classes", "3",
                 "--out", str(tmp_path / "g2.json")]) == 0
    assert open(out).read() == open(str(tmp_path / "g2.json")).read()
    assert main(["solve", "--variant", "split", "--algo", "two-approx", "--in", out,
                 "--out", str(tmp_path / "s.json")]) == 0


@pytest.mark.parametrize("spec", ["uniform:a:3", "uniform:1:2.5"])
def test_gen_bad_distribution_bounds_exit_one(tmp_path, capsys, spec):
    code = main(["gen", "--seed", "1", "--machines", "2", "--classes", "2", "--setup", spec,
                 "--out", str(tmp_path / "g.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and spec in err


def test_parse_rat():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("7") == 7


@pytest.mark.parametrize("text", [
    "3", "-3/4", " 3/4 ", "1.5", "007/2", "12/8", "0/5", "1/0", "3/", "/3", "a/3", "3/-4",
    "\u0663", "\u00b2", "", 3,
])
def test_parse_rat_agrees_with_fraction(text):
    # parse_rat accepts and rejects what Fraction does
    try:
        want = F(text)
    except (TypeError, ValueError, ZeroDivisionError):
        with pytest.raises(ValidationError, match="unparsable rational"):
            parse_rat(text)
    else:
        got = parse_rat(text)
        assert type(got) is F and got == want


def test_compressed_schedule_roundtrip(tmp_path):
    from batchsched.core import Instance, JobClass
    from batchsched.splittable import two_approx_split

    inst = Instance(m=5000, classes=(JobClass(3, (40, 7)), JobClass(1, (9,))))
    sched, makespan = two_approx_split(inst)
    assert sched.compressed  # big machine count stays compressed
    raw = emit_schedule(sched)
    back = parse_schedule(json.loads(json.dumps(raw)), inst.m)
    a = verify_schedule(inst, sched, Variant.SPLITTABLE, makespan)
    b = verify_schedule(inst, back, Variant.SPLITTABLE, makespan)
    assert a.ok and b.ok and a.makespan == b.makespan
    assert json.dumps(emit_schedule(back)) == json.dumps(raw)


def test_gen_matches_committed_golden_file(tmp_path):
    import os

    golden = os.path.join(os.path.dirname(__file__), "golden", "gen_seed1_m4_c3.json")
    out = str(tmp_path / "g.json")
    assert main(["gen", "--seed", "1", "--machines", "4", "--classes", "3",
                 "--proc", "uniform:1:9", "--out", out]) == 0
    assert open(out).read() == open(golden).read()


@pytest.mark.parametrize("args", [
    ["solve", "--variant", "foo", "--algo", "jump", "--in", "i.json"],
    ["solve", "--variant", "split", "--in", "i.json"],
    ["gen", "--seed", "x", "--machines", "2", "--classes", "2"],
    ["solve", "--variant", "split", "--algo", "dual", "--T", "-5/2", "--in", "i.json"],
], ids=["unknown-variant", "no-algo", "non-int-seed", "option-like-guess"])
def test_usage_error_exit_one(capsys, args):
    # exit 2 means a rejected guess, so a usage error exits 1 like every
    # other input error, with the usage text
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: batchsched ")
    assert "\nerror: " in captured.err and "Traceback" not in captured.err


def test_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: batchsched solve")


def test_solve_summary_is_the_record(tmp_path, capsys):
    # the summary is a view of solve's record, field for field, on a slice of
    # the golden corpus; a rejected guess is the Rejected it raises
    seen = Counter()
    for k, inst in enumerate(islice(corpus(), 0, 300, 10)):
        path = write_instance(tmp_path, f"{k}.json", emit_instance(inst))
        for v in Variant:
            tmin = lower_bound_tmin(inst, v)
            for algo, kw in (("two-approx", {}), ("jump", {}), ("eps", {"eps": F(1, 64)}),
                             ("dual", {"guess": 2 * tmin}), ("dual", {"guess": tmin * F(7, 8)})):
                args = ["solve", "--variant", v.value, "--algo", algo, "--in", path,
                        "--emit", "summary"]
                if "eps" in kw:
                    args += ["--epsilon", fmt_rat(kw["eps"])]
                if "guess" in kw:
                    args += ["--T", fmt_rat(kw["guess"])]
                code = main(args)
                payload = json.loads(capsys.readouterr().out)
                assert type(payload.pop("wall_time")) is float
                try:
                    r = solve(inst, v, algo, **kw)
                except Rejected as rej:
                    want = {"accepted": False, "reason": rej.reason, "LB": fmt_rat(rej.guess)}
                    assert (code, payload) == (2, want), (k, v, algo)
                    seen["rejected"] += 1
                    continue
                want = {"accepted": True, "makespan": fmt_rat(r.makespan),
                        "LB": fmt_rat(r.lower_bound), "ratio_bound": fmt_rat(r.ratio_bound),
                        "probes": len(r.probes)}
                assert (code, payload) == (0, want), (k, v, algo)
                seen[algo] += 1
    assert seen["rejected"] >= 20 and min(seen.values()) >= 20, seen
