import json
import random
from fractions import Fraction as F

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
    ValidationError,
    Variant,
    emit_instance,
    lower_bound_tmin,
    parse_instance,
    verify_schedule,
)
from batchsched.splittable import class_jump_split

from conftest import random_instance


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
        "machines": [[[0, 0, 0, 1], [1, 0, 1, 2, 0, 0]]],
        "compressed": [{"config": [[0, 0, 0, 1], [1, 0, 1, 2, 1, 0]], "mult": 1}],
    }
    mutate(raw)
    return raw


def _set_row(machine, index, row):
    def mutate(raw):
        raw["machines"][machine][index] = row
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _set_row(0, 0, [0, 0, 1]),
        _set_row(0, 1, [1, 0, 1, 2, 0]),
        _set_row(0, 0, [0, 0, 0, 1, 0, 0]),
        _set_row(0, 1, [1, 0, 1, 2]),
        _set_row(0, 0, []),
        _set_row(0, 1, [1, 0, "3/2", 2, 0, 0]),
        _set_row(0, 1, [1, 0, 1.5, 2, 0, 0]),
        _set_row(0, 1, [1, 0, 1, True, 0, 0]),
        _set_row(0, 0, [False, 0, 0, 1]),
        _set_row(0, 1, [1, 0, 1, 2, "0", 0]),
        _set_row(0, 0, [2, 0, 0, 1]),
        _set_row(0, 0, ["setup", 0, 0, 1]),
        _set_row(0, 0, {"kind": "setup", "class": 0, "start": "0", "dur": "1"}),
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
        "missing-class", "short-piece-row", "long-setup-row", "piece-row-as-setup",
        "empty-row", "string-time", "float-time", "bool-time", "bool-kind", "string-job",
        "kind-2", "kind-name", "dict-row", "dict-machine", "string-mult", "bool-mult",
        "missing-config", "dict-compressed", "scale-0", "scale-negative", "string-scale",
        "bool-scale", "float-scale", "missing-scale", "missing-machines",
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
    old = {"makespan": "3", "machines": [[setup, piece]],
           "compressed": [{"config": [setup, dict(piece, job=1)], "mult": 1}]}
    inst = {"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]}
    ipath = write_instance(tmp_path, "i.json", inst)
    spath = write_instance(tmp_path, "s.json", old)
    code = main(["verify", "--in", ipath, "--schedule", spath, "--variant", "pmtn", "--bound", "9"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err
    assert "[0, class, start, dur]" in err and "[1, class, start, dur, job, piece]" in err
    assert '"scale": D' in err


@pytest.mark.parametrize("where", ["instance", "schedule"])
def test_int_past_the_digit_limit_exit_one(tmp_path, capsys, where):
    # json.loads refuses ints of more than 4,300 digits with a plain ValueError
    huge = "9" * 5000
    inst = '{"m": 2, "classes": [{"setup": 1, "jobs": [%s]}]}' % (huge if where == "instance" else "2")
    sched = '{"scale": 1, "machines": [[[0, 0, 0, 1], [1, 0, 1, %s, 0, 0]]]}' % huge
    ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
    ipath.write_text(inst)
    spath.write_text(sched)
    if where == "instance":
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
], ids=["solve-summary", "solve-schedule", "verify-bound", "verify-tiny-bound"])
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


@pytest.mark.parametrize("cmd", ["solve", "verify"])
def test_derived_int_past_the_digit_limit_exit_one(tmp_path, capsys, cmd):
    # inputs that read fine, but the makespan they give has 4,301 digits: a
    # 4,300-digit guess, or a schedule time of 4,300 nines plus a duration
    ipath = write_instance(tmp_path, "i.json", {"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]})
    if cmd == "solve":
        args = ["solve", "--variant", "split", "--algo", "dual", "--T", "9" * 4299 + "8",
                "--in", ipath, "--emit", "summary"]
    else:
        spath = tmp_path / "s.json"
        spath.write_text('{"scale": 1, "machines": [[[0, 0, %s, 1], [1, 0, 1, 2, 0, 0]]]}' % ("9" * 4300))
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
_GOOD_ROW = (st.tuples(st.just(0), _SMALL, _SMALL, _SMALL).map(list)
             | st.tuples(st.just(1), _SMALL, _SMALL, _SMALL, _SMALL, _SMALL).map(list))
_ROWS = st.lists(_GOOD_ROW | st.lists(_SMALL | st.booleans() | _JSON, max_size=7), max_size=4) | _JSON


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
    _schedules(st.integers(1, 4), st.lists(_GOOD_ROW, max_size=4), _SMALL, st.nothing()),
)


@settings(max_examples=400, deadline=None, database=None)
@given(_SCHEDULE_LIKE)
def test_parse_schedule_any_json_schedule_or_validation_error(raw):
    try:
        sched = parse_schedule(raw, 2)
    except ValidationError:
        return
    assert all(type(p[2]) is int and type(p[3]) is int for p in sched.placements())
    # whatever parses, the verifier judges without raising
    inst = parse_instance({"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]})
    verify_schedule(inst, sched, Variant.PREEMPTIVE, F(9))


def test_non_utf8_file_exit_one(tmp_path, capsys):
    path = tmp_path / "i.json"
    path.write_bytes(b'{"m": 2, "classes": [\xff]}')
    code = main(["solve", "--variant", "split", "--algo", "jump", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: invalid JSON") and "Traceback" not in err


def test_emit_rejects_non_int_times():
    from batchsched.core import PIECE, SETUP, ContractError, Schedule

    sched = Schedule(m=1, machines=[[(SETUP, 0, 0, 1, None, None), (PIECE, 0, 1, F(1, 2), 0, 0)]])
    with pytest.raises(ContractError):
        emit_schedule(sched)


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

    # tampering: drop a setup row
    raw = json.loads(open(spath).read())
    groups = raw["machines"] + [entry["config"] for entry in raw["compressed"]]
    rows = next(rows for rows in groups if rows and rows[0][0] == 0)
    rows.pop(0)
    tpath = write_instance(tmp_path, "t.json", raw)
    assert main(["verify", "--in", ipath, "--schedule", tpath,
                 "--variant", "split", "--bound", bound]) == 3
    out = capsys.readouterr().out
    assert "rule (b)" in out

    # bound below the makespan
    assert main(["verify", "--in", ipath, "--schedule", spath,
                 "--variant", "split", "--bound", "1/2"]) == 3
    assert "rule (f)" in capsys.readouterr().out


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
    # the direct path for ASCII digit text accepts and rejects what Fraction does
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
    assert emit_schedule(back) == raw


def test_gen_matches_committed_golden_file(tmp_path):
    import os

    golden = os.path.join(os.path.dirname(__file__), "golden", "gen_seed1_m4_c3.json")
    out = str(tmp_path / "g.json")
    assert main(["gen", "--seed", "1", "--machines", "4", "--classes", "3",
                 "--proc", "uniform:1:9", "--out", out]) == 0
    assert open(out).read() == open(golden).read()
