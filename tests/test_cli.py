import json
import random
from fractions import Fraction as F

import pytest

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
    setup = {"kind": "setup", "class": 0, "start": "0", "dur": "1"}
    piece = {"kind": "piece", "class": 0, "job": 0, "piece": 0, "start": "1", "dur": "2"}
    raw = {
        "makespan": "3",
        "machines": [[dict(setup), dict(piece)]],
        "compressed": [{"config": [dict(setup), dict(piece, job=1)], "mult": 1}],
    }
    mutate(raw)
    return raw


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw["machines"][0][0].pop("class"),
        lambda raw: raw["compressed"][0].update(mult="1"),
        lambda raw: raw["machines"][0][1].update(job="0"),
    ],
    ids=["missing-class", "string-mult", "string-job"],
)
def test_verify_malformed_schedule_exit_one(tmp_path, capsys, mutate):
    inst = {"m": 2, "classes": [{"setup": 1, "jobs": [2, 2]}]}
    ipath = write_instance(tmp_path, "i.json", inst)
    spath = write_instance(tmp_path, "s.json", _malformed(mutate))
    code = main(["verify", "--in", ipath, "--schedule", spath, "--variant", "pmtn", "--bound", "9"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


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

    # tampering: drop a setup
    raw = json.loads(open(spath).read())
    for mach in raw["machines"]:
        if mach and mach[0]["kind"] == "setup":
            mach.pop(0)
            break
    else:
        for entry in raw["compressed"]:
            if entry["config"] and entry["config"][0]["kind"] == "setup":
                entry["config"].pop(0)
                break
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


def test_bench_runs(tmp_path, capsys):
    for seed in (1, 2):
        main(["gen", "--seed", str(seed), "--machines", "3", "--classes", "3",
              "--out", str(tmp_path / f"i{seed}.json")])
    code = main(["bench", "--suite", str(tmp_path), "--algos", "split-jump,nonp-int",
                 "--repeat", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "split-jump" in out and "nonp-int" in out


@pytest.mark.parametrize("spec", ["uniform:a:3", "uniform:1:2.5"])
def test_gen_bad_distribution_bounds_exit_one(tmp_path, capsys, spec):
    code = main(["gen", "--seed", "1", "--machines", "2", "--classes", "2", "--setup", spec,
                 "--out", str(tmp_path / "g.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and spec in err


def test_bench_zero_repeat_exit_one(tmp_path, capsys):
    main(["gen", "--seed", "1", "--machines", "3", "--classes", "3",
          "--out", str(tmp_path / "i1.json")])
    code = main(["bench", "--suite", str(tmp_path), "--repeat", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "--repeat" in err


def test_bench_file_suite_exit_one(tmp_path, capsys):
    path = write_instance(tmp_path, "a.json", GOOD)
    code = main(["bench", "--suite", path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


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
