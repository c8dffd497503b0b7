"""Command line: solve instances, verify schedules, generate random
instances.

Instance files:  {"m": int, "classes": [{"setup": int, "jobs": [int, ...]}]}
Schedule files:  {"scale": D, "makespan": "p/q",
                  "machines": [[cls, start, setup, k, job, dur, ..., cls, ...], ...],
                  "compressed": [{"config": [cls, start, setup, k, job, dur, ...],
                                  "mult": int}, ...]}
A machine or config is one list of ints, its batches back to back (see
`core.Row`): a setup, then exactly k (job, dur) pairs, each running the
class's jobs from job on for dur, job -1 for idle time.  Times are ints t
meaning t/D, so nothing is ever rounded; other rationals travel as "p/q"
strings.  Files of older formats (a dict per placement, rows led by a kind
flag, a list per placement, four ints per placement, a list per batch)
are rejected: solve the instance again.

Exit codes: 0 ok, 1 input or usage error, 2 guess rejected by the dual,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from itertools import chain

from .core import (
    ContractError,
    Instance,
    JobClass,
    Rat,
    Schedule,
    ValidationError,
    Variant,
    emit_instance,
    fmt_rat,
    lower_bound_tmin,
    parse_instance,
    row_batches,
    verify_schedule,
)
from .search import DEFAULT_EPS, Rejected, solve


def parse_rat(text: str) -> Rat:
    """The rational that Fraction reads from the text.  A numerator or
    denominator past CPython's int-string digit limit is refused, as it is
    in a JSON file: it could not be written back."""
    try:
        x = Fraction(text)
        fmt_rat(x)  # "1e5000" reads, but only int() checks the digit limit
        return x
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"unparsable rational {text!r}: {exc}") from exc


# Every shape or type error in a schedule file names the one format it takes.
_SCHEDULE_FORMAT = (
    'schedules are {"scale": D, "machines": [[cls, start, setup, k, job, dur, ...], ...], '
    '"compressed": [{"config": [cls, start, setup, k, job, dur, ...], "mult": n}, ...]}: '
    "a machine or config is one list of ints, its batches back to back, each a setup of "
    "cls from start, then exactly k >= 0 (job, dur) pairs, each running the class's jobs "
    "from job on for dur (the last one cut where dur ends), job -1 for idle time, in 1/D"
)


def emit_schedule(sched: Schedule) -> dict:
    """The schedule's own rows and scale, with its makespan; the payload
    shares the schedule's rows.  ContractError for a time that is not an
    int (only a hand-built schedule can hold one)."""
    rows = sched.rows()
    if list(map(type, chain.from_iterable(rows))).count(int) != sum(map(len, rows)):
        bad = next(x for x in chain.from_iterable(rows) if type(x) is not int)
        raise ContractError(f"schedule time {bad} is not an int on its scale")
    top = sched.end()
    scale = sched.scale
    g = math.gcd(top, scale)
    return {
        "scale": scale,
        "makespan": f"{top // g}/{scale // g}" if g != scale else str(top // g),
        "machines": sched.machines,
        "compressed": [{"config": config, "mult": mult} for config, mult in sched.compressed],
    }


def parse_schedule(raw, m: int) -> Schedule:
    """A schedule file as it is: its rows, ints on its scale, become the
    schedule's rows.  ValidationError for anything not of
    _SCHEDULE_FORMAT's shape, older files included; the verifier judges
    everything else."""
    if not (isinstance(raw, dict) and type(raw.get("scale")) is int and raw["scale"] >= 1
            and type(raw.get("machines")) is list):
        raise ValidationError(f"schedule needs an int scale >= 1 and a machines list; "
                              f"{_SCHEDULE_FORMAT}")
    entries = raw.get("compressed", [])
    if type(entries) is not list:
        raise ValidationError(f"compressed must be a list; {_SCHEDULE_FORMAT}")
    if not all(isinstance(entry, dict) and type(entry.get("mult")) is int for entry in entries):
        raise ValidationError(f"compressed entries need a config and an int mult; "
                              f"{_SCHEDULE_FORMAT}")
    compressed = [(entry.get("config"), entry["mult"]) for entry in entries]
    rows = raw["machines"] + [config for config, _ in compressed]
    # C-level passes: lists of exact ints (so no bool); then each row's
    # counts must tile it
    if (set(map(type, rows)) - {list}
            or list(map(type, chain.from_iterable(rows))).count(int) != sum(map(len, rows))):
        raise ValidationError(f"a machine or config must be one list of ints; {_SCHEDULE_FORMAT}")
    try:
        for row in rows:
            row_batches(row)
    except ValidationError as exc:
        raise ValidationError(f"{exc}; {_SCHEDULE_FORMAT}") from None
    return Schedule(m=m, machines=raw["machines"], compressed=compressed, scale=raw["scale"])


def _read_json(path: str):
    with (sys.stdin if path == "-" else open(path)) as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as exc:  # bad JSON or bytes, too many digits, deep nesting
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def _write_json(path, obj):
    text = json.dumps(obj, indent=1, sort_keys=True)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w") as f:
            f.write(text + "\n")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    inst = parse_instance(_read_json(args.infile))
    variant = Variant.parse(args.variant)
    guess = None if args.T is None else parse_rat(args.T)
    eps = DEFAULT_EPS if args.epsilon is None else parse_rat(args.epsilon)
    t0 = time.perf_counter()
    try:
        result = solve(inst, variant, args.algo, eps=eps, guess=guess)
    except Rejected as rej:
        _write_json(args.out, {"accepted": False, "reason": rej.reason, "LB": fmt_rat(rej.guess),
                               "wall_time": time.perf_counter() - t0})
        return 2
    summary = {
        "accepted": True,
        "makespan": fmt_rat(result.makespan),
        "LB": fmt_rat(result.lower_bound),
        "ratio_bound": fmt_rat(result.ratio_bound),
        "probes": len(result.probes),
        "wall_time": time.perf_counter() - t0,
    }
    payload = summary
    if args.emit == "schedule":
        payload = emit_schedule(result.schedule)
        payload["summary"] = summary
    _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    inst = parse_instance(_read_json(args.infile))
    sched = parse_schedule(_read_json(args.schedule), inst.m)
    variant = Variant.parse(args.variant)
    bound = parse_rat(args.bound)
    report = verify_schedule(inst, sched, variant, bound)
    if report.ok:
        print(f"ok makespan={fmt_rat(report.makespan)} bound={fmt_rat(bound)}")
        return 0
    # joined before any is printed: a line that cannot be written leaves stdout empty
    print("\n".join(map(str, report.violations)))
    return 3


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _parse_dist(spec: str):
    parts = spec.split(":")
    if len(parts) != 3 or parts[0] != "uniform":
        raise ValidationError(f"unknown distribution {spec!r} (expected uniform:lo:hi)")
    try:
        lo, hi = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad distribution bounds in {spec!r}") from exc
    if not (1 <= lo <= hi):
        raise ValidationError(f"bad distribution bounds in {spec!r}")
    return lo, hi


def generate_instance(
    seed: int,
    machines: int,
    classes: int,
    jobs_per_class: str = "uniform:1:5",
    setup: str = "uniform:1:20",
    proc: str = "uniform:1:20",
    profile: str = "uniform",
) -> Instance:
    """Deterministic random instance.  Profiles:

    uniform        draw everything as specified
    few-expensive  then raise ceil(c/3) setups above half the splittable
                   lower bound of the uniform draw
    many-small     double the job counts and shrink processing times
    """
    import random

    rng = random.Random(seed)
    jlo, jhi = _parse_dist(jobs_per_class)
    slo, shi = _parse_dist(setup)
    plo, phi = _parse_dist(proc)
    if profile == "many-small":
        jlo, jhi = 2 * jlo, 2 * jhi
        phi = max(plo, phi // 4)
    cls = []
    for _ in range(classes):
        nj = rng.randint(jlo, jhi)
        s = rng.randint(slo, shi)
        jobs = tuple(rng.randint(plo, phi) for _ in range(nj))
        cls.append([s, jobs])
    if profile == "few-expensive":
        draft = Instance(m=machines, classes=tuple(JobClass(s, jobs) for s, jobs in cls))
        est = lower_bound_tmin(draft, Variant.SPLITTABLE)
        boost = int(est / 2) + 1
        for k in range((classes + 2) // 3):
            cls[k][0] = max(cls[k][0], boost)
    elif profile != "uniform" and profile != "many-small":
        raise ValidationError(f"unknown profile {profile!r}")
    return Instance(m=machines, classes=tuple(JobClass(s, jobs) for s, jobs in cls))


def cmd_gen(args) -> int:
    inst = generate_instance(
        seed=args.seed,
        machines=args.machines,
        classes=args.classes,
        jobs_per_class=args.jobs_per_class,
        setup=args.setup,
        proc=args.proc,
        profile=args.profile,
    )
    _write_json(args.out, emit_instance(inst))
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # a usage error exits 1 through `main`, like any input error (2: a rejected guess)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="batchsched",
        description="Makespan scheduling with batch setup times: 2-, 3/2+eps- "
        "and exact-3/2 approximations with certified bounds",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    variants = [v.value for v in Variant]

    s = sub.add_parser("solve", help="solve an instance")
    s.add_argument("--variant", required=True, choices=variants)
    s.add_argument("--algo", required=True, choices=["two-approx", "dual", "eps", "jump"])
    s.add_argument("--T", default=None, help="guess for --algo dual (rational, e.g. 21/2)")
    s.add_argument("--epsilon", default=None, help="tolerance for --algo eps")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--emit", choices=["schedule", "summary"], default="schedule")
    s.set_defaults(fn=cmd_solve)

    v = sub.add_parser("verify", help="check a schedule against an instance")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--schedule", required=True)
    v.add_argument("--variant", required=True, choices=variants)
    v.add_argument("--bound", required=True)
    v.set_defaults(fn=cmd_verify)

    g = sub.add_parser("gen", help="generate a random instance")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--machines", type=int, required=True)
    g.add_argument("--classes", type=int, required=True)
    g.add_argument("--jobs-per-class", default="uniform:1:5")
    g.add_argument("--setup", default="uniform:1:20")
    g.add_argument("--proc", default="uniform:1:20")
    g.add_argument("--profile", default="uniform",
                   choices=["uniform", "few-expensive", "many-small"])
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
