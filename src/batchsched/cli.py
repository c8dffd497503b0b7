"""Command line: solve instances, verify schedules, generate random
instances.

Instance files:  {"m": int, "classes": [{"setup": int, "jobs": [int, ...]}]}
Schedule files:  {"scale": D, "makespan": "p/q",
                  "machines": [[row, ...], ...],
                  "compressed": [{"config": [row, ...], "mult": int}, ...]}
A row is [0, class, start, dur] for a setup or [1, class, start, dur, job,
piece] for a piece, its times ints t meaning t/D, so nothing is ever rounded;
other rationals (makespan, guesses, bounds) travel as "p/q" strings.
Schedule files in the older format, a dict per placement with "p/q" times,
are rejected: solve the instance again.

Exit codes: 0 ok, 1 input error, 2 guess rejected by the dual, 3 verification
failure.
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
    PIECE,
    SETUP,
    ContractError,
    Instance,
    JobClass,
    PlacementT,
    Rat,
    Schedule,
    ValidationError,
    Variant,
    emit_instance,
    fmt_rat,
    lower_bound_tmin,
    parse_instance,
    verify_schedule,
)
from .nonpreemptive import next_fit_two_approx
from .search import SearchResult, certified_report, epsilon_search, variant_ops
from .splittable import two_approx_split


def parse_rat(text: str) -> Rat:
    """ASCII "p/q" or "p" text directly, anything else as Fraction reads it.
    A numerator or denominator past CPython's int-string digit limit is
    refused, as it is in a JSON file: it could not be written back."""
    try:
        if isinstance(text, str):
            num, slash, den = text.partition("/")
            if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
                return Fraction(int(num), int(den) if slash else 1)
        x = Fraction(text)
        fmt_rat(x)  # "1e5000" reads, but only int() checks the digit limit
        return x
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"unparsable rational {text!r}: {exc}") from exc


# Every shape or type error in a schedule file names the one format it takes.
_SCHEDULE_FORMAT = (
    'schedules are {"scale": D, "machines": [[row, ...], ...], '
    '"compressed": [{"config": [row, ...], "mult": k}, ...]} with rows '
    "[0, class, start, dur] for a setup and [1, class, start, dur, job, piece] "
    "for a piece, times ints in units of 1/D"
)


def _row(p: PlacementT) -> list:
    kind, cls, start, dur, job, piece = p
    return [0, cls, start, dur] if kind == SETUP else [1, cls, start, dur, job, piece]


def emit_schedule(sched: Schedule) -> dict:
    """The schedule's own int times and scale as rows; ContractError for a
    schedule holding a non-int time (only a hand-built one can)."""
    scale, top = sched.scale, 0
    for _, _, start, dur, _, _ in sched.placements():
        if type(start) is not int or type(dur) is not int:
            raise ContractError(f"schedule time {start} + {dur} is not an int on its scale")
        top = max(top, start + dur)
    g = math.gcd(top, scale)
    return {
        "scale": scale,
        "makespan": f"{top // g}/{scale // g}" if g != scale else str(top // g),
        "machines": [[_row(p) for p in mach] for mach in sched.machines],
        "compressed": [
            {"config": [_row(p) for p in config], "mult": mult}
            for config, mult in sched.compressed
        ],
    }


def _rows(raw) -> list[PlacementT]:
    """Rows as placements, checking only their shape and types (exact ints,
    so no bool): the verifier judges everything else."""
    if type(raw) is not list or set(map(type, raw)) - {list} \
            or set(map(type, chain.from_iterable(raw))) - {int}:
        raise ValidationError(f"a machine or config must be a list of rows of ints; "
                              f"{_SCHEDULE_FORMAT}")
    out = []
    for r in raw:
        if len(r) == 4 and r[0] == 0:
            out.append((SETUP, r[1], r[2], r[3], None, None))
        elif len(r) == 6 and r[0] == 1:
            out.append((PIECE, r[1], r[2], r[3], r[4], r[5]))
        else:
            raise ValidationError(f"bad schedule row {r!r:.80}; {_SCHEDULE_FORMAT}")
    return out


def parse_schedule(raw, m: int) -> Schedule:
    """A schedule file's placements as ints on its scale.  ValidationError
    for anything not of _SCHEDULE_FORMAT's shape, older files included."""
    if not (isinstance(raw, dict) and type(raw.get("scale")) is int and raw["scale"] >= 1
            and type(raw.get("machines")) is list):
        raise ValidationError(f"schedule needs an int scale >= 1 and a machines list; "
                              f"{_SCHEDULE_FORMAT}")
    entries = raw.get("compressed", [])
    if type(entries) is not list:
        raise ValidationError(f"compressed must be a list; {_SCHEDULE_FORMAT}")
    compressed = []
    for entry in entries:
        if not (isinstance(entry, dict) and type(entry.get("mult")) is int):
            raise ValidationError(f"compressed entries need a config and an int mult; "
                                  f"{_SCHEDULE_FORMAT}")
        compressed.append((tuple(_rows(entry.get("config"))), entry["mult"]))
    machines = [_rows(mach) for mach in raw["machines"]]
    return Schedule(m=m, machines=machines, compressed=compressed, scale=raw["scale"])


def _read_json(path: str):
    with (sys.stdin if path == "-" else open(path)) as f:
        try:
            return json.load(f)
        except ValueError as exc:  # bad JSON or bytes, or an int past CPython's digit limit
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


def _two_approx(inst: Instance, variant: Variant) -> SearchResult:
    """The variant's 2-approximation, certified by the instance lower bound."""
    if variant is Variant.SPLITTABLE:
        sched, makespan = two_approx_split(inst)
    else:
        sched, makespan = next_fit_two_approx(inst, variant)
    tmin = lower_bound_tmin(inst, variant)
    return SearchResult(guess=2 * tmin, schedule=sched, lower_bound=tmin, makespan=makespan)


def _solve_one(inst: Instance, variant: Variant, algo: str, args) -> tuple[int, dict, Schedule]:
    """Returns (exit code, summary, schedule or None)."""
    t0 = time.perf_counter()
    if algo == "two-approx":
        result = _two_approx(inst, variant)
    elif algo == "dual":
        if args.T is None:
            raise ValidationError("--algo dual needs --T")
        guess = parse_rat(args.T)
        out = variant_ops(variant).dual(inst, guess)
        if not out.accepted:
            summary = {
                "accepted": False,
                "reason": out.reason,
                "LB": fmt_rat(guess),
                "wall_time": time.perf_counter() - t0,
            }
            return 2, summary, None
        result = SearchResult(
            guess=guess,
            schedule=out.schedule,
            lower_bound=lower_bound_tmin(inst, variant),
            makespan=out.schedule.makespan(),
            probes=[(guess, True)],
        )
    elif algo == "eps":
        eps = parse_rat(args.epsilon) if args.epsilon is not None else Fraction(1, 1000)
        result = epsilon_search(inst, variant, eps)
    elif algo == "jump":
        result = variant_ops(variant).search(inst)
    else:
        raise ValidationError(f"unknown algorithm {algo!r}")
    wall = time.perf_counter() - t0
    report = certified_report(result)
    summary = {
        "accepted": True,
        "makespan": fmt_rat(report.makespan),
        "LB": fmt_rat(report.lower_bound),
        "ratio_bound": fmt_rat(report.ratio_bound),
        "probes": len(result.probes),
        "wall_time": wall,
    }
    return 0, summary, result.schedule


def cmd_solve(args) -> int:
    inst = parse_instance(_read_json(args.infile))
    variant = Variant.parse(args.variant)
    code, summary, sched = _solve_one(inst, variant, args.algo, args)
    if args.emit == "schedule" and sched is not None:
        payload = emit_schedule(sched)
        payload["summary"] = summary
    else:
        payload = summary
    _write_json(args.out, payload)
    return code


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
    for v in report.violations:
        print(str(v))
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="batchsched",
        description="Makespan scheduling with batch setup times: 2-, 3/2+eps- "
        "and exact-3/2 approximations with certified bounds",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve an instance")
    s.add_argument("--variant", required=True, choices=["split", "pmtn", "nonp"])
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
    v.add_argument("--variant", required=True, choices=["split", "pmtn", "nonp"])
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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
