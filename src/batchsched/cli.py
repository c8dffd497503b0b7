"""Command line: solve instances, verify schedules, generate random
instances, benchmark algorithm suites.

Instance files:  {"m": int, "classes": [{"setup": int, "jobs": [int, ...]}]}
Schedule files:  {"makespan": "p/q",
                  "machines": [[{"kind": "setup"|"piece", "class": i,
                                 "job": j, "piece": k,
                                 "start": "p/q", "dur": "p/q"}, ...], ...],
                  "compressed": [{"config": [...], "mult": int}, ...]}
Rationals travel as "p/q" strings so nothing is ever rounded.

Exit codes: 0 ok, 1 input error, 2 guess rejected by the dual, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from fractions import Fraction

from .core import (
    PIECE,
    SETUP,
    Instance,
    JobClass,
    Placement,
    Rat,
    Schedule,
    ValidationError,
    Variant,
    emit_instance,
    lower_bound_tmin,
    parse_instance,
    verify_schedule,
)
from .nonpreemptive import exact_integer_search_nonp, next_fit_two_approx
from .preemptive import class_jump_pmtn
from .search import SearchResult, certified_report, epsilon_search, variant_ops
from .splittable import class_jump_split, two_approx_split


def parse_rat(text: str) -> Rat:
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"unparsable rational {text!r}") from exc


def fmt_rat(x: Rat) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _placement_to_json(p: Placement) -> dict:
    out = {"kind": p.kind, "class": p.cls, "start": fmt_rat(p.start), "dur": fmt_rat(p.dur)}
    if p.kind == PIECE:
        out["job"] = p.job
        out["piece"] = p.piece
    return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _placement_from_json(raw: dict) -> Placement:
    if not isinstance(raw, dict):
        raise ValidationError("placement must be an object")
    for key in ("kind", "class", "start", "dur"):
        if key not in raw:
            raise ValidationError(f"placement missing field {key!r}")
    kind = raw["kind"]
    if kind not in (SETUP, PIECE):
        raise ValidationError(f"unknown placement kind {kind!r}")
    cls, job, piece = raw["class"], raw.get("job"), raw.get("piece")
    if not (_is_int(cls) and (job is None or _is_int(job)) and (piece is None or _is_int(piece))):
        raise ValidationError("placement class, job and piece must be integers")
    return Placement(kind, cls, parse_rat(raw["start"]), parse_rat(raw["dur"]), job=job, piece=piece)


def emit_schedule(sched: Schedule) -> dict:
    return {
        "makespan": fmt_rat(sched.makespan()),
        "machines": [[_placement_to_json(p) for p in mach] for mach in sched.machines],
        "compressed": [
            {"config": [_placement_to_json(p) for p in config], "mult": mult}
            for config, mult in sched.compressed
        ],
    }


def parse_schedule(raw: dict, m: int) -> Schedule:
    if not isinstance(raw, dict) or not isinstance(raw.get("machines"), list):
        raise ValidationError("schedule must be an object with a machines list")
    entries = raw.get("compressed", [])
    if not isinstance(entries, list):
        raise ValidationError("compressed must be a list")
    machines = []
    for mach in raw["machines"]:
        if not isinstance(mach, list):
            raise ValidationError("each machine must be a list of placements")
        machines.append([_placement_from_json(p) for p in mach])
    compressed = []
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("config"), list)
            and _is_int(entry.get("mult"))
        ):
            raise ValidationError("compressed entries need a config list and an integer mult")
        compressed.append((tuple(_placement_from_json(p) for p in entry["config"]), entry["mult"]))
    return Schedule(m=m, machines=machines, compressed=compressed)


def _read_json(path: str):
    with (sys.stdin if path == "-" else open(path)) as f:
        return json.load(f)


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
# bench
# ---------------------------------------------------------------------------


_BENCH_ALGOS = {
    "split-two": lambda inst: _two_approx(inst, Variant.SPLITTABLE),
    "pmtn-two": lambda inst: _two_approx(inst, Variant.PREEMPTIVE),
    "nonp-two": lambda inst: _two_approx(inst, Variant.NONPREEMPTIVE),
    "split-jump": class_jump_split,
    "pmtn-jump": class_jump_pmtn,
    "nonp-int": exact_integer_search_nonp,
    "split-eps": lambda inst: epsilon_search(inst, Variant.SPLITTABLE, Fraction(1, 1000)),
    "pmtn-eps": lambda inst: epsilon_search(inst, Variant.PREEMPTIVE, Fraction(1, 1000)),
    "nonp-eps": lambda inst: epsilon_search(inst, Variant.NONPREEMPTIVE, Fraction(1, 1000)),
}


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise ValidationError("--repeat must be >= 1")
    names = sorted(os.listdir(args.suite))
    paths = [os.path.join(args.suite, n) for n in names if n.endswith(".json")]
    if not paths:
        print("no instance files in suite", file=sys.stderr)
        return 1
    algos = args.algos.split(",")
    for a in algos:
        if a not in _BENCH_ALGOS:
            print(f"unknown algo {a!r}; known: {', '.join(sorted(_BENCH_ALGOS))}", file=sys.stderr)
            return 1
    instances = []
    for path in paths:
        inst = parse_instance(_read_json(path))
        instances.append((os.path.basename(path), inst))
    instances.sort(key=lambda e: e[1].n)

    all_rows = []
    for name, inst in instances:
        for algo in algos:
            fn = _BENCH_ALGOS[algo]
            times = []
            result = None
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                result = fn(inst)
                times.append(time.perf_counter() - t0)
            ratio = certified_report(result).ratio_bound
            all_rows.append((name, inst.n, algo, result.makespan, ratio, statistics.median(times)))

    print(f"{'instance':24s} {'n':>8s} {'algo':12s} {'makespan':>14s} {'ratio<=':>10s} "
          f"{'median_s':>9s} {'x_prev':>7s}")
    last: dict[str, float] = {}
    for name, n, algo, makespan, ratio, med in all_rows:
        scale = f"{med / last[algo]:.2f}" if algo in last and last[algo] > 0 else "-"
        last[algo] = med
        print(f"{name:24s} {n:8d} {algo:12s} {float(makespan):14.2f} "
              f"{float(ratio):10.4f} {med:9.3f} {scale:>7s}")
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

    b = sub.add_parser("bench", help="run algorithms over a directory of instances")
    b.add_argument("--suite", required=True)
    b.add_argument("--algos", default="split-jump,pmtn-jump,nonp-int")
    b.add_argument("--repeat", type=int, default=1)
    b.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
