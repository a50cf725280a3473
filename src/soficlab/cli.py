"""Command-line driver.

Subcommands: build the generator images and permutation files, run a
verification suite, emit measurement tables as CSV, and classify planted
partitions.  Exit codes: 0 all checks passed, 1 a check failed, 2 usage
error, 3 resource refusal.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from pathlib import Path

from .f3vectors import _check_p
from .groups import (
    GenerationCheckError,
    ResourceBudgetError,
    build_hom_specs,
    hom_family_to_json,
)
from .perms import materialize, write_perm
from .report import RunReport, jsonable
from .sofic import build_sigma, build_tilde_sigma
from .suites import (
    DEFAULT_PRIMES,
    K,
    M,
    SUITES,
    measure_boundary,
    measure_defect,
    measure_spectra,
)
from .partitions import CANDIDATE_KEY_DIMS, CylinderPartition, classify_candidates
from .algebra import next_prime, psl2_order

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

def _write_report(report: RunReport, out_dir) -> None:
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json() + "\n")


def _print_report(report: RunReport) -> None:
    for line in report.summary_lines():
        print(line)
    print(f"{report.command}: {'ok' if report.all_pass else 'FAILED'} "
          f"({report.wall_time_s:.1f}s)")


def cmd_build(args) -> int:
    report = RunReport(
        "build",
        {"p": args.p, "m": M, "k": K, "seed": args.seed},
    )
    # build the whole model first: a refused build leaves no directory
    family = build_hom_specs(args.p, M, K)
    sigma = build_sigma(family)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.parameters["r_p"] = family.r_p
    for name, check in family.checks.items():
        report.add_check(f"generation:{name}", check["order"], check["expected"],
                         check["pass"])
    spec_path = out_dir / "homspecs.json"
    spec_path.write_text(hom_family_to_json(family) + "\n")
    report.add_artifact("homspecs.json", spec_path)

    report.parameters["mode"] = sigma.mode
    if sigma.mode == "exact":
        # one image array at a time; materialize checks each is a bijection
        for name, perm in sigma.images.items():
            path = out_dir / f"sigma_{name}.sprm"
            write_perm(path, materialize(perm), sidecar={
                "p": args.p, "generator": name, "construction": "g-model",
                "seed": args.seed,
            })
            report.add_artifact(path.name, path)
        for name, perm in build_tilde_sigma(family).images.items():
            path = out_dir / f"tilde_{name}_second_factor.sprm"
            write_perm(path, perm, sidecar={
                "p": args.p, "r_p": family.r_p, "generator": name,
                "construction": "second-factor", "seed": args.seed,
            })
            report.add_artifact(path.name, path)
        report.add_check("sigma-images-bijective", True, True, True,
                         domain=sigma.domain.size)
    else:
        desc = {
            "format": "soficlab-implicit-model",
            "version": 1,
            "p": args.p,
            "r_p": family.r_p,
            "m": M,
            "k": K,
            "domain_size": str(3**args.p * psl2_order(args.p)),
            "note": "domain too large to enumerate; generator images are in homspecs.json",
        }
        path = out_dir / "implicit_model.json"
        path.write_text(json.dumps(desc, indent=2, sort_keys=True) + "\n")
        report.add_artifact(path.name, path)
        report.add_check("implicit-descriptor-written", True, True, True)
    report.finish()
    _write_report(report, out_dir)
    _print_report(report)
    return report.exit_code


def _suite_options(args) -> dict:
    """--p and --seed, for the suite's parameters of those names only."""
    given = {"p": args.p, "seed": args.seed}
    taken = inspect.signature(SUITES[args.suite]).parameters
    return {name: value for name, value in given.items()
            if name in taken and value is not None}


def cmd_verify(args) -> int:
    report = SUITES[args.suite](**_suite_options(args))
    _write_report(report, args.out)
    _print_report(report)
    return report.exit_code


def _write_csv(rows, path):
    """One CSV row per dict, with the first row's keys as the columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({c: jsonable(v) for c, v in row.items()})


def cmd_measure(args) -> int:
    primes = args.primes or DEFAULT_PRIMES
    out = Path(args.out or f"{args.table}.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    # without --seed each table keeps its own default seed
    seed = {} if args.seed is None else {"seed": args.seed}
    if args.table == "boundary":
        rows = measure_boundary(primes)
    elif args.table == "defect":
        rows = measure_defect(primes, samples=args.samples, **seed)
    else:
        rows = measure_spectra(primes, **seed)
    _write_csv(rows, out)
    print(f"wrote {out} ({len(rows)} rows)")
    # a spectra row is a measurement only once every pair has converged
    unconverged = [row for row in rows if row.get("converged") is False]
    for row in unconverged:
        print(f"check failure: measure spectra p={row['p']} did not converge "
              f"(residual {row['residual']:.2e})", file=sys.stderr)
    return EXIT_CHECK_FAILED if unconverged else EXIT_OK


def cmd_partition(args) -> int:
    plants = list(CANDIDATE_KEY_DIMS) if args.plant == "all" else [args.plant]
    if any(plant not in CANDIDATE_KEY_DIMS for plant in plants):
        print(f"unknown candidate {args.plant!r}; choices: "
              f"{', '.join(CANDIDATE_KEY_DIMS)}", file=sys.stderr)
        return EXIT_USAGE
    report = RunReport("partition", {"p": args.p, "plant": args.plant})
    sizes = (3**args.p, psl2_order(args.p), psl2_order(next_prime(args.p)))
    for plant in plants:
        ranked = classify_candidates(
            CylinderPartition(sizes, CANDIDATE_KEY_DIMS[plant])
        )
        best = ranked[0]
        report.add_check(
            f"recover-{plant}", best.subgroup, plant,
            best.subgroup == plant and best.residual == 0,
            residuals={h.subgroup: h.residual for h in ranked},
        )
    report.finish()
    _write_report(report, args.out)
    _print_report(report)
    return report.exit_code


def _prime_list(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="soficlab",
        description="Construction and desk-scale verification of "
                    "almost-multiplicative permutation models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct generator images and permutations")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--seed", type=_nonnegative_int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--seed", type=_nonnegative_int, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    me = sub.add_parser("measure", help="emit a measurement table as CSV")
    me.add_argument("table", choices=["boundary", "defect", "spectra"])
    me.add_argument("--primes", type=_prime_list, default=None,
                    help="default: 7,13,19,31,37; spectra refuses p >= 67, past "
                         "the largest prime measured end to end (p = 61)")
    me.add_argument("--samples", type=_positive_int, default=50_000)
    me.add_argument("--seed", type=_nonnegative_int, default=None,
                    help="default: each table's own (defect 17, spectra 2)")
    me.add_argument("--out", default=None)
    me.set_defaults(fn=cmd_measure)

    pt = sub.add_parser("partition", help="classify planted fiber partitions")
    pt.add_argument("--p", type=int, default=7)
    pt.add_argument("--plant", default="all")
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn=cmd_partition)
    return ap


def _primes_used(args) -> tuple:
    """Every prime the parsed command builds for, from --p or --primes."""
    if args.command == "measure":
        return args.primes or ()
    p = _suite_options(args).get("p") if args.command == "verify" else args.p
    return () if p is None else (p,)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        for p in _primes_used(args):
            _check_p(p)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except ResourceBudgetError as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except GenerationCheckError as exc:
        # only a failed check exits 1: any other error is a fault of the
        # program and ends in a traceback
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
