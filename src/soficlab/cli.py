"""Command-line driver.

Subcommands: build the generator images and permutation files, run a
verification suite, emit measurement tables as CSV, classify planted
partitions, and demonstrate induction.  Exit codes: 0 all checks passed,
1 a check failed, 2 usage error, 3 resource refusal.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .groups import (
    GenerationCheckError,
    ResourceBudgetError,
    build_hom_specs,
    hom_family_to_json,
)
from .perms import write_perm
from .report import RunReport, jsonable
from .sofic import build_sigma, build_tilde_sigma
from .suites import (
    DEFAULT_PRIMES,
    SUITES,
    measure_boundary,
    measure_defect,
    measure_spectra,
    suite_induction,
)
from .partitions import CANDIDATE_KEY_DIMS, CylinderPartition, classify_candidates
from .algebra import psl2_order

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
        {"p": args.p, "m": args.m, "k": args.k, "seed": args.seed},
    )
    # build the whole model first: a refused build leaves no directory
    family = build_hom_specs(args.p, args.m, args.k)
    sigma = build_sigma(args.p, args.m, args.k, family=family)
    if sigma.mode == "exact":
        tilde = build_tilde_sigma(args.p, args.m, args.k, family=family)
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
        for name, perm in sigma.images.items():
            path = out_dir / f"sigma_{name}.sprm"
            write_perm(path, perm, sidecar={
                "p": args.p, "generator": name, "construction": "g-model",
                "seed": args.seed,
            })
            report.add_artifact(path.name, path)
        for name, perm in tilde.images.items():
            path = out_dir / f"tilde_{name}_second_factor.sprm"
            write_perm(path, perm.factors[1], sidecar={
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
            "m": args.m,
            "k": args.k,
            "domain_size": str(3**args.p * psl2_order(args.p)),
            "note": "domain too large to enumerate; rebuild from homspecs.json",
        }
        path = out_dir / "implicit_model.json"
        path.write_text(json.dumps(desc, indent=2, sort_keys=True) + "\n")
        report.add_artifact(path.name, path)
        report.add_check("implicit-descriptor-written", True, True, True)
    report.finish()
    _write_report(report, out_dir)
    _print_report(report)
    return report.exit_code


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    kwargs = {"seed": args.seed}
    if args.suite in ("four-conditions", "soficity", "partition") and args.p:
        kwargs["p"] = args.p
    report = suite(**kwargs)
    _write_report(report, args.out)
    _print_report(report)
    return report.exit_code


def _write_csv(rows, path, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: jsonable(row.get(c)) for c in columns})


def cmd_measure(args) -> int:
    primes = tuple(int(p) for p in args.primes.split(","))
    for p in primes:
        if p % 3 != 1:
            print(f"prime {p} is not 1 mod 3", file=sys.stderr)
            return EXIT_USAGE
    if args.table == "boundary":
        rows = measure_boundary(primes)
        cols = ["p", "generator", "family", "ratio_domain", "ratio_witness",
                "sqrt_p_scaled", "mode"]
    elif args.table == "defect":
        if args.mode == "exact" and any(p > 7 for p in primes):
            print("exact defect tables past the enumerable domain are refused; "
                  "use --mode sampled", file=sys.stderr)
            return EXIT_RESOURCE
        rows = measure_defect(primes, samples=args.samples, seed=args.seed)
        cols = ["p", "mode", "value", "radius", "samples", "seed"]
    elif args.table == "spectra":
        rows = measure_spectra(primes, seed=args.seed)
        cols = ["p", "family", "N", "degree", "lambda2", "gap", "residual",
                "iterations", "seed"]
    else:
        return EXIT_USAGE
    out = args.out or f"{args.table}.csv"
    _write_csv(rows, out, cols)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_partition(args) -> int:
    report = RunReport("partition", {"p": args.p, "plant": args.plant,
                                     "seed": args.seed})
    family = build_hom_specs(args.p, args.m, args.k)
    sizes = (3**args.p, psl2_order(args.p), psl2_order(family.r_p))
    plants = list(CANDIDATE_KEY_DIMS) if args.plant == "all" else [args.plant]
    for plant in plants:
        if plant not in CANDIDATE_KEY_DIMS:
            print(f"unknown candidate {plant!r}; choices: "
                  f"{', '.join(CANDIDATE_KEY_DIMS)}", file=sys.stderr)
            return EXIT_USAGE
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


def cmd_induce(args) -> int:
    report = suite_induction(seed=args.seed)
    _write_report(report, args.out)
    _print_report(report)
    return report.exit_code


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="soficlab",
        description="Construction and desk-scale verification of "
                    "almost-multiplicative permutation models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct generator images and permutations")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--m", type=int, default=5)
    b.add_argument("--k", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    me = sub.add_parser("measure", help="emit a measurement table as CSV")
    me.add_argument("table", choices=["boundary", "defect", "spectra"])
    me.add_argument("--primes", default=",".join(str(p) for p in DEFAULT_PRIMES))
    me.add_argument("--samples", type=int, default=50_000)
    me.add_argument("--seed", type=int, default=17)
    me.add_argument("--mode", choices=["exact", "sampled"], default="sampled")
    me.add_argument("--out", default=None)
    me.set_defaults(fn=cmd_measure)

    pt = sub.add_parser("partition", help="classify planted fiber partitions")
    pt.add_argument("--p", type=int, default=7)
    pt.add_argument("--m", type=int, default=5)
    pt.add_argument("--k", type=int, default=3)
    pt.add_argument("--plant", default="all")
    pt.add_argument("--seed", type=int, default=3)
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn=cmd_partition)

    ind = sub.add_parser("induce", help="run the induction checks")
    ind.add_argument("--seed", type=int, default=5)
    ind.add_argument("--out", default=None)
    ind.set_defaults(fn=cmd_induce)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResourceBudgetError as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except GenerationCheckError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
