"""Command-line front end: growth tables, conjugacy counts, gcd sums, reports.

Tables are CSV (first line is a `# manifest: ...` reference, then a header
row); reports are JSON with the manifest embedded.  Outputs are deterministic
for a fixed argv + spec; only the manifest sidecar carries timing.

Exit codes: 0 success, 2 usage/input error, 3 budget exceeded, 4 structural
failure (a mathematical invariant broke).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, fields, replace
from functools import cache
from pathlib import Path

from . import __version__
from .autos import (
    automorphism_from_json_dict,
    extension_conjugacy_growth,
    twisted_growth_bruteforce,
    twisted_growth_structural,
    verify_automorphism,
)
from .conjugacy import (
    conjugacy_growth_bounds,
    conjugacy_growth_exact,
    conjugacy_growth_oracle,
    hd_embeddings,
)
from .errors import BudgetError, SpecError, StructuralError
from .gcdsums import L1, LatticeBallSpec, cube_gcd_sums, gcd_sum, l1_gcd_sums
from .groups import NAMED_SPECS, GroupSpec, named_spec, spec_from_json_dict
from .series import detect_quasi_polynomial, select_asymptotic_model
from .verify import run_verification
from .words import central_growth, check_budget, enumerate_ball, resolve_budget, standard_generating_set

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_STRUCTURAL = 4


def load_spec(value: str) -> GroupSpec:
    """A named spec (H1, H2, H3, ZxH1, HD2) or a path to a spec JSON file."""
    if value in NAMED_SPECS:
        return named_spec(value)
    path = Path(value)
    if not path.exists():
        raise SpecError(f"unknown spec {value!r}: not a named spec or a file")
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SpecError(f"bad spec file {value}: {exc}") from exc
    return spec_from_json_dict(data)


def spec_digest(spec: GroupSpec) -> str:
    blob = json.dumps(spec.to_json_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise SpecError(f"window must look like A:B, got {text!r}") from exc


def _parse_offset(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise SpecError(f"offset must be comma-separated integers, got {text!r}") from exc


def _manifest(args, spec: GroupSpec | None, started: float, extra: dict | None = None) -> dict:
    params = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    out = {
        "subcommand": args.command,
        "parameters": params,
        "spec": spec.to_json_dict() if spec else None,
        "spec_sha256": spec_digest(spec) if spec else None,
        "version": __version__,
        "budget": resolve_budget(getattr(args, "budget", None)),
        "wall_time_s": round(time.time() - started, 3),
    }
    if extra:
        out.update(extra)
    return out


def _emit_table(out: str | None, header: list[str], rows, manifest: dict) -> None:
    if out is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
        return
    path = Path(out)
    sidecar = Path(path.parent, path.name + ".manifest.json")
    manifest["output"] = path.name
    # The sidecar goes first and is removed if the table fails, so a failed write leaves neither behind.
    sidecar.write_text(json.dumps(manifest, indent=2) + "\n")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(f"# manifest: {sidecar.name}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError:
        sidecar.unlink()
        raise


def _emit_report(out: str | None, report: dict, manifest: dict) -> None:
    text = json.dumps({**report, "manifest": manifest}, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cell(text: str) -> int | float:
    """An integer literal exactly, any other number as a float; a non-finite float is refused."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _read_table(path: str) -> list[int | float]:
    """CSV with an n column first and the value in the last column, n contiguous from 0 or 1."""
    try:
        with open(path, newline="") as fh:
            rows = [next(csv.reader([line])) for line in fh if line.strip() and not line.startswith("#")]
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read table {path}: {exc}") from exc
    body = rows[1:] if rows and not rows[0][0].lstrip("-").isdigit() else rows
    pairs = []
    for row in body:
        try:
            pairs.append((int(row[0]), _cell(row[-1])))
        except ValueError as exc:
            raise SpecError(f"bad table row {row}: {exc}") from exc
    if not pairs:
        raise SpecError(f"empty table {path}")
    pairs.sort()
    start = pairs[0][0]
    if start not in (0, 1) or any(n != start + i for i, (n, _) in enumerate(pairs)):
        raise SpecError("table must have contiguous n starting at 0 or 1")
    return [0] * start + [v for _, v in pairs]


def _load_automorphism(spec: GroupSpec, path: str):
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"bad automorphism file {path}: {exc}") from exc
    f = automorphism_from_json_dict(spec, data)
    verify_automorphism(spec, f, trials=100)
    return f


# Each cmd_* only computes.  A table command returns (header, rows), plus a dict
# of manifest extras; a report command returns the report dict; `verify` prints
# its own lines and returns its exit code.  `main` loads the spec, times the run
# and writes every table and report.


def cmd_ball(args, spec):
    table = enumerate_ball(spec, standard_generating_set(spec), args.radius, budget=args.budget)
    balls = table.ball_sizes()
    return ["n", "sphere", "ball"], [(n, table.sphere_sizes[n], balls[n]) for n in range(args.radius + 1)]


def cmd_growth(args, spec):
    gens = standard_generating_set(spec)
    if args.mode == "word":
        counts = enumerate_ball(spec, gens, args.radius, budget=args.budget).ball_sizes()
    else:
        counts = central_growth(spec, gens, args.radius, budget=args.budget)
    return ["n", "count"], list(enumerate(counts))


def cmd_conj(args, spec):
    gens = standard_generating_set(spec)
    if args.mode == "bounds":
        reports = conjugacy_growth_bounds(spec, args.radius, budget=args.budget)
        return ["n", "lower", "upper", "central_exact"], [
            (rep.n, rep.lower, rep.upper, int(rep.central_exact)) for rep in reports
        ]
    count = conjugacy_growth_exact if args.mode == "exact" else conjugacy_growth_oracle
    return ["n", "classes"], list(enumerate(count(spec, gens, args.radius, budget=args.budget)))


def cmd_gcdsum(args, spec):
    if args.step < 1:
        raise SpecError("step must be >= 1")
    offset = _parse_offset(args.offset) if args.offset else ()
    ball = LatticeBallSpec(dim=args.dim, radius=args.radius, norm=args.norm, offset=offset)
    radii = range(1, ball.radius + 1, args.step)
    check_budget(len(radii), args.budget, "rows of the gcd-sum table")
    if args.method == "direct":
        # One pass at the last sampled radius gives every row.
        sequence = l1_gcd_sums if ball.norm == L1 else cube_gcd_sums
        sums = sequence(ball.dim, radii[-1], ball.offset, budget=args.budget) if radii else []
        return ["n", "sum"], [(n, sums[n]) for n in radii]
    # The sieve keeps one gcd_sum call per row: perfbench's test_route_mismatch_fails corrupts the sieve
    # route by patching this module's gcd_sum alone, so a sequence call here would hide that corruption.
    return ["n", "sum"], [(n, gcd_sum(replace(ball, radius=n), budget=args.budget, method="sieve")) for n in radii]


def cmd_twisted(args, spec):
    gens = standard_generating_set(spec)
    f = _load_automorphism(spec, args.auto)
    if args.mode == "structural":
        counts = twisted_growth_structural(spec, f, args.radius, gens=gens, budget=args.budget)
        return ["n", "classes"], list(enumerate(counts))
    res = twisted_growth_bruteforce(
        spec, gens, f, args.radius, conjugator_radius=args.conjugator_radius, budget=args.budget
    )
    if not res.stable:
        print(
            f"warning: twisted counts not stable: conjugator radius {res.conjugator_radius} gives "
            f"{res.first_pass_counts}, radius {res.conjugator_radius + 2} gives {res.counts}",
            file=sys.stderr,
        )
    extra = {"stable": res.stable, "conjugator_radius": res.conjugator_radius}
    return ["n", "classes"], list(enumerate(res.counts)), extra


def cmd_extension(args, spec):
    gens = standard_generating_set(spec)
    f = _load_automorphism(spec, args.auto)
    counts = extension_conjugacy_growth(spec, gens, f, args.order, args.radius, budget=args.budget)
    return ["n", "classes"], list(enumerate(counts))


def cmd_embeddings(args, spec):
    rep = hd_embeddings(spec, budget=args.budget)
    return {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "spec"}


def cmd_series(args, spec):
    values = _read_table(args.infile)
    if args.action == "fit":
        if args.window is None:
            raise SpecError("fit requires --window A:B")
        model = select_asymptotic_model(values, _parse_window(args.window))
        return asdict(model)
    if any(v != int(v) for v in values):
        raise SpecError("quasi-polynomial detection needs integer values")
    qp = detect_quasi_polynomial(values, args.max_period, args.max_degree)
    if qp is None:
        return {"found": False}
    return {
        "found": True,
        "period": qp.period,
        "threshold": qp.threshold,
        "degree": qp.degree,
        "polys": [[str(c) for c in p] for p in qp.polys],
    }


def cmd_verify(args, spec) -> int:
    results = run_verification(spec, quick=args.quick)
    failed = 0
    for res in results:
        if res.ok:
            print(f"ok   {res.name}")
        else:
            failed += 1
            print(f"FAIL {res.name}: {res.detail}")
    print(f"passed {len(results) - failed}/{len(results)} checks")
    return EXIT_STRUCTURAL if failed else EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every parse makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="nilgrowth",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True, radius=True):
        if spec:
            p.add_argument("--spec", default="H1", help="named spec (H1,H2,H3,ZxH1,HD2) or JSON file")
        if radius:
            p.add_argument("--radius", type=int, required=True, help="max word length n")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--budget", type=int, help="element cap (default env NILGROWTH_BUDGET or 10^8)")

    p = sub.add_parser("ball", help="ball/sphere sizes", description="Columns: n, sphere (size of sphere n), ball (cumulative).")
    common(p)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("growth", help="word or central growth", description="Columns: n, count (ball size, or central elements up to n).")
    common(p)
    p.add_argument("--mode", choices=["word", "central"], default="word")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("conj", help="conjugacy growth", description="Columns: n, classes (exact/oracle) or n, lower, upper, central_exact (bounds).")
    common(p)
    p.add_argument("--mode", choices=["exact", "oracle", "bounds"], default="exact")
    p.set_defaults(func=cmd_conj)

    p = sub.add_parser("gcdsum", help="lattice gcd-sum sweep", description="Columns: n, sum (gcd sum over the n-ball).")
    common(p, spec=False)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--norm", choices=["cube", "l1"], default="cube")
    p.add_argument("--offset", help="comma-separated integers, e.g. 3,-5")
    p.add_argument("--method", choices=["direct", "sieve"], default="direct")
    p.add_argument("--step", type=int, default=1, help="sample every step-th radius")
    p.set_defaults(func=cmd_gcdsum)

    p = sub.add_parser("twisted", help="twisted conjugacy growth", description="Columns: n, classes.")
    common(p)
    p.add_argument("--auto", required=True, help='JSON file {"M": [[..]], "kappa": [..]}')
    p.add_argument("--mode", choices=["brute", "structural"], default="brute")
    p.add_argument("--conjugator-radius", type=int, help="conjugator ball radius (default n+2)")
    p.set_defaults(func=cmd_twisted)

    p = sub.add_parser("extension", help="conjugacy growth of H x| Z/k", description="Columns: n, classes.")
    common(p)
    p.add_argument("--auto", required=True, help='JSON file {"M": [[..]], "kappa": [..]}')
    p.add_argument("--order", type=int, required=True, help="order k of the automorphism")
    p.set_defaults(func=cmd_extension)

    p = sub.add_parser("embeddings", help="sandwich subgroup indices", description="JSON report of indices and checks.")
    common(p, radius=False)
    p.set_defaults(func=cmd_embeddings)

    p = sub.add_parser("series", help="sequence analysis", description="detect-qp: exact quasi-polynomial search. fit: n^d vs n^d log n model.")
    p.add_argument("action", choices=["detect-qp", "fit"])
    p.add_argument("--in", dest="infile", required=True, help="input CSV (n first column, value last)")
    p.add_argument("--window", help="fit window A:B (inclusive)")
    p.add_argument("--max-period", type=int, default=4)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run the invariant suite", description="Prints one line per check; exit 4 on any failure.")
    p.add_argument("--spec", default="H1")
    p.add_argument("--quick", action="store_true", help="smaller radii")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        spec = load_spec(args.spec) if "spec" in vars(args) else None
        result = args.func(args, spec)
        if isinstance(result, int):  # verify prints its own lines
            return result
        is_table = isinstance(result, tuple)
        header, rows, *extra = result if is_table else (None, None)
        manifest = _manifest(args, spec, started, *extra)
        try:
            if is_table:
                _emit_table(args.out, header, rows, manifest)
            else:
                _emit_report(args.out, result, manifest)
        except OSError as exc:
            raise SpecError(f"cannot write output: {exc}") from exc
        return EXIT_OK
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except StructuralError as exc:
        print(f"structural failure: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
