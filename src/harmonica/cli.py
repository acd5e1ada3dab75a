"""Command-line front end: build spaces, run verification suites, export.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 resource refusal.
A build whose closed-form check fails (`ArithmeticError`) is a check
failure: `verify` reports it as a failing check of the suite that built the
space, and the other commands in one stderr line.
Each command imports only the modules it runs: `compute` and `--version`
load neither `verify` nor `structure` nor `operators`, and only `verify
--suite all` loads `multiprocessing`, to run its suites in forked workers
over the spaces it built first (`verify.run_suite`).  A worker that dies
ends the command with `BrokenProcessPool`, exit 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

from . import __version__
from .spaces import (
    HilbertSeries,
    ResourceCapExceeded,
    _check_cap,
    antisymmetric_ideal,
    coinvariants,
    harmonics,
    hook_component,
    ideal_quotient_series,
    sign_component,
)


def _cache_dir(args) -> str | None:
    if args.cache_dir:
        return args.cache_dir
    env = os.environ.get("HARMONICA_CACHE")
    return env if env else None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).parent.mkdir(parents=True, exist_ok=True)
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SystemExit(f"harmonica: cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cached(build, args):
    return build(args.n, allow_large=args.allow_large, cache_dir=_cache_dir(args))


# compute kind -> what it builds: a space, or for the two ideal quotients
# only a series, which is reported without a per-a line.
_COMPUTE = {
    "drn": lambda args: _cached(coinvariants, args),
    "drn-sign": lambda args: sign_component(_cached(coinvariants, args)),
    "hook": lambda args: _cached(hook_component, args),
    "dh": lambda args: _cached(harmonics, args),
    "dh-sign": lambda args: sign_component(_cached(harmonics, args)),
    "j": lambda args: antisymmetric_ideal(args.n, "J"),
    "mj": lambda args: antisymmetric_ideal(args.n, "mJ"),
    "jbar": lambda args: antisymmetric_ideal(args.n, "Jbar"),
    "mjbar": lambda args: antisymmetric_ideal(args.n, "mJbar"),
    "j-quotient": lambda args: ideal_quotient_series(args.n, reduced=False),
    "jbar-quotient": lambda args: ideal_quotient_series(args.n, reduced=True),
}
SPACE_KINDS = tuple(_COMPUTE)


def cmd_compute(args) -> int:
    _check_cap(args.n, args.allow_large)  # every kind, before anything is built
    built = _COMPUTE[args.space](args)
    is_space = not isinstance(built, HilbertSeries)
    series = built.hilbert() if is_space else built
    lines = [f"space: {args.space} (n={args.n})",
             f"hilbert: {series.render()}",
             f"total: {series.total()}"]
    per_a = series.per_a()
    if is_space and (len(per_a) > 1 or (per_a and 0 not in per_a)):
        lines.append("per-a: " + ",".join(str(per_a.get(a, 0)) for a in range(max(per_a) + 1)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import report, run_suite
    results = run_suite(args.n, args.suite, allow_large=args.allow_large, cache_dir=_cache_dir(args))
    payload = report(args.n, args.suite, results, timings=args.timings)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0 if payload["overall"] == "pass" else 1


def cmd_export(args) -> int:
    import csv
    from .structure import GradingDictionary, export_homology
    dictionary = None
    if args.dict:
        try:
            data = json.loads(Path(args.dict).read_text(encoding="utf-8"))
            dictionary = GradingDictionary.from_mapping(data)
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise SystemExit(f"harmonica: cannot load dictionary {args.dict}: {exc}")
    hook = hook_component(args.n, allow_large=args.allow_large, cache_dir=_cache_dir(args))
    table = export_homology(hook, dictionary)
    if args.format == "json":
        _emit(json.dumps(table, indent=2, sort_keys=True) + "\n", args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["Q", "A", "T", "dx", "dy", "da", "basis"])
    for g in table["generators"]:
        writer.writerow([g["Q"], g["A"], g["T"], *g["degree"], g["basis"]])
    _emit(buf.getvalue(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonica",
        description="Exact models of diagonal coinvariant spaces with operator actions.",
    )
    parser.add_argument("--version", action="version", version=f"harmonica {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True, help="number of variable pairs")
        p.add_argument("--cache-dir", default=None,
                       help="on-disk cache directory (env HARMONICA_CACHE); compute, "
                            "verify and export load the drn, dh and hook spaces from it "
                            "and save the ones they build")
        p.add_argument("--allow-large", action="store_true",
                       help="permit builds beyond the default size cap")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p_compute = sub.add_parser("compute", help="build a space and print its graded dimensions")
    common(p_compute)
    p_compute.add_argument("--space", choices=SPACE_KINDS, required=True)
    p_compute.set_defaults(fn=cmd_compute)

    p_verify = sub.add_parser("verify", help="run a verification suite and emit a JSON report")
    common(p_verify)
    p_verify.add_argument("--suite", required=True, help="a suite name (see README), or all")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall times in the report (non-reproducible bytes)")
    p_verify.set_defaults(fn=cmd_verify)

    p_export = sub.add_parser("export", help="export the model table with graded coordinates")
    common(p_export)
    p_export.add_argument("--format", choices=("json", "csv"), default="json")
    p_export.add_argument("--dict", default=None,
                          help="JSON file with grading dictionary coefficients")
    p_export.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceCapExceeded as exc:
        print(f"harmonica: resource refusal: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # a build's closed-form check
        print(f"harmonica: check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))
    return 2


if __name__ == "__main__":
    sys.exit(main())
