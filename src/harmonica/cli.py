"""Command-line front end: build spaces, run verification suites, export.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 resource refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from . import __version__
from .spaces import (
    ResourceCapExceeded,
    antisymmetric_ideal,
    coinvariants,
    harmonics,
    hook_component,
    ideal_quotient_series,
    sign_component,
)
from .structure import GradingDictionary, export_homology
from .verify import SUITES, report, run_suite

SPACE_KINDS = (
    "drn",
    "drn-sign",
    "hook",
    "dh",
    "dh-sign",
    "j",
    "mj",
    "jbar",
    "mjbar",
    "j-quotient",
    "jbar-quotient",
)


class UsageError(Exception):
    """Command-level usage problem mapped to exit code 2."""


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


def _build_space(args):
    n = args.n
    kind = args.space
    cache = _cache_dir(args)
    if kind == "drn":
        return coinvariants(n, allow_large=args.allow_large, cache_dir=cache)
    if kind == "drn-sign":
        return sign_component(coinvariants(n, allow_large=args.allow_large, cache_dir=cache))
    if kind == "hook":
        return hook_component(n, allow_large=args.allow_large, cache_dir=cache)
    if kind == "dh":
        return harmonics(n, allow_large=args.allow_large, cache_dir=cache)
    if kind == "dh-sign":
        return sign_component(harmonics(n, allow_large=args.allow_large, cache_dir=cache))
    if kind in ("j", "mj", "jbar", "mjbar"):
        flavor = {"j": "J", "mj": "mJ", "jbar": "Jbar", "mjbar": "mJbar"}[kind]
        return antisymmetric_ideal(n, flavor)
    return None  # quotient series kinds handled in cmd_compute


def cmd_compute(args) -> int:
    if args.space in ("j-quotient", "jbar-quotient"):
        series = ideal_quotient_series(args.n, reduced=args.space == "jbar-quotient")
        lines = [f"space: {args.space} (n={args.n})",
                 f"hilbert: {series.render()}",
                 f"total: {series.total()}"]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    space = _build_space(args)
    series = space.hilbert()
    lines = [f"space: {args.space} (n={args.n})",
             f"hilbert: {series.render()}",
             f"total: {series.total()}"]
    per_a = series.per_a()
    if len(per_a) > 1 or (per_a and 0 not in per_a):
        lines.append("per-a: " + ",".join(str(per_a.get(a, 0)) for a in range(max(per_a) + 1)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    if args.suite == "figure1" and args.n != 3:
        raise UsageError("the figure1 suite requires --n 3")
    results = run_suite(args.n, args.suite, allow_large=args.allow_large, cache_dir=_cache_dir(args))
    payload = report(args.n, args.suite, results, timings=args.timings)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0 if payload["overall"] == "pass" else 1


def cmd_export(args) -> int:
    dictionary = None
    if args.dict:
        try:
            data = json.loads(Path(args.dict).read_text(encoding="utf-8"))
            dictionary = GradingDictionary.from_mapping(data)
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise SystemExit(f"harmonica: cannot load dictionary {args.dict}: {exc}")
    # Load or build the hook space through the cache; export_homology reads it from the workspace.
    hook_component(args.n, allow_large=args.allow_large, cache_dir=_cache_dir(args))
    table = export_homology(args.n, dictionary, allow_large=args.allow_large)
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
    p_verify.add_argument("--suite", choices=SUITES + ("all",), required=True)
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
    except UsageError as exc:
        parser.error(str(exc))
    except ResourceCapExceeded as exc:
        print(f"harmonica: resource refusal: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))
    return 2


if __name__ == "__main__":
    sys.exit(main())
