"""Run one pass of a workload inside this process, optionally traced.

    python3 perfbench/inproc.py --workload NAME --seed N --trace 0|1

Run from the root of the repository: `harmonica` is imported from `src/`.
Commands go through `harmonica.cli.main(argv)` with stdout captured, and the
in-process memo stores are cleared between commands so each one starts as a
fresh process would.  Blocks go through `harmonica.spaces._build_even_block`.
With `--trace 1` every layer function is wrapped (see tracing.py); the spans
are written to `.perfbench/spans-<workload>.json`.

The last line of stdout is one JSON object: the result of every operation
and, when traced, the per-layer metrics and the wrapped names never called.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
MODULES = ("linalg", "superpoly", "spaces", "dyck", "operators", "structure", "verify", "cache", "cli")


def import_harmonica() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    return {name: importlib.import_module(f"harmonica.{name}") for name in MODULES}


def run_command(mods: dict, argv) -> dict:
    clear = getattr(mods["spaces"], "clear_registry", None)
    if clear is not None:
        clear()
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = mods["cli"].main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is this operation's failure, not the run's
        return {"error": traceback.format_exc(limit=-1).strip().splitlines()[-1],
                "elapsed_s": time.perf_counter() - start}
    return {"rc": rc, "stdout": out.getvalue(), "elapsed_s": time.perf_counter() - start}


def run_block(mods: dict, block) -> dict:
    build = getattr(mods["spaces"], workloads.BLOCK_BUILDER, None)
    if build is None:
        return {"error": f"missing entry point harmonica.spaces.{workloads.BLOCK_BUILDER}"}
    start = time.perf_counter()
    try:
        blk = build(*block)
        elapsed = time.perf_counter() - start
        return {"dim": blk.dim, "digest": workloads.block_digest(blk.reps, blk.nf),
                "elapsed_s": elapsed}
    except Exception:  # a crash is this operation's failure, not the run's
        return {"error": traceback.format_exc(limit=-1).strip().splitlines()[-1],
                "elapsed_s": time.perf_counter() - start}


def run_pass(mods: dict, workload: str, seed: int) -> list:
    WORK.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK)
    try:
        results = []
        for op in workloads.plan(workload, seed, cache_dir):
            res = run_block(mods, op.block) if op.block else run_command(mods, op.argv)
            results.append({"op": op.to_json(), **res})
        return results
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    mods = import_harmonica()
    if not args.trace:
        print(json.dumps({"results": run_pass(mods, args.workload, args.seed)}))
        return 0
    rec = tracing.Recorder()
    with tracing.wrapped(rec) as missing:
        results = run_pass(mods, args.workload, args.seed)
    spans_path = WORK / f"spans-{args.workload}.json"
    spans_path.write_text(json.dumps(rec.spans_json(), separators=(",", ":")))
    print(json.dumps({
        "results": results,
        "layers": tracing.layer_metrics(rec),
        "uncalled": tracing.uncalled(rec),
        "missing": missing,
        "spans": len(rec.span_name),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
