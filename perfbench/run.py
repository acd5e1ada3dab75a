"""harmonica benchmark: one workload as a single user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `harmonica` is imported from its `src/`.
The loop is closed: one client, one child process at a time, the next
operation starting when the previous one has exited.  Every output is
checked against `reference.json` and the parking-function oracle.

`--trace 0` times the workload and reports the end-to-end metrics.
`--trace 1` runs one pass untraced and one traced, each in a fresh child
(see inproc.py), and reports the per-layer metrics and `trace.overhead`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Work files go to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import tracing
import workloads
from workloads import Op

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
# Each run also launches this many `--version` children to time set-up.
SETUP_LAUNCHES = 7
# Every child is killed by then, so a run ends well within 180 s.
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Child:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    timed_out: bool


class Harness:
    """Launches children one at a time and tallies checked operations."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + DEADLINE_S
        reference = json.loads((HERE / "reference.json").read_text())
        self.checker = workloads.Checker(reference)
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED=str(seed % 2**32))
        self.env.pop("HARMONICA_CACHE", None)

    def child(self, argv: List[str]) -> Child:
        """Run one child to its exit; wall time is launch to exit."""
        timeout = max(0.0, self.deadline - time.perf_counter())
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            fired = threading.Event()

            def kill():
                fired.set()
                proc.kill()

            killer = threading.Timer(timeout, kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            res = Child(proc.returncode, out.read().decode(errors="replace"),
                        err.read().decode(errors="replace"), wall,
                        usage.ru_maxrss / 1024, fired.is_set())
        self.peak_rss_mb = max(self.peak_rss_mb, res.maxrss_mb)
        return res

    def cli(self, argv) -> Child:
        return self.child([sys.executable, "-m", "harmonica.cli", *argv])

    def inproc(self, trace: int) -> Child:
        return self.child([sys.executable, str(HERE / "inproc.py"), "--workload", self.workload,
                           "--seed", str(self.seed), "--trace", str(trace)])

    def record(self, op: Op, result: dict) -> None:
        self.attempted += 1
        reason = self.checker.check(op, result)
        if reason is not None:
            self.failed += 1
            print(f"FAILED {op.label}: {reason}", file=sys.stderr)

    def record_inproc(self, child: Child) -> Optional[dict]:
        """Check the operations an in-process child reports; its JSON or None."""
        try:
            payload = json.loads(child.stdout.strip().splitlines()[-1])
            results = payload["results"]
        except (IndexError, ValueError, KeyError, TypeError):
            why = f"child exit code {child.rc}: {(child.stderr.strip().splitlines() or [''])[-1]}"
            for op in workloads.plan(self.workload, self.seed):
                self.record(op, {"error": why})
            return None
        for res in results:
            self.record(Op.from_json(res["op"]), res)
        return payload


@dataclass
class Pass:
    wall_s: float
    op_s: List[Tuple[str, float]]  # (operation label, seconds)
    timed_out: bool


def command_pass(h: Harness) -> Pass:
    """One pass of a command workload: a fresh child per command."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK)
    try:
        op_s = []
        start = time.perf_counter()
        for op in workloads.plan(h.workload, h.seed, cache_dir):
            res = h.cli(op.argv)
            error = "killed at the run deadline" if res.timed_out else None
            h.record(op, {"rc": res.rc, "stdout": res.stdout, "error": error})
            op_s.append((op.label, res.wall_s))
            if res.timed_out:
                break
        return Pass(time.perf_counter() - start, op_s, res.timed_out)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def block_pass(h: Harness) -> Pass:
    """One pass of drn5-blocks: every block in one fresh child."""
    res = h.inproc(trace=0)
    payload = h.record_inproc(res)
    results = payload["results"] if payload else []
    op_s = [(r["op"]["label"], r["elapsed_s"]) for r in results if "elapsed_s" in r]
    return Pass(res.wall_s, op_s, res.timed_out)


def timed_run(h: Harness, seconds: float) -> dict:
    setup_s = []
    for _ in range(SETUP_LAUNCHES):
        res = h.cli(["--version"])
        h.record(Op("--version", ("--version",)), {"rc": res.rc, "stdout": res.stdout})
        setup_s.append(res.wall_s)
    one_pass = block_pass if h.workload == "drn5-blocks" else command_pass
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(h))
        last = passes[-1]
        now = time.perf_counter()
        # Start another pass only if one more like the last still fits.
        if last.timed_out or now - start + last.wall_s > seconds or now + last.wall_s > h.deadline:
            break
    by_label: Dict[str, List[float]] = {}
    for p in passes:
        for label, sec in p.op_s:
            by_label.setdefault(label, []).append(sec)
    # For reading only: one operation is too short to be a steady metric here.
    print("operation medians: " + "; ".join(
        f"{label} {statistics.median(v):.3f} s" for label, v in sorted(by_label.items())))
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": h.peak_rss_mb,
    }


def traced_run(h: Harness) -> dict:
    untraced = h.inproc(trace=0)
    h.record_inproc(untraced)
    traced = h.inproc(trace=1)
    payload = h.record_inproc(traced) or {}
    metrics = dict(payload.get("layers", {}))
    metrics["trace.overhead"] = traced.wall_s / untraced.wall_s
    (WORK / f"layers-{h.workload}.json").write_text(json.dumps({
        "workload": h.workload,
        "seed": h.seed,
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "spans": payload.get("spans", 0),
        "uncalled": payload.get("uncalled", []),
        "missing": payload.get("missing", []),
        "metrics": metrics,
    }, indent=2, sort_keys=True) + "\n")
    print("wrapped names never called: " + (", ".join(payload.get("uncalled", [])) or "none"))
    if payload.get("missing"):
        print("wrapped names not found: " + ", ".join(payload["missing"]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="harmonica benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "harmonica" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/harmonica is missing", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    h = Harness(args.workload, args.seed)
    if args.trace:
        values, units = traced_run(h), tracing.metric_units()
    else:
        values, units = timed_run(h, args.seconds), END_TO_END
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
