"""The benchmark's workloads: the operations each one runs, and their checks.

An operation is one `harmonica` command or one n = 5 coinvariant block.  A
workload's operations are independent of each other except that the warm
commands of `cache-roundtrip` read what its cold commands wrote; the seed
only shuffles the order of operations that do not depend on each other.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import oracle

WORKLOADS = ("verify-all", "drn5-blocks", "cache-roundtrip")

VERIFY_NS = (2, 3, 4)
# (4,3) at ~20 s and (4,4) at ~80 s are left out to keep a run short.
DRN5_BLOCKS = ((4, 2), (5, 2), (3, 3))
COMPUTE_SPACES = ("hook", "dh")
WARM_ROUNDS = 3

# Where `drn5-blocks` finds the per-bidegree builder: harmonica.spaces.<name>.
BLOCK_BUILDER = "_build_even_block"


@dataclass(frozen=True)
class Op:
    label: str
    argv: Tuple[str, ...] = ()  # harmonica CLI arguments, for a command
    block: Tuple[int, ...] = ()  # (n, a, b), for a coinvariant block
    phase: str = ""  # "cold" or "warm" in cache-roundtrip

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "Op":
        return cls(data["label"], tuple(data["argv"]), tuple(data["block"]), data["phase"])


def plan(workload: str, seed: int, cache_dir: str = "") -> List[Op]:
    """The operations of one pass of `workload`, in the order the seed picks."""
    rng = random.Random(seed)
    if workload == "verify-all":
        ns = list(VERIFY_NS)
        rng.shuffle(ns)
        return [Op(f"verify --n {n}", ("verify", "--n", str(n), "--suite", "all")) for n in ns]
    if workload == "drn5-blocks":
        blocks = list(DRN5_BLOCKS)
        rng.shuffle(blocks)
        return [Op(f"block n=5 ({a},{b})", block=(5, a, b)) for a, b in blocks]
    if workload == "cache-roundtrip":
        cache = ("--cache-dir", cache_dir)
        compute = {s: ("compute", "--n", "4", "--space", s) + cache for s in COMPUTE_SPACES}
        cold = list(COMPUTE_SPACES)
        rng.shuffle(cold)
        ops = [Op(f"cold compute {s}", compute[s], phase="cold") for s in cold]
        for _ in range(WARM_ROUNDS):
            warm = [Op(f"warm compute {s}", compute[s], phase="warm") for s in COMPUTE_SPACES]
            warm.append(Op("warm export", ("export", "--n", "4") + cache, phase="warm"))
            rng.shuffle(warm)
            ops.extend(warm)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def block_digest(reps, nf) -> str:
    """sha256 of a block presentation: its rep columns and normal forms."""
    canon = {
        "reps": [int(r) for r in reps],
        "nf": [[int(piv), [[int(j), str(v)] for j, v in sorted(vec.items())]]
               for piv, vec in sorted(nf.items())],
    }
    return hashlib.sha256(json.dumps(canon, separators=(",", ":")).encode()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Checks each operation's result against the reference outputs.

    A result is a dict with `rc` and `stdout` for a command, or `dim` and
    `digest` for a block; either may carry `error`.  `check` returns None
    when the operation passed, else a one-line reason.
    """

    def __init__(self, reference: dict):
        self.reference = reference
        self.cold_output: Dict[str, str] = {}
        self._parking: Optional[dict] = None

    def parking(self) -> dict:
        if self._parking is None:
            oracle.self_check()
            self._parking = oracle.parking_series(5)
        return self._parking

    def check(self, op: Op, result: dict) -> Optional[str]:
        if result.get("error"):
            return result["error"]
        if op.block:
            return self._check_block(op, result)
        if result.get("rc") != 0:
            return f"exit code {result.get('rc')}"
        if op.argv[0] == "--version":
            return None if result["stdout"].startswith("harmonica ") else "no version line"
        if op.argv[0] == "verify":
            return self._check_verify(op, result["stdout"])
        if op.argv[0] == "compute":
            return self._check_compute(op, result["stdout"])
        return self._check_export(result["stdout"])

    def _check_block(self, op: Op, result: dict) -> Optional[str]:
        _, a, b = op.block
        expected = self.parking().get((a, b), 0)
        if result.get("dim") != expected:
            return f"dim {result.get('dim')}, parking-function oracle gives {expected}"
        if result.get("digest") != self.reference["blocks"][f"{a},{b}"]:
            return "presentation differs from the reference"
        return None

    def _check_verify(self, op: Op, stdout: str) -> Optional[str]:
        n = op.argv[op.argv.index("--n") + 1]
        try:
            report = json.loads(stdout)
            status = {c["name"]: c["status"] for c in report["checks"]}
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc}"
        if report.get("overall") != "pass":
            return "overall status is not pass"
        for name in self.reference["verify"][n]:
            if status.get(name) != "pass":
                return f"check {name!r}: {status.get(name, 'missing')}"
        return None

    def _check_compute(self, op: Op, stdout: str) -> Optional[str]:
        space = op.argv[op.argv.index("--space") + 1]
        expected = self.reference["compute"][space]
        if stdout != expected:
            return f"compute {space} output differs from the reference"
        if space == "dh" and f"total: {oracle.TOTALS[4]}\n" not in stdout:
            return "dh total is not the number of parking functions of size 4"
        if op.phase == "cold":
            self.cold_output[space] = stdout
        elif self.cold_output.get(space, stdout) != stdout:
            return f"warm compute {space} output differs from the cold output"
        return None

    def _check_export(self, stdout: str) -> Optional[str]:
        if sha256_text(stdout) != self.reference["export_sha256"]:
            return "export output differs from the reference"
        return None
