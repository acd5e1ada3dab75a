"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run from the repository root, at the commit whose outputs are the
reference.  Writes perfbench/reference.json: the passing verify check
names for each n, a digest of each n = 5 block presentation, the n = 4
`compute` outputs and a digest of the n = 4 `export` JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HARMONICA_CACHE", None)

    def run(*argv) -> str:
        return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True).stdout

    verify = {}
    for n in workloads.VERIFY_NS:
        report = json.loads(run("-m", "harmonica.cli", "verify", "--n", str(n), "--suite", "all"))
        if report["overall"] != "pass":
            raise SystemExit(f"verify --n {n} does not pass; not a reference")
        verify[str(n)] = [c["name"] for c in report["checks"]]
    with tempfile.TemporaryDirectory() as cache_dir:
        compute = {s: run("-m", "harmonica.cli", "compute", "--n", "4", "--space", s,
                          "--cache-dir", cache_dir)
                   for s in workloads.COMPUTE_SPACES}
        export = run("-m", "harmonica.cli", "export", "--n", "4", "--cache-dir", cache_dir)
    blocks = json.loads(run(str(HERE / "inproc.py"), "--workload", "drn5-blocks",
                            "--seed", "0").splitlines()[-1])["results"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    reference = {
        "source_commit": commit,
        "verify": verify,
        "blocks": {"{1},{2}".format(*r["op"]["block"]): r["digest"] for r in blocks},
        "compute": compute,
        "export_sha256": workloads.sha256_text(export),
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
