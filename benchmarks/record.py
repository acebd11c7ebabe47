"""The ``--out`` file of a benchmark script: its JSON results with the git
commit they were measured at and the thread settings they depend on.

Bits and speed both change with the BLAS thread count, so the file records
every ``*_NUM_THREADS`` variable that is set and the CPU count next to the
results.  ``run_children`` runs a script's cases one child process each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def commit() -> str | None:
    """The checked-out commit, with ``-dirty`` when tracked files differ
    from it; None outside a git checkout."""
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "diff", "--quiet", "HEAD"], cwd=ROOT, env=env, capture_output=True
        ).returncode != 0
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if dirty else "")


def write(path: str, results) -> None:
    record = {
        "commit": commit(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def run_children(script: str, cases, options: list[str], out: str | None) -> None:
    """Run ``script --child CASE`` with ``options`` in a fresh process per
    case, so that each child's ``ru_maxrss`` is its case's peak; print the
    JSON line each child prints and, given ``out``, write them as a list."""
    results = []
    for case in cases:
        child = subprocess.run(
            [sys.executable, script, "--child", str(case), *options],
            capture_output=True, text=True, check=True,
        )
        results.append(json.loads(child.stdout))
        print(child.stdout.strip(), flush=True)
    if out:
        write(out, results)
