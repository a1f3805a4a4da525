"""Informational timing of ``arboreal paper-check``, one check at a time.

    python3 perfbench/run.py --paper-check

Each of the reference checks runs once in its own fresh interpreter, so no
check profits from caches another one filled; the report gives each check's
time (from after import to its result), its verdict and the total.  It is
not part of the gated runs and takes about as long as paper-check itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.abspath(__file__)


def _child(root: str, env: dict, arg: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-B", HERE, root, arg],
        cwd=root, env=env, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError("check %s: child exited with %d\n%s" % (arg, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(root: str, env: dict) -> int:
    ids = _child(root, env, "--list")["ids"]
    rows = []
    for check_id in ids:
        row = _child(root, env, check_id)
        rows.append(row)
        print("%-28s %-4s %8.2f s" % (check_id, "ok" if row["ok"] else "FAIL", row["seconds"]),
              file=sys.stderr)
    total = sum(r["seconds"] for r in rows)
    print("%-28s      %8.2f s" % ("total", total), file=sys.stderr)
    print(json.dumps({"checks": rows, "total_s": total}))
    return 0 if all(r["ok"] for r in rows) else 1


def _run_one(root: str, arg: str) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    from arboreal.checks import CHECKS, run_checks

    if arg == "--list":
        return {"ids": [c.id for c in CHECKS]}
    start = time.perf_counter()
    [(_, result)] = run_checks(arg)
    return {"id": arg, "ok": result.ok, "seconds": time.perf_counter() - start}


if __name__ == "__main__":
    print(json.dumps(_run_one(sys.argv[1], sys.argv[2])))
