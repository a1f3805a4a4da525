"""Checks of the benchmark itself:  python3 perfbench/run.py --selftest

* the op checks are not vacuous: with the measure perturbed by 2 per leaf
  (``set_mu_perturbation``, in the child process only), sweep and bigtree
  must report failed ops;
* the per-layer counts repeat exactly in two traced runs with the same seed
  (timings are reported, not compared);
* the benchmark refuses to run with ``ARBOREAL_MUTATE_MU`` set, and fails
  without printing a result where there is no arboreal source.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _report(ok: bool, what: str) -> bool:
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    return ok


def perturbed_checks_fail(run_child, deadline) -> bool:
    ok = True
    for name in ("sweep", "bigtree"):
        out = run_child({"workload": name, "seed": 1, "rounds": 1, "seconds": None,
                         "mode": "fixed", "perturb": "2"}, deadline)
        frac = out["failed"] / out["attempted"]
        ok &= _report(frac > 0, "%s with perturbed measure: failed_frac = %d/%d = %.3f"
                      % (name, out["failed"], out["attempted"], frac))
    return ok


def traced_counts_repeat(run_child, deadline) -> bool:
    ok = True
    for name in ("sweep", "compose", "edge", "bigtree"):
        runs = [run_child({"workload": name, "seed": 7, "rounds": 1, "seconds": None,
                           "mode": "traced"}, deadline) for _ in range(2)]
        counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in runs]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        ok &= _report(not differ and all(r["failed"] == 0 for r in runs),
                      "%s traced twice, seed 7: %d counts identical%s"
                      % (name, len(counts[0]), "; differ: %s" % differ if differ else ""))
    return ok


def _bench(cwd: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def refuses_bad_environments() -> bool:
    env = dict(os.environ, ARBOREAL_MUTATE_MU="2")
    proc = _bench(ROOT, env)
    ok = _report(proc.returncode == 2 and not proc.stdout.strip(),
                 "ARBOREAL_MUTATE_MU set: exit %d, no result" % proc.returncode)
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = {k: v for k, v in os.environ.items() if k != "ARBOREAL_MUTATE_MU"}
        proc = _bench(bare, env)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok &= _report(proc.returncode != 0 and not proc.stdout.strip(),
                  "no arboreal source: exit %d, no result" % proc.returncode)
    return ok


def main(run_child) -> int:
    deadline = time.monotonic() + 900
    ok = perturbed_checks_fail(run_child, deadline)
    ok &= traced_counts_repeat(run_child, deadline)
    ok &= refuses_bad_environments()
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1
