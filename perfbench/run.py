"""The arboreal benchmark: one command, four workloads, exact checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; arboreal is imported from ``src/``.
Every measurement happens in a fresh single-threaded child interpreter
(``worker.py``), one at a time, because arboreal's caches persist for the
life of a process.

``--trace 0`` sets the workload up ``setup_samples`` times (the last time in
the timed process) and runs whole rounds of ops for at least S seconds; it
prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of rounds
twice, untraced and then traced, and prints the per-layer metrics with
``trace_overhead``, the ratio of the two wall times.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; an environment record and a readable summary go
to stderr.  Other modes: ``--selftest`` (see selftest.py) and
``--paper-check`` (an ungated per-check timing of ``arboreal paper-check``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

from workloads import WORKLOADS, load_record  # noqa: E402

CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not measure: a child crashed or ran out of time."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: dict, deadline: float) -> dict:
    payload = dict(args, root=ROOT)
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise BenchError("out of time before a %s child" % args["mode"])
    try:
        proc = subprocess.run(
            [sys.executable, "-B", os.path.join(HERE, "worker.py"), json.dumps(payload)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s child exceeded its time budget" % args["mode"]) from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("%s child exited with code %d" % (args["mode"], proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    """Python version, CPU count, git commit and the src/ line count."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": lines,
    }


def untraced(name: str, seed: int, seconds: int, record: dict, deadline: float, units: dict) -> dict:
    params = record["workloads"][name]["params"]
    base = {"workload": name, "seed": seed, "rounds": params["max_rounds"], "seconds": seconds}
    setups = [run_child(dict(base, mode="setup"), deadline)["setup_s"]
              for _ in range(record["setup_samples"] - 1)]
    timed = run_child(dict(base, mode="timed"), deadline)
    setups.append(timed["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": timed["attempted"] / timed["wall_s"],
        "op_p50_ms": timed["op_p50_ms"],
        "op_tail10_ms": timed["op_tail10_ms"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    summary = {
        "setup_samples_s": setups,
        "wall_s": timed["wall_s"],
        "samples": timed["attempted"],
        "tail_samples": timed["tail_samples"],
        "op_p90_ms": timed["op_p90_ms"],
        "failed_frac": timed["failed"] / timed["attempted"],
    }
    return {
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "summary": summary,
    }


def traced(name: str, seed: int, record: dict, deadline: float, units: dict) -> dict:
    params = record["workloads"][name]["params"]
    base = {"workload": name, "seed": seed, "rounds": params["traced_rounds"], "seconds": None}
    plain = run_child(dict(base, mode="fixed"), deadline)
    trace = run_child(dict(base, mode="traced"), deadline)
    layers = dict(trace["layers"], trace_overhead=trace["wall_s"] / plain["wall_s"])
    return {
        "attempted": trace["attempted"],
        "failed": trace["failed"] + plain["failed"],
        "metrics": {k: {"value": layers[k], "unit": u} for k, u in units.items()},
        "summary": {"layers": layers, "spans": trace["spans"]},
    }


def metric_units(kind: str) -> dict:
    """Name to unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--paper-check", action="store_true")
    args = parser.parse_args(argv)
    if os.environ.get("ARBOREAL_MUTATE_MU"):
        print("ARBOREAL_MUTATE_MU is set; refusing to measure a perturbed measure", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "arboreal", "__init__.py")):
        print("no arboreal source under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        return selftest.main(run_child)
    if args.paper_check:
        import papercheck

        return papercheck.main(ROOT, child_env())
    if args.workload is None:
        parser.error("--workload is required")
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    record = load_record()
    env = environment()
    print(json.dumps({"environment": env}), file=sys.stderr)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, record, deadline, metric_units("per_layer"))
        else:
            result = untraced(args.workload, args.seed, args.seconds, record, deadline,
                              metric_units("end_to_end"))
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, "summary": result["summary"]}),
          file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
