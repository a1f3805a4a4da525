"""One benchmark process: import arboreal, set up a workload, run its ops.

Started by ``run.py`` with one JSON argument, always in a fresh interpreter,
because arboreal's caches live for the whole process.  Modes:

* ``setup``: stop after set-up and report its duration;
* ``timed``: run whole rounds until ``seconds`` have passed;
* ``fixed``: run exactly ``rounds`` rounds (the untraced reference);
* ``traced``: like ``fixed`` with the per-layer tracer installed.

Prints one JSON line on stdout.
"""

import time

START = time.perf_counter()  # set-up is timed from before arboreal is imported

import json
import os
import resource
import statistics
import sys
from fractions import Fraction


def load_arboreal(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import arboreal

    if not os.path.abspath(arboreal.__file__).startswith(os.path.join(src, "arboreal", "")):
        raise SystemExit("arboreal was imported from %s, not from %s" % (arboreal.__file__, src))
    return arboreal


def run_ops(wl, rounds, seconds, log):
    """Run whole rounds; return op latencies, failures and wall time."""
    latencies, failed = [], 0
    clock = time.perf_counter
    start = clock()
    for ops in rounds:
        for op in ops:
            t0 = clock()
            try:
                result = wl.run(op)
            except Exception as exc:  # a raising op is a failed op, not a failed run
                latencies.append(clock() - t0)
                failed += 1
                log("op %s raised %r" % (op[0], exc))
                continue
            latencies.append(clock() - t0)
            if not wl.check(op, result):
                failed += 1
                log("op %s gave a wrong result" % (op[0],))
        if seconds is not None and clock() - start >= seconds:
            break
    return latencies, failed, clock() - start


def main() -> None:
    args = json.loads(sys.argv[1])
    arboreal = load_arboreal(args["root"])
    if args.get("perturb"):
        from arboreal.measure import set_mu_perturbation

        set_mu_perturbation(Fraction(args["perturb"]))
    import workloads

    wl = workloads.make(args["workload"], args["seed"])
    wl.fixture(arboreal)
    rounds = wl.rounds(args["rounds"])
    setup_s = time.perf_counter() - START
    out = {"setup_s": setup_s}
    if args["mode"] == "setup":
        print(json.dumps(out))
        return
    tracer = None
    if args["mode"] == "traced":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install([workloads])
    logged = []

    def log(message):
        if len(logged) < 5:
            logged.append(message)
            print(message, file=sys.stderr)

    seconds = args["seconds"] if args["mode"] == "timed" else None
    latencies, failed, wall = run_ops(wl, rounds, seconds, log)
    slowest = sorted(latencies)[-max(10, len(latencies) // 10):]
    out.update(
        attempted=len(latencies),
        failed=failed,
        wall_s=wall,
        op_p50_ms=statistics.median(latencies) * 1000,
        op_p90_ms=statistics.quantiles(latencies, n=10)[8] * 1000,
        op_tail10_ms=statistics.mean(slowest) * 1000,
        tail_samples=len(slowest),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = tracer.table()
    print(json.dumps(out))


def layer_metrics(t) -> dict:
    """The per-layer metrics named in workloads.json, from one traced run."""
    candidates = t.items_of("trees.Tree.insertions", "amalgam.trees_with_restrictions")
    kept = t.items_of("amalgam.trees_with_restrictions", "kept")
    rows = t.calls_of("category.ArborealAlgebra.product_row")
    rows_composed = t.calls_of("category.compose", "category.ArborealAlgebra.product_row")
    triples = t.calls_of("amalgam.triple_amalgamations")
    return {
        "trees.build_tree.calls": t.calls_of("trees.build_tree"),
        "trees.restrict.calls": t.calls_of("trees.Tree.restrict"),
        "trees.insertions.candidates": t.items_of("trees.Tree.insertions"),
        "trees.parse_tree.calls": t.calls_of("trees.parse_tree"),
        "trees.canonical_key.calls": t.calls_of("trees.Tree.canonical_key"),
        "trees.self_s": t.layer_self("trees"),
        "amalgam.amalgamations.calls": t.calls_of("amalgam.amalgamations"),
        "amalgam.triple_amalgamations.calls": triples,
        "amalgam.trees_with_restrictions.calls": t.calls_of("amalgam.trees_with_restrictions"),
        "amalgam.kept": kept,
        "amalgam.keep_ratio": kept / candidates if candidates else 0.0,
        "amalgam.self_s": t.layer_self("amalgam"),
        "measure.mu_symbolic.calls": t.calls_of("measure.mu_symbolic"),
        "measure.mu_embedding.calls": t.calls_of("measure.mu_embedding"),
        "measure.self_s": t.layer_self("measure"),
        "ratfun.RatFun.calls": t.calls_of("ratfun.RatFun.__init__"),
        "ratfun.Poly.gcd.calls": t.calls_of("ratfun.Poly.gcd"),
        "ratfun.gcd_s": t.seconds_of("ratfun.Poly.gcd"),
        "ratfun.self_s": t.layer_self("ratfun"),
        "category.compose.calls": t.calls_of("category.compose"),
        "category.compose.hit_ratio": 1 - triples / t.pair_terms if t.pair_terms else 0.0,
        "category.self_s": t.layer_self("category"),
        "category.product_row.calls": rows,
        "category.product_row.hit_ratio": 1 - rows_composed / rows if rows else 0.0,
        "category.multiply.calls": t.calls_of("category.ArborealAlgebra.multiply"),
        "category.minimal_polynomial.calls": t.calls_of("category.ArborealAlgebra.minimal_polynomial"),
        "category.minpoly_s": t.seconds_of("category.ArborealAlgebra.minimal_polynomial"),
        "theta.separated.calls": t.calls_of("theta.separated"),
        "theta.separated_bruteforce.calls": t.calls_of("theta.separated_bruteforce"),
        "theta.self_s": t.layer_self("theta"),
    }


if __name__ == "__main__":
    main()
