"""Command-line front end.

Subcommands: enumerate, amalgamate, measure, algebra, verify, paper-check.
Results are JSON on stdout (schema tag "arboreal/1"), diagnostics on stderr;
paper-check prints one line per reference check unless --json is given.
Exit codes: 0 success, 1 verification failure, 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from arboreal import checks as checks_mod
from arboreal.amalgam import AmalgamError, _amalgamation_count, _enumeration_classes, _tree_count, amalgamations, count_by_shape, enumerate_trees
from arboreal.category import _trace_and_count, algebra_for
from arboreal.measure import (
    LevelError,
    ParamSpec,
    mu_embedding,
    mu_of_tree,
    set_mu_perturbation,
)
from arboreal.ratfun import PoleError, RatFun, parse_ratfun
from arboreal.trees import TreeError, parse_tree

SCHEMA = "arboreal/1"

# The longest text an argument may have.  Keying a caterpillar of n leaves holds
# about n * len(text) / 2 characters, so this bounds a key to about 40 MB.
TREE_TEXT_CAP = 20_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arboreal",
        description="exact computation with reduced leaf-labeled trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate trees on a label set")
    p.add_argument("--labels", required=True, help="comma-separated labels")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--count", action="store_true", help="emit only the count")

    p = sub.add_parser("amalgamate", help="enumerate amalgamations of two trees")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--by-shape", action="store_true")
    p.add_argument("--max-level", type=int, default=None)

    p = sub.add_parser("measure", help="measure of a tree or an embedding")
    p.add_argument("--tree", help="tree to measure")
    p.add_argument("--sub", help="source of an embedding")
    p.add_argument("--super", dest="super_", help="target of an embedding")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--symbolic", action="store_true")
    mode.add_argument("--t", help="rational parameter value p/q, not 1")
    mode.add_argument("--level", type=int, help="integer level n >= 3")
    mode.add_argument("--infinity", action="store_true")

    p = sub.add_parser("algebra", help="endomorphism-algebra computations")
    p.add_argument("operation", choices=["gram", "compose", "trace", "minpoly", "idempotent"])
    p.add_argument("--tree", required=True)
    p.add_argument("--f", help="left element (compose)")
    p.add_argument("--g", help="right element (compose)")
    p.add_argument("--e", help="element (minpoly, idempotent, trace)")
    p.add_argument("--u", help="first basis key (trace of a triple product)")
    p.add_argument("--v", help="second basis key")
    p.add_argument("--w", help="third basis key")
    p.add_argument("--at", help="rational parameter for the pairing verdict")
    p.add_argument("--max-level", type=int, default=None)

    p = sub.add_parser("verify", help="exhaustive verification sweeps")
    p.add_argument("suite", choices=["measure-axioms", "separated", "relations"])
    p.add_argument("--max-leaves", type=int, default=5)

    p = sub.add_parser("paper-check", help="run the reference suite")
    p.add_argument("--scope", default="all", help="all, a section (sec1, sec3, sec5, sec6, props), or a check id")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def _rational(name: str, text: str) -> Fraction:
    """A rational argument, refused with arboreal's own message."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("%s is not a rational number: %r" % (name, text)) from None


def _param_from_args(args) -> ParamSpec:
    if args.t is not None:
        return ParamSpec.numeric(_rational("--t", args.t))
    if args.level is not None:
        return ParamSpec.finite_level(args.level)
    if args.infinity:
        return ParamSpec.infinity()
    return ParamSpec.symbolic()


def _basis_index(alg, text: str) -> int:
    key = parse_tree(text).canonical_key()
    if key not in alg.index:
        raise TreeError("not a basis amalgamation: %r" % text)
    return alg.index[key]


def _parse_element(alg, text: str) -> Dict[int, RatFun]:
    """An element spec: a bare amalgamation tree, or a JSON coefficient list."""
    text = text.strip()
    if not text.startswith("["):
        return {_basis_index(alg, text): RatFun.one()}
    items = json.loads(text)
    if not all(isinstance(item, dict) and isinstance(item.get("amalgamation"), str) for item in items):
        raise ValueError('element lists hold objects with a string "amalgamation" and an optional "coeff"')
    coeffs: Dict[int, RatFun] = {}
    for item in items:
        i = _basis_index(alg, item["amalgamation"])
        coeffs[i] = coeffs.get(i, RatFun.zero()) + parse_ratfun(str(item.get("coeff", "1")))
    return coeffs


def _cmd_enumerate(args) -> Tuple[int, Dict]:
    labels = [l for l in args.labels.split(",") if l]
    if args.count:
        trees, count = None, _tree_count(len(_enumeration_classes(labels, args.max_level)), args.max_level)
    else:
        trees = enumerate_trees(labels, max_level=args.max_level)
        count = len(trees)
    payload: Dict = {"schema": SCHEMA, "labels": sorted(labels), "count": count}
    if args.max_level is not None:
        payload["max_level"] = args.max_level
    if trees is not None:
        payload["trees"] = [t.canonical_key() for t in trees]
    return 0, payload


def _cmd_amalgamate(args) -> Tuple[int, Dict]:
    t1, t2 = parse_tree(args.t1), parse_tree(args.t2)
    payload: Dict = {"schema": SCHEMA, "t1": t1.canonical_key(), "t2": t2.canonical_key()}
    if args.by_shape:
        shapes = count_by_shape(t1, t2, max_level=args.max_level)
        payload["by_shape"] = [
            {"shape": k, "count": v} for k, v in sorted(shapes.items())
        ]
        payload["count"] = sum(shapes.values())
        return 0, payload
    if args.count:
        payload["count"] = _amalgamation_count(t1, t2, args.max_level)
        return 0, payload
    ams = amalgamations(t1, t2, max_level=args.max_level)
    payload["count"] = len(ams)
    payload["amalgamations"] = [a.to_json() for a in ams]
    return 0, payload


def _cmd_measure(args) -> Tuple[int, Dict]:
    p = _param_from_args(args)
    payload: Dict = {"schema": SCHEMA, "param": p.mode}
    if p.mode == "numeric":
        payload["t"] = str(p.t)
    if p.mode == "level":
        payload["n"] = p.n
    if args.sub or args.super_:
        if not (args.sub and args.super_):
            raise TreeError("an embedding needs both --sub and --super")
        sub, sup = parse_tree(args.sub), parse_tree(args.super_)
        payload["sub"] = sub.canonical_key()
        payload["super"] = sup.canonical_key()
        payload["value"] = str(mu_embedding(sub, sup, p))
        return 0, payload
    if not args.tree:
        raise TreeError("measure needs --tree or --sub/--super")
    tree = parse_tree(args.tree)
    payload["tree"] = tree.canonical_key()
    payload["mu"] = str(mu_of_tree(tree, p))
    return 0, payload


def _cmd_algebra(args) -> Tuple[int, Dict]:
    tree = parse_tree(args.tree)
    alg = algebra_for(tree, max_level=args.max_level)
    payload: Dict = {
        "schema": SCHEMA,
        "tree": tree.canonical_key(),
        "basis": [am.key for am in alg.basis],
    }
    op = args.operation
    if op == "gram":
        gram = alg.gram_matrix()
        payload["gram"] = [[str(x) for x in row] for row in gram]
        det = alg.gram_det()
        payload["det"] = str(det)
        payload["det_factored"] = det.factored()
        if args.at is not None:
            ok, witness, factor = alg.is_semisimple_at(_rational("--at", args.at))
            payload["semisimple_at"] = {
                "t": args.at,
                "nondegenerate": ok,
                "witness": witness,
                "vanishing_factor": factor,
            }
        return 0, payload
    if op == "compose":
        if not (args.f and args.g):
            raise TreeError("compose needs --f and --g")
        f = alg.element(_parse_element(alg, args.f))
        g = alg.element(_parse_element(alg, args.g))
        payload["result"] = alg.to_hom(f * g).to_json()
        return 0, payload
    if op == "trace":
        if args.u and args.v and args.w:
            ams = [alg.basis[_basis_index(alg, text)] for text in (args.u, args.v, args.w)]
            utr, count = _trace_and_count(*ams)
            payload["triple_trees"] = count
            payload["utr"] = str(utr)
            return 0, payload
        if not args.e:
            raise TreeError("trace needs --e, or --u/--v/--w")
        e = alg.element(_parse_element(alg, args.e))
        payload["utr"] = str(alg.utr(e))
        return 0, payload
    if op == "minpoly":
        if not args.e:
            raise TreeError("minpoly needs --e")
        e = alg.element(_parse_element(alg, args.e))
        coeffs = alg.minimal_polynomial(e)
        payload["minpoly"] = [str(c) for c in coeffs]
        payload["degree"] = len(coeffs) - 1
        return 0, payload
    if op == "idempotent":
        if not args.e:
            raise TreeError("idempotent needs --e")
        e = alg.element(_parse_element(alg, args.e))
        report = alg.idempotent_report(e)
        payload["is_idempotent"] = report["is_idempotent"]
        payload["udim_image"] = str(report["udim_image"])
        return 0, payload
    raise TreeError("unknown algebra operation %r" % op)


def _cmd_verify(args) -> Tuple[int, Dict]:
    suite = args.suite
    relations = None
    if suite == "measure-axioms":
        cases, failures = checks_mod.equation_sweep(args.max_leaves)
    elif suite == "separated":
        cases, failures = checks_mod.separated_sweep(args.max_leaves)
    else:
        relations, form_failures = checks_mod.relation_sweep(args.max_leaves)
        cases = len(relations) + len(form_failures)
        failures = sum(
            1 for rel in relations if not (rel.residual_mu.is_zero() and rel.residual_theta.is_zero())
        ) + sum(1 for sides in form_failures.values() if sides)
    payload = {
        "schema": SCHEMA,
        "suite": suite,
        "max_leaves": args.max_leaves,
        "cases": cases,
        "failures": failures,
    }
    if relations is not None:
        payload["relations"] = [rel.to_json() for rel in relations]
    return (1 if failures else 0), payload


def _cmd_paper_check(args) -> Tuple[int, Optional[Dict], List[str]]:
    results = checks_mod.run_checks(args.scope)
    lines = []
    failures = 0
    for check, res in results:
        status = "PASS" if res.ok else "FAIL"
        if not res.ok:
            failures += 1
        lines.append(
            "%s %-28s %s [expected: %s | computed: %s]"
            % (status, check.id, check.title, res.expected, res.computed)
        )
    lines.append(
        "%d/%d checks passed" % (len(results) - failures, len(results))
    )
    if args.json:
        payload = {
            "schema": SCHEMA,
            "scope": args.scope,
            "passed": failures == 0,
            "checks": [
                {
                    "id": c.id,
                    "section": c.section,
                    "title": c.title,
                    "ok": r.ok,
                    "expected": r.expected,
                    "computed": r.computed,
                }
                for c, r in results
            ],
        }
        return (1 if failures else 0), payload, []
    return (1 if failures else 0), None, lines


def run(argv: Optional[List[str]] = None) -> Tuple[int, str]:
    """Run the CLI; returns (exit code, stdout text)."""
    scale = os.environ.get("ARBOREAL_MUTATE_MU")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return (int(e.code) if e.code else 0), ""
    try:
        if scale:
            set_mu_perturbation(_rational("ARBOREAL_MUTATE_MU", scale))
        if any(isinstance(a, str) and len(a) > TREE_TEXT_CAP for a in vars(args).values()):
            raise TreeError("an argument exceeds the cap of %d characters" % TREE_TEXT_CAP)
        if args.command == "enumerate":
            code, payload = _cmd_enumerate(args)
        elif args.command == "amalgamate":
            code, payload = _cmd_amalgamate(args)
        elif args.command == "measure":
            code, payload = _cmd_measure(args)
        elif args.command == "algebra":
            code, payload = _cmd_algebra(args)
        elif args.command == "verify":
            code, payload = _cmd_verify(args)
        else:
            code, payload, lines = _cmd_paper_check(args)
            if payload is None:
                return code, "\n".join(lines) + "\n"
        return code, json.dumps(payload, indent=2) + "\n"
    except (TreeError, AmalgamError, LevelError, PoleError, ValueError, ZeroDivisionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2, ""
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2, ""
    finally:
        if scale:
            set_mu_perturbation(None)


def main() -> None:
    code, out = run()
    if out:
        sys.stdout.write(out)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
