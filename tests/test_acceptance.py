"""Acceptance gate: every reference check passes at exact tolerance.

One test per registered check; the identifiers mirror the CLI paper-check
ids, so a red test here names the failing reference computation directly.
All comparisons are exact (normalized rational-function equality and
integer counts); there are no tolerances to tune.  Each result must also
match its entry in ``tests/data/paper_check.json``, the committed output of
``arboreal paper-check --json``, field by field.

The mapping from the twelve acceptance items to check ids:

     1  sec1-census-total, sec1-census-shapes, sec1-census-base
     2  sec1-equation, sec1-equation-sweep
     3  sec3-generator-table, sec3-linear-forms, sec3-substitution,
        sec3-duplicate-relations
     4  sec3-separated-agreement, sec3-minimal-marked
     5  sec3-level-vanishing
     6  sec5-example-measures, sec5-example-triple
     7  sec6-dimensions
     8  sec6-trace-a8-cube, sec6-trace-a8a8a9, sec6-trace-c5c5c2,
        sec6-trace-c5c5c4, sec6-trace-c5-cube
     9  sec6-identity-factor, sec6-identity-b3-square,
        sec6-identity-minpoly, sec6-identity-orthogonal, sec6-identity-swap
    10  sec6-idempotents-minus, sec6-idempotents-plus, sec6-flagged-formulas
    11  sec5-truncation-hom, sec5-truncation-bijection, sec5-gram
    12  props-enumeration, props-associativity, props-units,
        props-transpose, props-trace-symmetry, props-dual-path
"""

import json
from pathlib import Path

import pytest

from arboreal.checks import CHECKS, SECTIONS, run_checks

GOLDEN = json.loads((Path(__file__).parent / "data" / "paper_check.json").read_text())["checks"]
GOLDEN_BY_ID = {entry["id"]: entry for entry in GOLDEN}

CRITERIA_COVERAGE = {
    1: ["sec1-census-total", "sec1-census-shapes", "sec1-census-base"],
    2: ["sec1-equation", "sec1-equation-sweep"],
    3: ["sec3-generator-table", "sec3-linear-forms", "sec3-substitution"],
    4: ["sec3-separated-agreement", "sec3-minimal-marked"],
    5: ["sec3-level-vanishing"],
    6: ["sec5-example-measures", "sec5-example-triple"],
    7: ["sec6-dimensions"],
    8: [
        "sec6-trace-a8-cube",
        "sec6-trace-a8a8a9",
        "sec6-trace-c5c5c2",
        "sec6-trace-c5c5c4",
        "sec6-trace-c5-cube",
    ],
    9: [
        "sec6-identity-factor",
        "sec6-identity-b3-square",
        "sec6-identity-minpoly",
        "sec6-identity-orthogonal",
        "sec6-identity-swap",
    ],
    10: ["sec6-idempotents-minus", "sec6-idempotents-plus", "sec6-flagged-formulas"],
    11: ["sec5-truncation-hom", "sec5-truncation-bijection", "sec5-gram"],
    12: [
        "props-enumeration",
        "props-associativity",
        "props-units",
        "props-transpose",
        "props-trace-symmetry",
        "props-dual-path",
    ],
}


def test_every_criterion_is_covered():
    ids = {c.id for c in CHECKS}
    for item, check_ids in CRITERIA_COVERAGE.items():
        missing = [cid for cid in check_ids if cid not in ids]
        assert not missing, "criterion %d lost checks %s" % (item, missing)


def test_golden_lists_every_check_in_order():
    assert [entry["id"] for entry in GOLDEN] == [c.id for c in CHECKS]


def test_scope_selection():
    assert {c.section for c in CHECKS} == set(SECTIONS)
    assert len(run_checks("sec6-flagged-formulas")) == 1
    with pytest.raises(ValueError):
        run_checks("sec99")


@pytest.mark.parametrize("check", CHECKS, ids=[c.id for c in CHECKS])
def test_check(check):
    result = check.fn()
    line = "%s %s [expected: %s | computed: %s]" % (
        "PASS" if result.ok else "FAIL",
        check.id,
        result.expected,
        result.computed,
    )
    print(line)
    assert result.ok, line
    computed = {
        "section": check.section,
        "title": check.title,
        "ok": result.ok,
        "expected": result.expected,
        "computed": result.computed,
    }
    golden = GOLDEN_BY_ID[check.id]
    assert computed == {k: golden[k] for k in computed}, check.id
