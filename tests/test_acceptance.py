"""Acceptance gate: every scoreboard line of every ``verification`` check at
the acceptance scale.

Each case prints the pass/fail line of one scoreboard line (visible with
``pytest -s``), pins the number of instances it exercised and enforces the
runtime budget of its check.  A check that returns several lines runs once;
its lines are cases of their own.  The acceptance scale is the full scale
without random product sets, so the per-set product checks stay exhaustive on
products of at most nine vertices.
"""

import dataclasses
import functools
import time
from random import Random

import pytest

from domkit.verification import ALL_CHECKS, SCALES

ACCEPTANCE_SCALE = dataclasses.replace(SCALES["full"], random_sets_per_pair=0)

# check name: (seed, budget in seconds, instances exercised at the acceptance
# scale, one count per scoreboard line)
ACCEPTANCE = {
    "check_product_sets": (0, 60.0, (20978, 20978, 21104)),
    "check_gamma_formula": (101, 300.0, (337,)),
    "check_upper_domination_bound": (0, 300.0, (126,)),
    "check_upper_domination_gap": (0, 60.0, (2,)),
    "check_product_recognition": (102, 600.0, (203,)),
    "check_well_covered_alpha2": (0, 60.0, (1252,)),
    "check_gamma2_recognition": (103, 180.0, (1114,)),
    "check_bounded_k_recognition": (104, 180.0, (300,)),
    "check_method_agreement": (0, 60.0, (1752,)),
    "check_transversal_machinery": (105, 120.0, (300,)),
    "check_irreducible_sets": (0, 180.0, (11293,)),
    "check_prism_induction": (0, 60.0, (500,)),
    "check_worked_example": (0, 1.0, (4,)),
}


# Case id of each scoreboard line of a check that returns several: the names
# of the checks those lines came from before one walk gave them all.
LINE_IDS = {
    "check_product_sets": (
        "check_product_vertex_domination",
        "check_product_domination",
        "check_product_minimality",
    ),
}

CASES = [
    pytest.param(check, index, id=line_id)
    for check in ALL_CHECKS
    for index, line_id in enumerate(LINE_IDS.get(check.__name__, (check.__name__,)))
]


@functools.cache
def _run_at_acceptance_scale(check):
    """The check's scoreboard lines and its runtime in seconds, once per check."""
    seed = ACCEPTANCE[check.__name__][0]
    start = time.monotonic()
    results = check(ACCEPTANCE_SCALE, Random(seed))
    elapsed = time.monotonic() - start
    return (results if isinstance(results, list) else [results]), elapsed


@pytest.mark.parametrize(("check", "index"), CASES)
def test_check_at_acceptance_scale(check, index):
    assert check.__name__ in ACCEPTANCE, f"{check.__name__} has no acceptance entry"
    _, budget, instances = ACCEPTANCE[check.__name__]
    results, elapsed = _run_at_acceptance_scale(check)
    assert len(results) == len(instances) == len(LINE_IDS.get(check.__name__, (None,)))
    result = results[index]
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name} ({elapsed:.1f}s)")
    assert result.passed, result.detail
    assert result.instances == instances[index]
    assert elapsed < budget, f"{check.__name__}: {elapsed:.1f}s over budget"
