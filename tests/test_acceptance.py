"""Acceptance gate: every ``verification`` check at the acceptance scale.

Each case prints one pass/fail line (visible with ``pytest -s``), pins the
number of instances its check exercised and enforces a runtime budget.  The
acceptance scale is the full scale without random product sets, so the
per-set product checks stay exhaustive on products of at most nine vertices.
"""

import dataclasses
import time
from random import Random

import pytest

from domkit.verification import ALL_CHECKS, SCALES

ACCEPTANCE_SCALE = dataclasses.replace(SCALES["full"], random_sets_per_pair=0)

# check name: (seed, budget in seconds, instances exercised at the acceptance scale)
ACCEPTANCE = {
    "check_product_vertex_domination": (0, 60.0, 20978),
    "check_product_domination": (0, 60.0, 20978),
    "check_product_minimality": (0, 300.0, 21104),
    "check_gamma_formula": (101, 300.0, 337),
    "check_upper_domination_bound": (0, 300.0, 126),
    "check_upper_domination_gap": (0, 60.0, 2),
    "check_product_recognition": (102, 600.0, 203),
    "check_well_covered_alpha2": (0, 60.0, 1252),
    "check_gamma2_recognition": (103, 180.0, 1114),
    "check_bounded_k_recognition": (104, 180.0, 300),
    "check_method_agreement": (0, 60.0, 1752),
    "check_transversal_machinery": (105, 120.0, 300),
    "check_irreducible_sets": (0, 180.0, 11293),
    "check_prism_induction": (0, 60.0, 500),
    "check_worked_example": (0, 1.0, 4),
}


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda check: check.__name__)
def test_check_at_acceptance_scale(check):
    assert check.__name__ in ACCEPTANCE, f"{check.__name__} has no acceptance entry"
    seed, budget, instances = ACCEPTANCE[check.__name__]
    start = time.monotonic()
    result = check(ACCEPTANCE_SCALE, Random(seed))
    elapsed = time.monotonic() - start
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name} ({elapsed:.1f}s)")
    assert result.passed, result.detail
    assert result.instances == instances
    assert elapsed < budget, f"{result.name}: {elapsed:.1f}s over budget"
