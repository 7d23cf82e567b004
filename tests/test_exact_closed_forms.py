"""The two closed-form reports against their exact rational reference.

`reference.exact_reflection_fields` and `reference.exact_grover_fields`
compute every rational field of a report in `fractions.Fraction`, so the
float closed forms are checked field by field against exact values, and the
crossing k* against the exact first k whose success reaches 1/2.

Tolerance basis: the rotation angle is rounded once and multiplied by k, so
a field's float error grows like (k + 1) eps times its largest magnitude
over the run. Measured against the exact fields below (k_max <= 256), the
worst error was 2.93 (k_max + 1) eps of that magnitude, in quantum ``grover``
E_k at N = 2; every other field and case stayed below 0.6. The bound is 8.
``pair_lower_bound`` is not rational (it takes square roots of E_k and F_k),
and `ProgressReport` derives it from the checked fields.
"""

import sys
from fractions import Fraction

import pytest

from hoisearch.models import Model
from hoisearch.search import default_k_max, quantum_grover_report, reflection_report

from reference import exact_grover_fields, exact_reflection_fields

EPS = sys.float_info.epsilon
ERROR_PER_STEP = 8

REFLECT_CASES = [
    ("classical", 16, 1),
    ("synthetic", 16, 4),
    ("synthetic", 1024, 3),
    ("synthetic", 10**6, 4),
    ("synthetic", 10**9, 4),
    ("synthetic", 3, 3),
    ("quantum", 1024, 2),
]
GROVER_CASES = [2, 3, 4, 1024, 4096, 10**6]


def _k_max(n):
    return min(default_k_max(n), 256)


def _exact_crossing(success):
    return next((k for k, p in enumerate(success) if p >= Fraction(1, 2)), None)


def _check_fields(report, exact, k_max):
    assert list(report.k) == list(range(k_max + 1))
    assert list(report.upper_bound) == [4 * report.order * k * k for k in range(k_max + 1)]
    got = dict(
        success=report.success_min,
        divergence=report.divergence,
        gap_with_oracle=report.gap_with_oracle,
        gap_without_oracle=report.gap_without_oracle,
    )
    for field, values in exact.items():
        scale = max(abs(v) for v in values) or 1
        error = max(abs(Fraction(float(g)) - v) for g, v in zip(got[field], values))
        assert error <= ERROR_PER_STEP * (k_max + 1) * EPS * scale, (field, float(error / scale))
    # every marked item's success is the same series
    assert (report.success_mean == report.success_min).all()
    assert report.first_crossing() == _exact_crossing(exact["success"])


@pytest.mark.parametrize("kind, n, order", REFLECT_CASES, ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in REFLECT_CASES])
def test_reflection_report_matches_the_exact_reference(kind, n, order):
    k_max = _k_max(n)
    exact = exact_reflection_fields(kind, n, order, k_max)
    _check_fields(reflection_report(Model(kind, n, order), k_max), exact, k_max)


@pytest.mark.parametrize("n", GROVER_CASES)
def test_quantum_grover_report_matches_the_exact_reference(n):
    k_max = _k_max(n)
    _check_fields(quantum_grover_report(n, k_max), exact_grover_fields(n, k_max), k_max)


@pytest.mark.parametrize("n, k_star", [(2, 0), (3, 1), (4, 1), (1024, 13), (4096, 25)])
def test_grover_crossing_is_exact(n, k_star):
    k_max = _k_max(n)
    assert _exact_crossing(exact_grover_fields(n, k_max)["success"]) == k_star
    assert quantum_grover_report(n, k_max).first_crossing() == k_star
