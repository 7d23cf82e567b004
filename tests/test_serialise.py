"""The one CSV writer and JSON envelope against the four writers they replace.

`reference.py` keeps each writer as it spelled out its own header, column
line, row loop and JSON envelope. Both sides serialise the same report and
sweep objects in one run, so the comparison is byte for byte whatever numpy's
SIMD and BLAS do to the last bits of the numbers.
"""

import csv
import io

import pytest

import reference
from hoisearch.search import (
    reports_to_json,
    run_experiment,
    scaling_sweep,
    sweep_to_json,
    write_report_csv,
    write_sweep_csv,
)

# the shape of the CLI's embedded config: strings, ints, floats and None
CONFIGS = [
    None,
    {"command": "bound", "format": "csv", "h": None, "k_max": 5, "n": "16", "tol": 1e-09},
]

REPORTS = [
    run_experiment("quantum", 16),  # the grover closed form
    run_experiment("classical", 8),  # reflect
    run_experiment("synthetic", 9, order=3, k_max=4),  # reflect
    run_experiment("quantum", 6, "random", seed=3, k_max=5),  # a seeded dense run
]

SWEEPS = {
    "grover": scaling_sweep("quantum", [2, 16, 64]),
    # every row saturated: no crossing to fit, an empty k_star per row
    "saturated": scaling_sweep("synthetic", [9, 27], order=3),
    # one N: neither exponent can be fitted
    "one-n": scaling_sweep("classical", [8]),
}


def _csv(writer, *args, **kwargs) -> str:
    buf = io.StringIO()
    writer(*args, buf, **kwargs)
    return buf.getvalue()


@pytest.mark.parametrize("config", CONFIGS, ids=["no-config", "config"])
def test_report_writers_match_the_reference(config):
    assert _csv(write_report_csv, REPORTS, config=config) == _csv(
        reference.write_report_csv, REPORTS, config=config
    )
    assert reports_to_json(REPORTS, config=config) == reference.reports_to_json(REPORTS, config=config)
    # a single report, and reports given as a one-shot iterator
    for report in REPORTS:
        assert _csv(write_report_csv, report, config=config) == _csv(
            reference.write_report_csv, report, config=config
        )
        assert reports_to_json(report, config=config) == reference.reports_to_json(report, config=config)
    assert _csv(write_report_csv, iter(REPORTS), config=config) == _csv(
        reference.write_report_csv, iter(REPORTS), config=config
    )
    assert reports_to_json(iter(REPORTS), config=config) == reference.reports_to_json(
        iter(REPORTS), config=config
    )


@pytest.mark.parametrize("config", CONFIGS, ids=["no-config", "config"])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_writers_match_the_reference(name, config):
    result = SWEEPS[name]
    got = _csv(write_sweep_csv, result, config=config)
    assert got == _csv(reference.write_sweep_csv, result, config=config)
    assert sweep_to_json(result, config=config) == reference.sweep_to_json(result, config=config)
    if name != "grover":
        assert "# exponent_crossing: n/a\n" in got
    if name == "saturated":
        assert all(row.saturated for row in result.rows)
        rows = csv.DictReader(line for line in got.splitlines() if not line.startswith("#"))
        assert [(row["k_star"], row["success_at_k_star"]) for row in rows] == [("", "")] * 2
