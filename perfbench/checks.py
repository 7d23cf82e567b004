"""Output checks that do not depend on the implementation under test.

Every reference here is computed from the job's argv alone:

* the ceiling ``D_k <= 4 h k^2`` at every row, with the library's 1e-7
  absolute tolerance, and the row's ``upper_4hk2`` equal to ``4 h k^2``;
* at the first row whose ``success_min`` reaches 1/2, the floor
  ``D_k >= (sqrt(2 (N - sqrt N)) - sqrt N)^2`` with the library's 1e-6
  tolerance;
* every run has ``k_max + 1`` rows, ``k = 0..k_max``;
* every quantum grover row has ``success_min = sin^2((2k+1) asin(1/sqrt N))``
  within 1e-9 (Boyer, Brassard, Hoyer, Tapp, arXiv quant-ph/9605034), on both
  sides of the dense/fast-path selection; sweep rows are checked against the
  crossing, peak and maximum of that closed form;
* every ``verify`` job prints ``verify: all checks passed``.

Byte digests are deliberately not used: faster paths may change the random
stream and the float rounding and still be correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Iterable

UPPER_TOL = 1e-7
LOWER_TOL = 1e-6
GROVER_TOL = 1e-9
LOWER_BOUND_CONSTANT = 0.17
VERIFY_OK_LINE = "verify: all checks passed"


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def _flag(argv: tuple[str, ...], name: str) -> str | None:
    for i, tok in enumerate(argv):
        if tok == name and i + 1 < len(argv):
            return argv[i + 1]
    return None


def _expected_order(argv: tuple[str, ...]) -> int:
    model = _flag(argv, "--model") or "quantum"
    if model == "classical":
        return 1
    if model == "quantum":
        return 2
    h = _flag(argv, "--h")
    return 3 if h is None else int(h)


def _expected_strategy(argv: tuple[str, ...]) -> str:
    strategy = _flag(argv, "--strategy")
    if strategy is not None:
        return strategy
    return "grover" if (_flag(argv, "--model") or "quantum") == "quantum" else "reflect"


def _k_max(argv: tuple[str, ...], n: int) -> int:
    text = _flag(argv, "--k-max")
    return int(text) if text is not None else int(math.ceil(4.0 * math.sqrt(n)))


def grover_success(n: int, k: int) -> float:
    """Per-item success after k standard Grover iterations on N items."""
    return math.sin((2 * k + 1) * math.asin(1.0 / math.sqrt(n))) ** 2


def crossing_floor(n: int) -> float:
    root = math.sqrt(n)
    return max(0.0, math.sqrt(2.0 * (n - root)) - root) ** 2


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _csv_rows(text: str) -> list[dict]:
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _report_runs(text: str, fmt: str) -> list[list[dict]]:
    """Split a report output into runs, one list of rows per run."""
    if fmt == "json":
        return [report["rows"] for report in json.loads(text)["reports"]]
    runs: list[list[dict]] = []
    for row in _csv_rows(text):
        if int(row["k"]) == 0:
            runs.append([])
        _expect(bool(runs), "report CSV does not start at k=0")
        runs[-1].append(row)
    return runs


def _sweep_rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    return _csv_rows(text)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_run(argv: tuple[str, ...], rows: list[dict]) -> None:
    n = int(_flag(argv, "--n"))
    order = _expected_order(argv)
    strategy = _expected_strategy(argv)
    k_max = _k_max(argv, n)
    model = _flag(argv, "--model") or "quantum"
    grover = model == "quantum" and strategy == "grover"

    _expect(len(rows) == k_max + 1, f"{len(rows)} rows, expected k_max + 1 = {k_max + 1}")
    crossed = False
    floor = crossing_floor(n)
    for k, row in enumerate(rows):
        _expect(int(row["k"]) == k, f"row {k} has k={row['k']}")
        _expect(int(row["N"]) == n and int(row["h"]) == order,
                f"row {k} has N={row['N']} h={row['h']}, expected N={n} h={order}")
        d_k = float(row["D_k"])
        ceiling = 4.0 * order * k * k
        _expect(float(row["upper_4hk2"]) == ceiling,
                f"k={k}: upper_4hk2 {row['upper_4hk2']} != 4hk^2 = {ceiling}")
        _expect(d_k <= ceiling + UPPER_TOL, f"k={k}: D_k {d_k!r} > 4hk^2 = {ceiling}")
        success_min = float(row["success_min"])
        if grover:
            ref = grover_success(n, k)
            _expect(abs(success_min - ref) <= GROVER_TOL,
                    f"k={k}: grover success_min {success_min!r} != {ref!r}")
        if not crossed and success_min >= 0.5:
            crossed = True
            _expect(d_k >= floor - LOWER_TOL,
                    f"k={k}: D_k {d_k!r} below the crossing floor {floor!r}")


def _check_sweep_row(argv: tuple[str, ...], row: dict) -> None:
    """Quantum grover sweep rows against the closed-form success series."""
    n = int(row["N"])
    k_max = _k_max(argv, n)
    series = [grover_success(n, k) for k in range(k_max + 1)]
    _expect(int(row["k_max"]) == k_max, f"N={n}: k_max {row['k_max']} != {k_max}")
    _expect(abs(float(row["max_success"]) - max(series)) <= GROVER_TOL,
            f"N={n}: max_success {row['max_success']} != {max(series)!r}")
    peak = next(
        (k for k in range(k_max) if series[k + 1] < series[k] - 1e-12), k_max
    )
    _expect(int(row["k_peak"]) == peak, f"N={n}: k_peak {row['k_peak']} != {peak}")
    # a crossing within GROVER_TOL of 1/2 may legitimately land on either side
    near = [k for k, s in enumerate(series) if s >= 0.5 - GROVER_TOL]
    sure = [k for k, s in enumerate(series) if s >= 0.5 + GROVER_TOL]
    k_star = row["k_star"]
    if k_star in ("", None):
        _expect(not sure, f"N={n}: saturated, but success reaches 1/2 at k={sure[:1]}")
    else:
        k_star = int(k_star)
        lo = near[0] if near else None
        hi = sure[0] if sure else None
        _expect(lo is not None and lo <= k_star and (hi is None or k_star <= hi),
                f"N={n}: k_star {k_star} outside the reference range {lo}..{hi}")
        _expect(abs(float(row["success_at_k_star"]) - series[k_star]) <= GROVER_TOL,
                f"N={n}: success_at_k_star {row['success_at_k_star']} != {series[k_star]!r}")
    order = _expected_order(argv)
    floor = math.sqrt(LOWER_BOUND_CONSTANT * n / (4.0 * order))
    _expect(abs(float(row["floor_sqrt_cN_4h"]) - floor) <= 1e-12 * max(1.0, floor),
            f"N={n}: floor {row['floor_sqrt_cN_4h']} != {floor!r}")


def check_job(argv: Iterable[str], fmt: str | None, output: str, stdout_tail: str) -> None:
    """Raise `CheckFailed` unless the job's output matches its references.

    ``output`` is the ``--out`` file's text (unused for ``verify``) and
    ``stdout_tail`` the last line the command printed.
    """
    argv = tuple(argv)
    command = argv[0]
    if command == "verify":
        _expect(stdout_tail.strip() == VERIFY_OK_LINE,
                f"verify printed {stdout_tail.strip()!r}")
        return
    if command == "sweep":
        rows = _sweep_rows(output, fmt)
        ns = [int(x) for x in _flag(argv, "--n").split(",") if x.strip()]
        _expect([int(r["N"]) for r in rows] == ns, f"sweep rows for N={[r['N'] for r in rows]}")
        model = _flag(argv, "--model") or "quantum"
        _expect(model == "quantum" and _expected_strategy(argv) == "grover",
                "the checker has references for quantum grover sweeps only")
        for row in rows:
            _check_sweep_row(argv, row)
        return
    runs = _report_runs(output, fmt)
    expected_runs = 1
    if command == "bound" and _expected_strategy(argv) == "random":
        seeds = _flag(argv, "--seeds") or "1"
        parts = [s for s in seeds.split(",") if s.strip()]
        expected_runs = len(parts) if "," in seeds else int(parts[0])
    _expect(len(runs) == expected_runs, f"{len(runs)} runs, expected {expected_runs}")
    for rows in runs:
        _check_run(argv, rows)
