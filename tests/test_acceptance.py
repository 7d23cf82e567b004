"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and timings. Every criterion finishes in seconds.
"""

import itertools
import math
import time

import numpy as np

from hoisearch.cli import main as cli_main
from hoisearch.models import (
    classical_model,
    coherence_completeness_defect,
    coherence_layout_defect,
    coherence_projector,
    quantum_model,
    sign_flip_oracle,
    synthetic_model,
)
from hoisearch.search import (
    analytic_crossing_floor,
    check_lower_bound,
    check_upper_bound,
    default_k_max,
    oracle_displacement,
    quantum_grover_report,
    random_schedule,
    run_search,
    scaling_sweep,
)
from hoisearch.subsets import (
    SlitSet,
    coherence_expansion,
    enumerate_sectors,
    identity_decomposition,
    signed_pairing_count_closed,
    signed_pairing_counts,
)

from reference import dense_orthogonality_defects, formal_sum, grover_schedule, lift_unitary_conjugation

TOL_BLOCKS = 1e-9
TOL_ORACLE = 1e-10
TOL_UPPER = 1e-7
TOL_LOWER = 1e-6


def _verdict(number: int, name: str, ok: bool, detail: str, started: float) -> None:
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.1f}s] {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_exact_combinatorial_identities():
    started = time.time()
    # (a) summed coherence expansions reproduce the identity decomposition
    expansion_ok = True
    for n in range(1, 9):
        for h in range(1, n + 1):
            total = formal_sum(coherence_expansion(sector) for sector in enumerate_sectors(n, h))
            if total != identity_decomposition(h, n):
                expansion_ok = False
    # (b) exhaustive signed pairing counts match the closed form on {0..5}
    universe = 6
    subsets = [
        SlitSet(combo, universe)
        for size in range(universe + 1)
        for combo in itertools.combinations(range(universe), size)
    ]
    triples = 0
    pairing_ok = True
    for left in subsets:
        for right in subsets:
            counts = signed_pairing_counts(left, right)
            for meet in left.intersection(right).subsets(include_empty=True):
                triples += 1
                if counts[meet.mask] != signed_pairing_count_closed(left, right, meet):
                    pairing_ok = False
    ok = expansion_ok and pairing_ok and time.time() - started < 10.0
    _verdict(
        1,
        "exact combinatorics",
        ok,
        f"all (N,h) expansions N<=8 exact; {triples} pairing triples exact",
        started,
    )


def test_criterion_2_coherence_block_suite():
    started = time.time()
    models = [classical_model(n) for n in range(1, 9)]
    models += [quantum_model(n) for n in range(2, 9)]
    models += [synthetic_model(n, 3) for n in range(3, 9)]
    models += [synthetic_model(n, 4) for n in range(4, 9)]
    worst_complete = 0.0
    worst_pair = 0.0
    worst_pyth = 0.0
    misplaced = 0
    for model in models:
        worst_complete = max(worst_complete, coherence_completeness_defect(model))
        misplaced += coherence_layout_defect(model)
        # the library's own block projectors, multiplied out densely
        family = np.stack([coherence_projector(model, sec) for sec in model.space.sectors])
        pair, pyth = dense_orthogonality_defects(model, family)
        worst_pair = max(worst_pair, pair)
        worst_pyth = max(worst_pyth, pyth)
    ok = max(worst_complete, worst_pair, worst_pyth) < TOL_BLOCKS and misplaced == 0
    ok = ok and time.time() - started < 30.0
    _verdict(
        2,
        "coherence block suite",
        ok,
        f"{len(models)} models; defects: completeness {worst_complete:.2e}, "
        f"pairwise {worst_pair:.2e}, pythagoras {worst_pyth:.2e}; {misplaced} block runs out of order",
        started,
    )


def test_criterion_3_oracle_equals_phase_conjugation():
    started = time.time()
    worst = 0.0
    for n in range(2, 9):
        model = quantum_model(n)
        for x in range(n):
            phase = np.eye(n, dtype=complex)
            phase[x, x] = -1.0
            lifted = lift_unitary_conjugation(model, phase)
            direct = np.diag(sign_flip_oracle(model, x))
            worst = max(worst, float(np.max(np.abs(lifted - direct))))
    ok = worst < TOL_ORACLE and time.time() - started < 10.0
    _verdict(
        3,
        "oracle equivalence",
        ok,
        f"N=2..8, all marked items; max entrywise deviation {worst:.2e}",
        started,
    )


def test_criterion_4_single_iteration_exactness():
    started = time.time()
    model = quantum_model(4)
    report = run_search(model, grover_schedule(model), 1)
    success_err = float(np.max(np.abs(report.success[1] - 1.0)))
    divergence_err = abs(float(report.divergence[1]) - 6.0)
    ok = (
        success_err < 1e-9
        and divergence_err < 1e-9
        and report.divergence[1] <= report.upper_bound[1] == 8.0
        and time.time() - started < 1.0
    )
    _verdict(
        4,
        "single-iteration exactness",
        ok,
        f"success error {success_err:.2e}, divergence 6.0 error {divergence_err:.2e}, "
        f"ceiling 8.0",
        started,
    )


def test_criterion_5_upper_bound_everywhere():
    started = time.time()
    failures = []
    # (a) the standard quantum schedule across three decades of N
    for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
        report = quantum_grover_report(n, default_k_max(n))
        check = check_upper_bound(report, tol=TOL_UPPER)
        if not check.holds:
            failures.append(f"grover N={n}: excess {check.max_excess:.2e}")
    # dense-route cross-check at small N
    for n in (4, 8, 16):
        model = quantum_model(n)
        report = run_search(model, grover_schedule(model), default_k_max(n))
        if not check_upper_bound(report, tol=TOL_UPPER).holds:
            failures.append(f"grover dense N={n}")
    # (b) 20-seed random schedules per model family at N = 16, on step
    # budgets that shrink with the sector dimension, and for h = 3, 4 also at
    # the full default budget; the bound is checked at every executed step
    synthetic3, synthetic4 = synthetic_model(16, 3), synthetic_model(16, 4)
    cases = [
        (classical_model(16), 16),
        (quantum_model(16), 16),
        (synthetic3, 10),
        (synthetic4, 5),
        (synthetic3, default_k_max(16)),
        (synthetic4, default_k_max(16)),
    ]
    runs = 0
    for model, k_max in cases:
        for seed in range(20):
            report = run_search(model, random_schedule(model, seed), k_max)
            runs += 1
            check = check_upper_bound(report, tol=TOL_UPPER)
            if not check.holds:
                failures.append(
                    f"{model.kind} h={model.order} seed={seed}: excess {check.max_excess:.2e}"
                )
    ok = not failures and time.time() - started < 300.0
    _verdict(
        5,
        "divergence ceiling 4hk^2",
        ok,
        f"9 grover sizes + 3 dense cross-checks + {runs} random runs; "
        + ("no violations" if not failures else "; ".join(failures[:3])),
        started,
    )


def test_criterion_6_displacement_bound():
    started = time.time()
    failures = []
    cases = [
        classical_model(16),
        quantum_model(8),
        synthetic_model(8, 3),
        synthetic_model(8, 4),
    ]
    worst_margin = -np.inf
    for case_index, model in enumerate(cases):
        rng = np.random.default_rng(9000 + case_index)
        bound = 4.0 * model.order
        for _ in range(1000):
            coords = rng.standard_normal(model.space.total_dim)
            coords /= np.linalg.norm(coords)
            value = oracle_displacement(model, coords)
            worst_margin = max(worst_margin, value - bound)
            if value > bound + 1e-9:
                failures.append(f"{model.kind} h={model.order}: {value} > {bound}")
                break
    worst_uniform = 0.0
    for n in list(range(2, 9)) + [16]:
        model = quantum_model(n)
        expected = 8.0 * (n - 1) / n
        err = abs(oracle_displacement(model, model.uniform_state) - expected)
        worst_uniform = max(worst_uniform, err)
        if err > 1e-9:
            failures.append(f"uniform N={n}: error {err:.2e}")
    ok = not failures and time.time() - started < 60.0
    _verdict(
        6,
        "displacement bound 4h",
        ok,
        f"4000 random states, worst margin {worst_margin:.2e}; "
        f"uniform-state closed form error {worst_uniform:.2e}",
        started,
    )


def test_criterion_7_lower_bound_at_crossing():
    started = time.time()
    n = 1024
    report = quantum_grover_report(n, 16)
    check = check_lower_bound(report, tol=TOL_LOWER)
    floor = analytic_crossing_floor(n)
    ok = (
        check.crossed
        and check.holds
        and check.floor == floor
        and time.time() - started < 120.0
    )
    _verdict(
        7,
        "finite-N divergence floor",
        ok,
        f"N=1024 crossing at k={check.crossing_k}, divergence "
        f"{check.measured:.2f} >= floor {floor:.4f}",
        started,
    )


def test_criterion_8_query_count_scaling():
    started = time.time()
    grid = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
    result = scaling_sweep("quantum", grid, "grover")
    rows = {row.n_slits: row for row in result.rows}
    failures = []
    # (a) the first success peak reproduces the canonical iteration count
    for n in (4, 16, 64, 256, 1024):
        reference = math.ceil(math.pi / 4.0 * math.sqrt(n))
        if abs(rows[n].k_peak - reference) > 1:
            failures.append(f"N={n}: peak {rows[n].k_peak} vs {reference}")
    # (b) both query statistics scale as sqrt(N)
    exp_star = result.exponent("crossing")
    exp_peak = result.exponent("peak")
    for label, value in (("crossing", exp_star), ("peak", exp_peak)):
        if value is None or not 0.45 <= value <= 0.55:
            failures.append(f"exponent {label} = {value}")
    # (c) every recorded count clears the asymptotic floor
    for row in result.rows:
        threshold = math.sqrt(0.17 * row.n_slits / (4.0 * row.order)) - 1.0
        if row.k_star is None or row.k_star < threshold or row.k_peak < threshold:
            failures.append(f"N={row.n_slits} below floor {threshold:.2f}")
    ok = not failures and time.time() - started < 300.0
    _verdict(
        8,
        "sqrt(N/h) scaling",
        ok,
        f"exponents crossing {exp_star:.4f} / peak {exp_peak:.4f}; "
        f"peaks {[rows[n].k_peak for n in (4, 16, 64, 256, 1024)]} vs "
        f"ceil(pi/4 sqrt(N)); " + ("all floors cleared" if not failures else "; ".join(failures)),
        started,
    )


def test_criterion_9_reproducible_cli_output(tmp_path, capsys):
    started = time.time()
    invocations = [
        ["search", "--model", "quantum", "--n", "12", "--strategy", "grover"],
        ["search", "--model", "synthetic", "--n", "6", "--h", "3",
         "--strategy", "random", "--seeds", "0,"],
        ["bound", "--model", "quantum", "--n", "16", "--strategy", "grover"],
        ["sweep", "--model", "quantum", "--n", "4,16,64", "--strategy", "grover"],
    ]
    identical = True
    for i, argv in enumerate(invocations):
        a, b = tmp_path / f"a{i}.csv", tmp_path / f"b{i}.csv"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            identical = False
    capsys.readouterr()
    _verdict(
        9,
        "byte-identical CSV",
        identical,
        f"{len(invocations)} command shapes re-run and compared",
        started,
    )
