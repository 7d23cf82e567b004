"""Trajectory, progress-measure, bound, and sweep tests.

Quantum expectations are frozen from the independent closed-form route: with
t = arcsin(1/sqrt(N)), per-item success after k queries is sin((2k+1) t)^2
and the divergence is 2 N sin(2 k t)^2. The dense simulation never sees
these formulas; they gate its output here. The closed-form report
``quantum_grover_report`` is built from them, so it is cross-checked against
the dense route and against a direct amplitude simulation kept below as the
reference. The closed-form ``reflection_report`` is cross-checked against the
dense ``reflection_schedule`` run in every family. The dense schedules are
test references (``reference.py``); `run_experiment` maps every strategy to
its route and checks the whole spec before it builds a model.
"""

import dataclasses
import io
import math
import time
import tracemalloc
import types

import numpy as np
import pytest

import hoisearch.models
import hoisearch.search
from hoisearch.models import (
    NumericError,
    build_model,
    classical_model,
    coherence_projector,
    quantum_model,
    sign_flip_oracle,
    synthetic_model,
)
from hoisearch.subsets import EnumerationLimitError
from hoisearch.search import (
    analytic_crossing_floor,
    check_lower_bound,
    check_upper_bound,
    ProgressReport,
    Schedule,
    default_k_max,
    oracle_displacement,
    quantum_grover_report,
    random_schedule,
    reflection_report,
    reports_to_json,
    run_experiment,
    run_search,
    scaling_sweep,
    sweep_to_json,
    write_report_csv,
    write_sweep_csv,
    MAX_DENSE_ENTRIES,
    REPORT_CSV_COLUMNS,
)

from reference import grover_schedule, lift_unitary_conjugation, reflection_schedule


def assert_reports_equal(got, want, label=None, rel=0.0):
    """Every `ProgressReport` field equal: the marked items one by one, other
    scalars exactly, and arrays element for element, or, with ``rel`` > 0,
    to within ``rel * max(1, |want|)`` each."""
    for field in dataclasses.fields(ProgressReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape, (label, field.name)
            assert np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))), (label, field.name)
        elif field.name == "marked":
            assert tuple(a) == tuple(b), (label, field.name)
        else:
            assert a == b, (label, field.name)


def grover_run(n, k_max):
    model = quantum_model(n)
    return model, run_search(model, grover_schedule(model), k_max)


def trajectory_history(model, schedule, k_max):
    """Every state of every trajectory, replayed with `run_search`'s loop
    but without its reversibility check.

    Returns the oracle-driven states, shape (k_max + 1, N, M), row x with
    item x marked, and the oracle-free control states, shape (k_max + 1, M).
    """
    n, m_dim = model.n_slits, model.space.total_dim
    oracle_diags = np.vstack([sign_flip_oracle(model, x) for x in range(n)] + [np.ones(m_dim)])
    batch = np.tile(model.uniform_state, (n + 1, 1))
    history = [batch]
    for k in range(1, k_max + 1):
        batch = schedule.apply(k, batch * oracle_diags)
        history.append(batch)
    history = np.stack(history)
    return history[:, :n], history[:, n]


def amplitude_grover_reference(n, k_max):
    """Direct simulation of the N real amplitude vectors, O(N^2 k).

    One column per marked item plus the oracle-free control; overlaps become
    sector-coordinate distances through the pure-state embedding identities
    ``<emb a, emb b> = <a, b>^2`` and ``||emb a - emb b||^2 = 2 (1 - <a, b>^2)``.
    Returns (success, D_k, E_k, F_k).
    """
    u = np.full(n, 1.0 / math.sqrt(n))
    psi = np.tile(u[:, None], (1, n))  # column x: trajectory with item x marked
    phi = u.copy()
    idx = np.arange(n)

    succ = np.empty((k_max + 1, n))
    fid_free = np.empty((k_max + 1, n))
    phi_at_targets = np.empty((k_max + 1, n))
    succ[0] = psi[idx, idx] ** 2
    fid_free[0] = (phi @ psi) ** 2
    phi_at_targets[0] = phi**2

    for k in range(1, k_max + 1):
        psi[idx, idx] = -psi[idx, idx]  # the query: flip the marked amplitude
        psi = 2.0 * np.outer(u, u @ psi) - psi  # inversion about uniform
        phi = 2.0 * u * float(u @ phi) - phi
        succ[k] = psi[idx, idx] ** 2
        fid_free[k] = (phi @ psi) ** 2
        phi_at_targets[k] = phi**2

    divergence = 2.0 * np.sum(1.0 - fid_free, axis=1)
    gap_with = 2.0 * np.sum(1.0 - succ, axis=1)
    gap_without = 2.0 * np.sum(1.0 - phi_at_targets, axis=1)
    return succ, divergence, gap_with, gap_without


# ---------------------------------------------------------------------------
# Elementary pieces
# ---------------------------------------------------------------------------

def test_uniform_start_success_is_one_over_n():
    for model in (classical_model(4), quantum_model(4), synthetic_model(4, 3)):
        assert model.uniform_state[model.basis_index] == pytest.approx(np.full(4, 0.25))
        report = run_search(model, reflection_schedule(model), 0)
        assert report.success[0] == pytest.approx(np.full(4, 0.25))


def test_success_probability_on_target_state():
    model = quantum_model(3)
    target = np.zeros(model.space.total_dim)
    target[model.basis_index[1]] = 1.0
    report = run_search(model, grover_schedule(model), 0, marked=(1,), start=target)
    assert report.success[0, 0] == 1.0
    assert report.gap_with_oracle[0] == 0.0
    with pytest.raises(ValueError, match="out of range"):
        run_search(model, grover_schedule(model), 0, marked=(3,))
    with pytest.raises(ValueError, match="at least one marked item"):
        run_search(model, grover_schedule(model), 0, marked=())


def test_reflection_fixes_axis_and_is_an_orthogonal_involution():
    model = synthetic_model(4, 3)
    reflect = reflection_schedule(model)
    eye = np.eye(model.space.total_dim)
    fixed = reflect.apply(1, model.uniform_state[None, :])[0]
    assert np.max(np.abs(fixed - model.uniform_state)) < 1e-12
    step = reflect.apply(1, eye).T
    assert np.max(np.abs(step.T @ step - eye)) < 1e-12
    assert np.max(np.abs(reflect.apply(2, reflect.apply(1, eye)) - eye)) < 1e-12
    # no model has a zero uniform state, so a stand-in carries one
    zero = types.SimpleNamespace(uniform_state=np.zeros(model.space.total_dim))
    with pytest.raises(ValueError, match="zero vector"):
        reflection_schedule(zero)


def test_sector_reflection_differs_from_lifted_diffusion():
    # both fix the embedded uniform state, but they are different orthogonal
    # maps; quantum schedules must use the conjugation
    model = quantum_model(3)
    eye = np.eye(9)
    grover = grover_schedule(model)
    reflected = reflection_schedule(model).apply(1, eye)
    assert np.max(np.abs(grover.apply(1, eye) - reflected)) > 0.1
    fixed = grover.apply(1, model.uniform_state[None, :])[0]
    assert np.max(np.abs(fixed - model.uniform_state)) < 1e-12


def test_grover_step_matches_the_lifted_diffusion():
    # the batch conjugation against the dense lift, built one coordinate at
    # a time; entries are O(1) sums of O(N^2) products
    for n in range(2, 9):
        model = quantum_model(n)
        step = grover_schedule(model).apply(1, np.eye(model.space.total_dim)).T
        lifted = lift_unitary_conjugation(model, np.full((n, n), 2.0 / n) - np.eye(n))
        assert np.max(np.abs(step - lifted)) < 1e-12, n


def test_reflect_step_matches_the_explicit_reflection():
    for model in (classical_model(5), quantum_model(4), synthetic_model(5, 3)):
        s = model.uniform_state
        explicit = 2.0 * np.outer(s, s) / np.dot(s, s) - np.eye(s.shape[0])
        step = reflection_schedule(model).apply(1, np.eye(s.shape[0])).T
        assert np.max(np.abs(step - explicit)) < 1e-12, model.kind


def test_random_schedule_is_deterministic_with_distinct_steps():
    model = synthetic_model(4, 2)
    rows = np.random.default_rng(3).standard_normal((3, model.space.total_dim))
    schedule = random_schedule(model, 7)
    out = schedule.apply(1, rows)
    assert np.max(np.abs(out @ out.T - rows @ rows.T)) < 1e-12
    assert np.array_equal(out, random_schedule(model, 7).apply(1, rows))
    assert not np.array_equal(out, schedule.apply(2, rows))
    with pytest.raises(ValueError):
        schedule.apply(0, rows)


def test_random_step_has_the_haar_law():
    # a Haar step sends a unit vector to a uniform point on the unit sphere
    # of R^M, whose squared first coordinate has mean 1/M
    model = synthetic_model(4, 2)
    m = model.space.total_dim
    unit = model.uniform_state[None, :] / np.linalg.norm(model.uniform_state)
    samples = np.array(
        [random_schedule(model, seed).apply(1, unit)[0, 0] ** 2 for seed in range(4000)]
    )
    stderr = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - 1.0 / m) < 5.0 * stderr


# ---------------------------------------------------------------------------
# run_search
# ---------------------------------------------------------------------------

def test_trajectories_start_at_the_start_state():
    model = quantum_model(4)
    report = run_search(model, grover_schedule(model), 2)
    # row 0: every trajectory and the control sit exactly on the start state
    assert report.divergence[0] == 0.0
    assert report.gap_with_oracle[0] == report.gap_without_oracle[0]
    assert np.array_equal(
        report.success[0], model.uniform_state[model.basis_index]
    )


def test_trajectory_norm_conservation():
    for model in (quantum_model(4), synthetic_model(5, 3)):
        report = run_search(model, random_schedule(model, 3), 6)
        # ||s_x - e_x||^2 = 2 - 2 <e_x, s_x> for unit-norm s_x and e_x
        expected = 2.0 * len(report.marked) - 2.0 * report.success.sum(axis=1)
        assert np.max(np.abs(report.gap_with_oracle - expected)) < 1e-9


def test_classical_oracle_never_separates_trajectories():
    model = classical_model(6)
    report = run_search(model, random_schedule(model, 11), 8)
    assert np.all(report.divergence == 0.0)


def test_run_search_rejects_irreversible_steps():
    model = quantum_model(3)
    scaled = Schedule("scaled", lambda _k, rows: 2.0 * rows)
    # a NaN defect is no smaller than any tolerance either
    nan_rows = Schedule("nan", lambda _k, rows: np.full_like(rows, np.nan))
    for bad in (scaled, nan_rows):
        with pytest.raises(NumericError, match="not reversible"):
            run_search(model, bad, 1)


def test_run_search_checks_every_fresh_step():
    # Haar steps, one of them scaled off the orthogonal group: every step is
    # checked, not only the first
    for model in (quantum_model(4), synthetic_model(8, 3)):
        haar = random_schedule(model, 5)
        for bad_k in (1, 4, 8, 13, 20):
            def apply_fn(index, rows, bad_k=bad_k, haar=haar):
                scale = 1.01 if index == bad_k else 1.0
                return scale * haar.apply(index, rows)

            with pytest.raises(NumericError, match=f"step {bad_k} is not reversible"):
                run_search(model, Schedule("scaled", apply_fn), 20)


def test_random_run_builds_no_m_by_m_matrix():
    # synthetic(16, 4) has M = 2516: one M x M step matrix alone is 50.6 MB
    tracemalloc.start()
    try:
        run_experiment("synthetic", 16, "random", order=4, k_max=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_run_memory_does_not_grow_with_k():
    # classical(256) has M = 256: a (k_max + 1, N, M) history of the run
    # would alone be 65 * 256 * 256 * 8 B = 34 MB. The dense route, not the
    # closed form that run_experiment takes for reflect runs
    tracemalloc.start()
    try:
        model = classical_model(256)
        run_search(model, reflection_schedule(model), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_run_search_marked_subset_and_accessors():
    model = quantum_model(4)
    report = run_search(model, grover_schedule(model), 1, marked=(2,))
    assert report.marked == (2,)
    assert report.success.shape == (2, 1)
    assert report.success[0, 0] == pytest.approx(0.25)
    assert report.success[1, 0] == pytest.approx(1.0, abs=1e-9)
    # the control starts on the uniform state, which the diffusion fixes
    assert report.divergence[0] == 0.0
    assert report.gap_without_oracle[1] == pytest.approx(report.gap_without_oracle[0], abs=1e-9)


def test_run_search_rejects_foreign_start_state():
    model = quantum_model(3)
    other = quantum_model(4)
    with pytest.raises(ValueError, match=r"state has shape \(16,\), expected \(9,\)"):
        run_search(model, grover_schedule(model), 1, start=other.uniform_state)


# ---------------------------------------------------------------------------
# Progress measures: frozen quantum values
# ---------------------------------------------------------------------------

def test_single_iteration_exactness_at_four_items():
    _, report = grover_run(4, 2)
    assert report.success[1] == pytest.approx(np.ones(4), abs=1e-9)
    assert report.divergence[1] == pytest.approx(6.0, abs=1e-9)
    assert report.upper_bound[1] == 8.0
    assert report.divergence[0] == 0.0
    # all oracle-driven states are pure: distance to target vanishes at k=1
    assert report.gap_with_oracle[1] == pytest.approx(0.0, abs=1e-9)


def test_quantum_success_and_divergence_match_trigonometry():
    n, k_max = 16, 8
    theta = math.asin(1.0 / math.sqrt(n))
    _, report = grover_run(n, k_max)
    for k in range(k_max + 1):
        expected_success = math.sin((2 * k + 1) * theta) ** 2
        assert report.success[k] == pytest.approx(
            np.full(n, expected_success), abs=1e-9
        ), k
        expected_divergence = 2 * n * math.sin(2 * k * theta) ** 2
        assert report.divergence[k] == pytest.approx(expected_divergence, abs=1e-9), k


def test_fast_path_matches_dense_simulation():
    for n in range(2, 33):
        _, dense = grover_run(n, default_k_max(n))
        fast = quantum_grover_report(n, default_k_max(n))
        for attr in (
            "k",
            "divergence",
            "upper_bound",
            "gap_with_oracle",
            "gap_without_oracle",
            "pair_lower_bound",
            "success",
        ):
            assert getattr(dense, attr) == pytest.approx(getattr(fast, attr), abs=1e-9), (n, attr)
        assert (fast.descriptor, fast.strategy, fast.seed, fast.n_slits, fast.order) == (
            dense.descriptor, dense.strategy, dense.seed, dense.n_slits, dense.order
        )
        assert tuple(fast.marked) == dense.marked
        # at N = 2 the success is exactly 1/2 at every k: crossing at k = 0
        assert fast.first_crossing() == dense.first_crossing(), n
        assert fast.first_peak() == dense.first_peak(), n


def forbid_sector_enumeration(monkeypatch, what):
    """Fail the test if anything enumerates a model's sectors, as every dense
    route does and no model construction may."""
    def refuse(*_args):
        raise AssertionError(f"{what} enumerated a sector")

    monkeypatch.setattr(hoisearch.models, "enumerate_sectors", refuse)


def test_run_experiment_takes_the_closed_form_at_every_n(monkeypatch):
    forbid_sector_enumeration(monkeypatch, "a quantum grover run")
    for n in range(2, 34):
        assert_reports_equal(
            run_experiment("quantum", n), quantum_grover_report(n, default_k_max(n)), n
        )


def test_fast_path_matches_amplitude_simulation():
    eps = np.finfo(float).eps
    for n in (33, 64, 257, 1000):
        k_max = 3 * default_k_max(n)
        succ, divergence, gap_with, gap_without = amplitude_grover_reference(n, k_max)
        fast = quantum_grover_report(n, k_max)
        # each reference step rounds a length-N dot product of unit vectors
        # (error <= N eps per amplitude), accumulated over k_max steps; every
        # per-item term lies in [0, 2], so the sums over N items get 2N times that
        per_term = k_max * n * eps
        assert np.max(np.abs(fast.success - succ)) <= per_term, n
        for name, ref, got in (
            ("D_k", divergence, fast.divergence),
            ("E_k", gap_with, fast.gap_with_oracle),
            ("F_k", gap_without, fast.gap_without_oracle),
        ):
            assert np.max(np.abs(got - ref)) <= 2 * n * per_term, (n, name)
        ref_series = succ.min(axis=1)
        ref_crossing = np.nonzero(ref_series >= 0.5)[0][0]
        ref_peak = np.nonzero(np.diff(ref_series) < -1e-12)[0][0]
        assert fast.first_crossing() == ref_crossing, n
        assert fast.first_peak() == ref_peak, n


def test_fast_path_is_o_k_at_a_million_items():
    n = 10**6
    started = time.perf_counter()
    report = quantum_grover_report(n, default_k_max(n))
    assert time.perf_counter() - started < 1.0
    assert report.success.shape == (default_k_max(n) + 1, n)
    assert not report.success.flags.writeable
    assert report.success.strides[1] == 0  # one column of storage, not N
    # the summaries are the per-item series itself, not reductions over N columns
    per_item = report.success[:, 0]
    assert np.array_equal(report.success_mean, per_item)
    assert np.array_equal(report.success_min, per_item)
    started = time.perf_counter()
    assert report.first_crossing() == int(np.argmax(per_item >= 0.5))
    assert time.perf_counter() - started < 1.0


REFLECT_SPECS = (
    [("classical", n, 1) for n in range(1, 17)]
    + [("quantum", n, 2) for n in range(2, 17)]
    + [("synthetic", n, h) for n in range(1, 17) for h in range(1, min(n, 4) + 1)]
)


def test_reflection_report_matches_dense_simulation():
    # N <= 16 and h <= 4 in every family, with N = 1, h = N and N = 2
    eps = np.finfo(float).eps
    for kind, n, h in REFLECT_SPECS:
        model = build_model(kind, n, h)
        k_max = default_k_max(n)
        dense = run_search(model, reflection_schedule(model), k_max)
        fast = reflection_report(model, k_max)
        # each dense step is a rank-1 reflection whose length-M dot product
        # rounds with relative error up to M eps, accumulated over the k_max
        # steps; D_k, E_k and F_k are sums of nonnegative terms, so the same
        # relative bound holds for them (measured: at most 0.41 of it)
        rel = (k_max + 1) * model.space.total_dim * eps
        assert_reports_equal(fast, dense, (kind, n, h), rel=rel)
        assert fast.first_crossing() == dense.first_crossing(), (kind, n, h)
        assert fast.first_peak() == dense.first_peak(), (kind, n, h)
    # at N = 2 success starts exactly on 1/2: the crossing is at k = 0
    for kind, h in (("classical", 1), ("quantum", 2), ("synthetic", 1), ("synthetic", 2)):
        report = reflection_report(build_model(kind, 2, h), 4)
        assert report.success_min[0] == 0.5 and report.first_crossing() == 0, kind


def test_run_experiment_takes_the_reflect_closed_form_at_every_n(monkeypatch):
    forbid_sector_enumeration(monkeypatch, "a reflect run")
    for kind, n, h in REFLECT_SPECS + [("synthetic", 1000, 3), ("quantum", 1000, 2)]:
        got = run_experiment(kind, n, "reflect", order=h)
        expected = reflection_report(build_model(kind, n, h), default_k_max(n))
        assert_reports_equal(got, expected, (kind, n, h))
    # reflect is the default strategy of the classical and synthetic families
    assert_reports_equal(
        run_experiment("synthetic", 9, order=3), reflection_report(build_model("synthetic", 9, 3), 12)
    )


def test_run_experiment_builds_a_reflect_model_once(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return build_model(*args, **kwargs)

    monkeypatch.setattr(hoisearch.search, "build_model", counted)
    run_experiment("synthetic", 9, "reflect", order=3)
    assert built == [("synthetic", 9, 3)]


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("synthetic", 10**6, "grover"), {"order": 4},
         "the grover strategy is defined on the quantum model only"),
        (("quantum", 8, "annealing"), {}, "unknown strategy 'annealing'"),
        (("quantum", 127, "random"), {"k_max": -1}, "k_max must be >= 0, got -1"),
    ],
    ids=["grover-on-synthetic", "unknown-strategy", "negative-k_max"],
)
def test_no_spec_error_builds_a_model(monkeypatch, args, kwargs, message):
    # the whole spec is checked before a model's sectors are enumerated:
    # synthetic(10^6, 4) alone has 4e22 of them
    forbid_sector_enumeration(monkeypatch, "a refused spec")
    with pytest.raises(ValueError) as excinfo:
        run_experiment(*args, **kwargs)
    assert str(excinfo.value) == message


def test_random_runs_take_run_search_on_a_random_schedule():
    for kind, n, h in (("classical", 5, None), ("quantum", 4, None), ("synthetic", 5, 3)):
        model = build_model(kind, n, h)
        dense = run_search(model, random_schedule(model, 5), 3)
        got = run_experiment(kind, n, "random", order=h, seed=5, k_max=3)
        assert got.strategy == "random:5" and got.seed == 5, kind
        assert_reports_equal(got, dense, kind)


@pytest.mark.parametrize(
    "kind, n, order",
    [("quantum", 1, None), ("classical", 0, None), ("classical", 4, 2), ("synthetic", 4, None),
     ("synthetic", 0, 1), ("synthetic", 3, 4), ("synthetic", 3, 0), ("thermal", 4, 1)],
)
def test_reflect_spec_errors_are_the_models(kind, n, order):
    with pytest.raises(ValueError) as from_model:
        build_model(kind, n, order)
    with pytest.raises(ValueError) as from_run:
        run_experiment(kind, n, "reflect", order=order)
    assert str(from_run.value) == str(from_model.value)


def test_reflect_at_a_million_items_saturates_below_the_ceiling():
    n = 10**6
    started = time.perf_counter()
    for kind, h in [("classical", 1), ("quantum", 2)] + [("synthetic", h) for h in range(2, 7)]:
        report = run_experiment(kind, n, "reflect", order=h)
        assert check_upper_bound(report).holds, (kind, h)
        assert report.success_min[0] == 1.0 / n, (kind, h)
        # success_k <= 1 / (N cos phi) < 1/2 at every N >= 3
        assert report.first_crossing() is None, (kind, h)
        assert report.success.strides[1] == 0, (kind, h)
    assert time.perf_counter() - started < 1.0


class _Admitted(Exception):
    pass


def test_size_guards_refuse_early_and_admit_the_dense_runs_in_use(monkeypatch):
    for model in (classical_model(1024), synthetic_model(16, 4)):
        assert (model.n_slits + 1) * model.space.total_dim <= MAX_DENSE_ENTRIES
    with pytest.raises(EnumerationLimitError, match="past the guard"):
        run_experiment("quantum", 128, "random")
    # a report holds k_max + 1 entries per field, times N in a random run's
    # success rows; past the guard it is refused before any route allocates
    # one (synthetic N = 10^15, h = 3 has the default k_max 126,491,107)
    def admitted(*_args, **_kwargs):
        raise _Admitted

    with monkeypatch.context() as patched:
        for route in ("reflection_report", "quantum_grover_report", "random_schedule"):
            patched.setattr(hoisearch.search, route, admitted)
        for args, kwargs in [
            (("quantum", 64), {"k_max": 10**11}),
            (("quantum", 64), {"k_max": 2**21}),
            (("synthetic", 8, "reflect"), {"order": 3, "k_max": 2**21}),
            (("synthetic", 10**15), {"order": 3}),
            (("quantum", 8, "random"), {"k_max": 2**18}),
        ]:
            with pytest.raises(EnumerationLimitError, match="entries, past the guard of 2097152"):
                run_experiment(*args, **kwargs)
        # N (k_max + 1) = 2^21 exactly
        with pytest.raises(_Admitted):
            run_experiment("quantum", 8, "random", k_max=2**18 - 1)
    # a closed form's success is one broadcast column: 2^21 entries pass
    assert run_experiment("quantum", 64, k_max=2**21 - 1).k[-1] == 2**21 - 1
    assert run_experiment("synthetic", 10**9, order=4).k[-1] == default_k_max(10**9) == 126_492
    # a report's success rows are N long, so N stops at the largest index
    for kind in ("classical", "quantum", "synthetic"):
        with pytest.raises(ValueError, match="past the largest array index"):
            run_experiment(kind, 10**170, order=2 if kind == "synthetic" else None, k_max=1)
    # the closed form counts sectors in floats: C(10^9, 40) is past their range
    with pytest.raises(EnumerationLimitError, match="than a float can count"):
        run_experiment("synthetic", 10**9, order=40, k_max=1)


def test_pure_state_distance_identity():
    # for unit-norm trajectories the target gap collapses to 2 sum (1 - success)
    _, report = grover_run(8, 6)
    expected = 2.0 * np.sum(1.0 - report.success, axis=1)
    assert report.gap_with_oracle == pytest.approx(expected, abs=1e-9)


def three_buffer_measures(model, with_states, free_states):
    """Reference measures on a stored history, with one (k+1, X, M)
    difference array per measure: (D_k, E_k, F_k, success)."""
    basis = np.eye(model.space.total_dim)[model.basis_index]
    diff_pair = with_states - free_states[:, None, :]
    divergence = np.einsum("kxm,kxm->k", diff_pair, diff_pair)
    diff_target = with_states - basis[None, :, :]
    gap_with = np.einsum("kxm,kxm->k", diff_target, diff_target)
    diff_free = free_states[:, None, :] - basis[None, :, :]
    gap_without = np.einsum("kxm,kxm->k", diff_free, diff_free)
    success = np.einsum("kxm,xm->kx", with_states, basis)
    return divergence, gap_with, gap_without, success


@pytest.mark.parametrize(
    "model, strategy",
    [
        (quantum_model(13), "grover"),
        (quantum_model(16), "random"),
        (synthetic_model(16, 4), "random"),
    ],
    ids=["quantum13-grover", "quantum16-random", "synthetic16-4-random"],
)
def test_progress_measures_equal_the_three_buffer_formula(model, strategy):
    schedule = grover_schedule(model) if strategy == "grover" else random_schedule(model, 3)
    k_max = default_k_max(model.n_slits)
    report = run_search(model, schedule, k_max)
    divergence, gap_with, gap_without, success = three_buffer_measures(
        model, *trajectory_history(model, schedule, k_max)
    )
    assert np.array_equal(report.success, success)
    # per-k sums of X * M terms, which einsum may reduce in another order over
    # a (3, X, M) stack than over a (k_max + 1, X, M) one
    for name, got, want in (
        ("D_k", report.divergence, divergence),
        ("E_k", report.gap_with_oracle, gap_with),
        ("F_k", report.gap_without_oracle, gap_without),
    ):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), name


def test_divergence_dominates_pair_lower_bound():
    for model, schedule in (
        (quantum_model(4), None),
        (synthetic_model(5, 3), None),
        (classical_model(5), None),
    ):
        schedule = random_schedule(model, 17)
        report = run_search(model, schedule, 6)
        assert np.all(report.divergence >= report.pair_lower_bound - 1e-9)


def test_one_step_recursion_inequality():
    # D_{k+1} <= (sqrt(D_k) + sqrt(displacement of the control state))^2
    for model in (quantum_model(4), synthetic_model(4, 4), classical_model(6)):
        schedule = random_schedule(model, 23)
        report = run_search(model, schedule, 7)
        _, free_states = trajectory_history(model, schedule, 7)
        for k in range(7):
            moved = oracle_displacement(model, free_states[k])
            ceiling = (math.sqrt(report.divergence[k]) + math.sqrt(moved)) ** 2
            assert report.divergence[k + 1] <= ceiling + 1e-9


def test_first_crossing_and_first_peak():
    _, report = grover_run(16, 8)
    assert report.first_crossing() == 2
    assert report.first_peak() == 3
    flat = run_search(classical_model(8), reflection_schedule(classical_model(8)), 5)
    assert flat.first_crossing() is None
    assert flat.first_peak() == 5  # flat series degenerates to the last index


def test_sweep_json_names_the_success_criterion():
    import json

    payload = json.loads(sweep_to_json(scaling_sweep("quantum", [4], "grover")))
    assert payload["mode"] == "per-item"
    assert payload["threshold"] == 0.5


# ---------------------------------------------------------------------------
# Bound checks
# ---------------------------------------------------------------------------

def test_upper_bound_check_on_grover_runs():
    for n in (4, 8, 16):
        _, report = grover_run(n, default_k_max(n))
        check = check_upper_bound(report)
        assert check.holds, check


def test_upper_bound_check_flags_violations():
    _, report = grover_run(4, 2)
    report.divergence[2] = report.upper_bound[2] + 1.0
    check = check_upper_bound(report)
    assert not check.holds and check.worst_k == 2


def test_analytic_crossing_floor_frozen_values():
    assert analytic_crossing_floor(4) == pytest.approx(0.0, abs=1e-12)
    assert analytic_crossing_floor(16) == pytest.approx(0.8081641154691505, abs=1e-9)
    assert analytic_crossing_floor(1024) == pytest.approx(157.30464623102907, abs=1e-9)


def test_lower_bound_check_at_crossing():
    _, report = grover_run(16, 8)
    check = check_lower_bound(report)
    assert check.crossed and check.crossing_k == 2
    assert check.measured == pytest.approx(float(report.divergence[2]))
    assert check.holds


def test_lower_bound_check_is_vacuous_without_crossing():
    model = classical_model(8)
    report = run_search(model, reflection_schedule(model), 4)
    check = check_lower_bound(report)
    assert not check.crossed and check.holds and check.crossing_k is None


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_quantum_sweep_counts_and_floor():
    result = scaling_sweep("quantum", [4, 16, 64], "grover")
    stars = [row.k_star for row in result.rows]
    peaks = [row.k_peak for row in result.rows]
    assert stars == [1, 2, 3]
    assert peaks == [1, 3, 6]
    for row in result.rows:
        assert row.floor == pytest.approx(math.sqrt(0.17 * row.n_slits / 8.0))
        assert not row.saturated
    assert result.exponent("crossing") is not None


def test_classical_sweep_saturates():
    result = scaling_sweep("classical", [4, 8], "reflect")
    assert all(row.saturated for row in result.rows)
    assert result.exponent("crossing") is None


def test_sweep_exponent_needs_two_distinct_n():
    # rows of one N give a single x value, through which no line is fitted
    result = scaling_sweep("quantum", [64, 64], "grover")
    assert [row.k_star for row in result.rows] == [3, 3]
    assert result.exponent("crossing") is None
    assert result.exponent("peak") is None


def test_sweep_exponent_rejects_an_unknown_statistic():
    result = scaling_sweep("quantum", [4, 16, 64], "grover")
    for statistic in ("peaks", "k_star", ""):
        with pytest.raises(ValueError, match="expected 'crossing' or 'peak'"):
            result.exponent(statistic)


def test_synthetic_sweep_records_without_asserting_success():
    result = scaling_sweep("synthetic", [4, 6], "reflect", order=3)
    assert len(result.rows) == 2
    assert all(row.order == 3 for row in result.rows)


def test_sweep_validation():
    with pytest.raises(ValueError):
        scaling_sweep("synthetic", [4], "reflect")  # order missing
    with pytest.raises(ValueError):
        scaling_sweep("thermal", [4])


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def test_report_csv_is_deterministic_and_pinned():
    _, report = grover_run(4, 2)
    config = {"command": "search", "n": 4}
    first, second = io.StringIO(), io.StringIO()
    write_report_csv(report, first, config=config)
    write_report_csv(report, second, config=config)
    assert first.getvalue() == second.getvalue()
    lines = first.getvalue().splitlines()
    assert lines[0].startswith("# version: hoisearch ")
    assert lines[1].startswith("# config: ")
    assert lines[2] == ",".join(REPORT_CSV_COLUMNS)
    assert lines[3].startswith("quantum,4,2,grover,,0,0.0,0.0,")


def test_report_json_round_trips():
    import json

    _, report = grover_run(4, 1)
    payload = json.loads(reports_to_json(report, config={"n": 4}))
    assert payload["version"]
    assert payload["reports"][0]["model"]["kind"] == "quantum"
    assert payload["reports"][0]["rows"][1]["D_k"] == pytest.approx(6.0)


def test_sweep_serialisation():
    import json

    result = scaling_sweep("quantum", [4, 16], "grover")
    buf = io.StringIO()
    write_sweep_csv(result, buf, config={"command": "sweep"})
    text = buf.getvalue()
    assert "# exponent_crossing: " in text
    assert "k_star" in text
    payload = json.loads(sweep_to_json(result))
    assert len(payload["rows"]) == 2
