"""End-to-end CLI tests: exit codes, table output, file reproducibility."""

import json
import time
import tracemalloc

import numpy as np
import pytest

import hoisearch.cli
import hoisearch.models
from hoisearch.cli import main
from hoisearch.models import (
    DEFAULT_TOL,
    SectorSpace,
    build_model,
    classical_model,
    quantum_model,
    synthetic_model,
)
from hoisearch.subsets import EnumerationLimitError, SlitSet

from reference import dense_completeness_defect, dense_orthogonality_defects, verify_oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_small_grid_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
    assert code == 0
    assert "all checks passed" in out
    assert "exact identities" in out
    assert "pairing counts" in out
    assert "quantum N=4 completeness" in out


def test_verify_reports_a_failing_model_check(capsys, monkeypatch):
    # a completeness defect past the tolerance fails every model cell's
    # completeness row, and only that row
    monkeypatch.setattr(hoisearch.cli, "coherence_completeness_defect", lambda model: 1e-3)
    for argv, n_cells in ((["--n-max", "3"], 6), (["--n", "5", "--h", "3"], 1)):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 1, argv
        failed = [line for line in out.splitlines() if "  FAIL  " in line]
        assert len(failed) == n_cells, argv
        for row in failed:
            assert " completeness " in row and row.endswith("  FAIL  defect 1.00e-03"), row
        assert out.endswith("verify: CHECKS FAILED\n")


def _wrong_oracle(case):
    """`sign_flip_oracle` with one fault, for one marked item or a batch:
    it also flips the marked singleton block, flips a multi-slit block
    without the marked slit, or flips nothing."""
    right = hoisearch.models.sign_flip_oracle

    def oracle(model, marked):
        diag = np.array(right(model, marked))
        space = model.space
        for row, x in zip(diag.reshape(-1, space.total_dim), np.ravel(marked)):
            if case == "singleton":
                row[space.owner == space.sectors.index(SlitSet((x,), model.n_slits))] = -1.0
            elif case == "unmarked":
                lacking = [b for b, s in enumerate(space.sectors) if len(s) > 1 and x not in s]
                if lacking:
                    row[space.owner == lacking[0]] *= -1.0
            else:
                row[:] = 1.0
        return diag

    return oracle


@pytest.mark.parametrize("case", ["singleton", "unmarked", "none"])
def test_verify_reports_a_wrong_oracle(capsys, monkeypatch, case):
    # the flip set is read from the sectors, not from the oracle under test
    oracle = _wrong_oracle(case)
    monkeypatch.setattr(hoisearch.models, "sign_flip_oracle", oracle)
    monkeypatch.setattr(hoisearch.cli, "sign_flip_oracle", oracle)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
    assert code == 1
    failed = [line.split("  ")[0] for line in out.splitlines() if "  FAIL  " in line]
    assert "quantum N=4 oracle axioms" in failed
    assert all(name.endswith(" oracle axioms") for name in failed), failed
    assert out.endswith("verify: CHECKS FAILED\n")


def test_verify_reports_a_coordinate_moved_to_the_next_block(capsys, monkeypatch):
    layout = SectorSpace.__dict__["owner"].func

    def moved(space):
        owner = layout(space).copy()
        if len(space.sectors) > 1:
            owner[space.dims_per_size[1] - 1] += 1  # block 0's last coordinate joins block 1
        return owner

    monkeypatch.setattr(SectorSpace, "owner", property(moved))
    code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
    assert code == 1
    rows = [line for line in out.splitlines() if " completeness " in line]
    assert len(rows) == 10
    assert rows[0].startswith("classical N=1 completeness") and "  pass  " in rows[0]
    for row in rows[1:]:
        assert row.endswith("  FAIL  defect 1.00e+00"), row
    # block 0, one coordinate wide, is gone: the layout opens on a run of
    # block 1, twice its width
    rows = [line for line in out.splitlines() if " orthogonality " in line]
    assert "  pass  0 block runs" in rows[0]
    for row in rows[1:]:
        assert row.endswith("  FAIL  1 block runs out of sector order"), row


def test_verify_reports_blocks_out_of_sector_order(capsys, monkeypatch):
    # reversed, every block keeps its width, so completeness, the oracle and
    # the detected order all pass; the layout that `basis_index` and
    # `uniform_state` read (singleton blocks first) does not hold
    layout = SectorSpace.__dict__["owner"].func
    monkeypatch.setattr(SectorSpace, "owner", property(lambda space: layout(space)[::-1].copy()))
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--h", "3")
    assert code == 1
    failed = [line for line in out.splitlines() if "  FAIL  " in line]
    assert [" ".join(line.split()) for line in failed] == [
        "synthetic N=5 h=3 orthogonality FAIL 25 block runs out of sector order"
    ]


def test_verify_reports_a_decomposition_that_never_closes(capsys, monkeypatch):
    # a numeric failure, not a usage error: the detected-order row fails and
    # every other row is still printed
    right = hoisearch.models.slit_projector
    monkeypatch.setattr(hoisearch.models, "slit_projector", lambda model, subset: 0.5 * right(model, subset))
    code, out, err = run_cli(capsys, "verify", "--n", "4", "--h", "2")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line.split("  ")[0] for line in lines[:-1]] == [
        "exact identities N=4 h=2",
        "synthetic N=4 h=2 completeness",
        "synthetic N=4 h=2 orthogonality",
        "synthetic N=4 h=2 detected order",
        "synthetic N=4 h=2 oracle axioms",
    ]
    failed = [line for line in lines if "  FAIL  " in line]
    assert failed == ["synthetic N=4 h=2 detected order  FAIL  detected none, built 2"]
    assert lines[-1] == "verify: CHECKS FAILED"


WIDE = synthetic_model(4, 3, {1: 2, 2: 3, 3: 1})


@pytest.mark.parametrize(
    "model",
    [classical_model(4), quantum_model(4), synthetic_model(4, 4), WIDE],
    ids=["classical", "quantum", "synthetic", "synthetic-wide"],
)
def test_verify_model_rows_equal_the_dense_references(model):
    rows = {name: detail for name, _, detail in hoisearch.cli._verify_model_cell(model, "m", DEFAULT_TOL)}
    completeness = hoisearch.models.coherence_completeness_defect(model)
    assert completeness == dense_completeness_defect(model) == 0.0
    assert rows["m completeness"] == f"defect {completeness:.2e}"
    assert hoisearch.models.coherence_layout_defect(model) == 0
    assert rows["m orthogonality"] == "0 block runs out of sector order"
    family = np.stack([hoisearch.models.coherence_projector(model, sec) for sec in model.space.sectors])
    pair, pyth = dense_orthogonality_defects(model, family)
    assert pair == 0.0 and pyth < DEFAULT_TOL
    checks = [
        verify_oracle(model, np.diag(hoisearch.models.sign_flip_oracle(model, x)), x)
        for x in (0, model.n_slits - 1)
    ]
    worst = max(
        max(c.fixed_sector_defect, c.commutation_defect, c.orthogonality_defect) for c in checks
    )
    assert rows["m oracle axioms"] == f"defect {worst:.2e}" == "defect 0.00e+00"


def test_verify_model_cell_builds_no_m_by_m_array():
    # synthetic(15, 4) has M = S = 1940: one (M, M) or (S, M) float array
    # alone is 30.1 MB
    model = build_model("synthetic", 15, 4)
    tracemalloc.start()
    try:
        rows = hoisearch.cli._verify_model_cell(model, "m", DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(ok for _, ok, _ in rows)
    assert peak < 16e6


def test_verify_has_no_corrupt_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n-max", "2", "--corrupt"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --corrupt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("--n", "4", "--n-max", "2"), ("--n-max", "2", "--n", "4")],
    ids=["n-first", "n-max-first"],
)
def test_verify_single_n_and_grid_are_exclusive(capsys, argv):
    # one cell or the grid: the second flag used to be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "not allowed with argument" in captured.err
    assert captured.out == ""


def test_verify_single_cell(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--h", "3")
    assert code == 0
    assert "synthetic N=5 h=3" in out


def test_verify_rejects_order_above_slit_count(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "3", "--h", "4")
    assert code == 2
    assert "h exceeds N" in err


@pytest.mark.parametrize(
    "argv", [("--n", "31", "--h", "1"), ("--n-max", "31")], ids=["n", "n-max"]
)
def test_verify_rejects_sizes_past_the_exact_guard(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert "must be <= 30" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n-max", "20"), "expansion terms, past the guard 4194304"),
        (("--n-max", "30"), "expansion terms, past the guard 4194304"),
        (("--n", "24", "--h", "4"), "M = 12950 coordinates, past the guard 2048"),
        (("--n", "30", "--h", "10"), "expansion terms, past the guard 4194304"),
        # one step past the largest admitted runs
        (("--n-max", "13"), "sum 12355898 expansion terms, past the guard 4194304"),
        (("--n", "16", "--h", "4"), "M = 2516 coordinates, past the guard 2048"),
        (("--n", "12", "--h", "12"), "M = 4095 coordinates, past the guard 2048"),
    ],
    ids=["n-max-20", "n-max-30", "n24-h4", "n30-h10", "n-max-13", "n16-h4", "n12-h12"],
)
def test_verify_past_the_work_guard_is_refused_at_once(capsys, argv, message):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert message in err
    assert out == ""


class _GuardPassed(Exception):
    pass


@pytest.mark.parametrize(
    "argv",
    [("--n-max", "12"), ("--n", "15", "--h", "4"), ("--n", "11", "--h", "11")],
    ids=["n-max-12", "n15-h4", "n11-h11"],
)
def test_largest_verify_runs_pass_the_work_guard(monkeypatch, argv):
    # the first exact cell comes right after the guard: stop there
    def stop(n, h):
        raise _GuardPassed

    monkeypatch.setattr(hoisearch.cli, "_verify_exact_cell", stop)
    with pytest.raises(_GuardPassed):
        main(["verify", *argv])


def test_enumeration_limit_is_a_usage_error(capsys, monkeypatch):
    def refuse(*_args):
        raise EnumerationLimitError("past the guard")

    monkeypatch.setattr(hoisearch.cli, "identity_decomposition", refuse)
    code, out, err = run_cli(capsys, "verify", "--n", "3")
    assert code == 2
    assert "past the guard" in err
    assert out == ""


def test_verify_reports_a_wrong_pairing_count(capsys, monkeypatch):
    closed = hoisearch.cli.signed_pairing_count_closed
    wrong_on = (SlitSet((0, 1), 2), SlitSet((0, 1), 2), SlitSet((0,), 2))

    def closed_wrong_once(left, right, meet):
        value = closed(left, right, meet)
        return value + 1 if (left, right, meet) == wrong_on else value

    monkeypatch.setattr(hoisearch.cli, "signed_pairing_count_closed", closed_wrong_once)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2")
    assert code == 1
    line = next(row for row in out.splitlines() if row.startswith("pairing counts"))
    assert "FAIL" in line
    assert line.endswith("25 triples checked, 1 mismatches")
    assert "CHECKS FAILED" in out


def test_verify_reports_a_wrong_expansion(capsys, monkeypatch):
    decomposition = hoisearch.cli.identity_decomposition

    def one_coefficient_off(order, n_slits):
        terms = decomposition(order, n_slits)
        first = next(iter(terms))
        terms[first] += 1
        return terms

    monkeypatch.setattr(hoisearch.cli, "identity_decomposition", one_coefficient_off)
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--h", "2")
    assert code == 1
    line = next(row for row in out.splitlines() if row.startswith("exact identities"))
    assert "FAIL" in line
    assert line.endswith("expansion mismatch")


def test_search_quantum_four_items(capsys, tmp_path):
    out_file = tmp_path / "run.csv"
    code, out, _ = run_cli(
        capsys, "search", "--model", "quantum", "--n", "4",
        "--strategy", "grover", "--out", str(out_file),
    )
    assert code == 0
    assert "k* (first per-item success >= 1/2): 1" in out
    text = out_file.read_text()
    assert text.startswith("# version: hoisearch")
    assert '"command": "search"' in text


def test_search_output_is_byte_identical_across_runs(capsys, tmp_path):
    args = ["search", "--model", "synthetic", "--n", "6", "--h", "3",
            "--strategy", "random", "--seeds", "0,"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_search_classical_saturates(capsys):
    code, out, _ = run_cli(capsys, "search", "--model", "classical", "--n", "8")
    assert code == 0
    assert "saturated" in out
    assert "0.125000" in out


def test_search_rejects_grover_on_classical(capsys):
    code, _, err = run_cli(
        capsys, "search", "--model", "classical", "--n", "4", "--strategy", "grover"
    )
    assert code == 2
    assert "quantum" in err


def test_grover_on_a_large_synthetic_model_is_refused_at_once(capsys, monkeypatch):
    # C(1000, 4) = 4e10 sectors: the strategy is refused before any is enumerated
    def refuse(*_args):
        raise AssertionError("a refused spec enumerated a sector")

    monkeypatch.setattr(hoisearch.models, "enumerate_sectors", refuse)
    code, out, err = run_cli(
        capsys, "search", "--model", "synthetic", "--n", "1000", "--h", "4",
        "--strategy", "grover",
    )
    assert code == 2
    assert err == "error: the grover strategy is defined on the quantum model only\n"
    assert out == ""


def test_search_json_output(capsys, tmp_path):
    out_file = tmp_path / "run.json"
    code, _, _ = run_cli(
        capsys, "search", "--model", "quantum", "--n", "4",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["config"]["command"] == "search"
    assert payload["reports"][0]["model"]["kind"] == "quantum"


def test_bound_quantum_grover(capsys, tmp_path):
    out_file = tmp_path / "bound.csv"
    code, out, _ = run_cli(
        capsys, "bound", "--model", "quantum", "--n", "16",
        "--strategy", "grover", "--out", str(out_file),
    )
    assert code == 0
    assert "all bounds hold" in out
    assert out_file.exists()


def test_bound_random_schedules_on_synthetic(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--model", "synthetic", "--n", "8", "--h", "3",
        "--strategy", "random", "--seeds", "3", "--k-max", "5",
    )
    assert code == 0
    assert out.count("seed=") == 3


def test_bound_single_run_for_deterministic_strategies(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--model", "quantum", "--n", "8",
        "--strategy", "grover", "--seeds", "5",
    )
    assert code == 0
    assert out.count("seed=") == 1


def test_sweep_table_and_exponent(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "quantum", "--n", "4,16,64",
        "--strategy", "grover", "--out", str(out_file),
    )
    assert code == 0
    assert "exponent (crossing):" in out
    assert "floor" in out
    text = out_file.read_text()
    assert "# exponent_crossing" in text
    assert "k_star" in text


def test_sweep_classical_all_saturated(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--model", "classical", "--n", "4,8")
    assert code == 0
    assert out.count("yes") == 2
    assert "n/a" in out


def test_sweep_synthetic_defaults_to_order_three(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--model", "synthetic", "--n", "4,5", "--out", str(out_file),
    )
    assert code == 0
    lines = [line for line in out_file.read_text().splitlines() if not line.startswith("#")]
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [(row["N"], row["h"]) for row in rows] == [("4", "3"), ("5", "3")]


@pytest.mark.parametrize("command", ["search", "bound", "sweep"])
@pytest.mark.parametrize(
    "model, n, h",
    [("quantum", "8", "3"), ("quantum", "64", "3"), ("classical", "4", "5")],
)
def test_wrong_order_is_a_usage_error_at_every_n(capsys, command, model, n, h):
    code, out, err = run_cli(capsys, command, "--model", model, "--n", n, "--h", h)
    assert code == 2
    fixed = {"classical": 1, "quantum": 2}[model]
    assert err == f"error: the {model} model has order {fixed}, got order {h}\n"
    assert out == ""


@pytest.mark.parametrize("command", ["search", "bound", "sweep"])
@pytest.mark.parametrize(
    "model, n, message",
    [
        ("quantum", "-3", "the quantum model needs at least 2 slits, got -3"),
        ("quantum", "0", "the quantum model needs at least 2 slits, got 0"),
        ("quantum", "1", "the quantum model needs at least 2 slits, got 1"),
        ("classical", "-1", "need at least one slit, got -1"),
        ("synthetic", "-1", "need at least one slit, got -1"),
        ("synthetic", "0", "need at least one slit, got 0"),
    ],
    ids=[
        "quantum-neg3", "quantum-0", "quantum-1", "classical-neg1",
        "synthetic-neg1", "synthetic-0",
    ],
)
def test_too_few_items_is_the_models_usage_error(capsys, command, model, n, message):
    code, out, err = run_cli(capsys, command, "--model", model, "--n", n)
    assert code == 2
    assert message in err
    assert out == ""


def test_dense_run_past_the_size_guard_is_refused_at_once(capsys):
    # synthetic(100000, 3) has 1.7e14 sectors: the guard counts them with
    # math.comb instead of enumerating them
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, "search", "--model", "synthetic", "--h", "3", "--n", "100000",
        "--strategy", "random",
    )
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "past the guard" in err
    assert out == ""


def test_report_past_the_size_guard_is_a_usage_error(capsys):
    # 10^11 + 1 entries per report field: refused before numpy is asked for
    # 800 GB, with one error line and no traceback
    code, out, err = run_cli(
        capsys, "search", "--model", "quantum", "--n", "64", "--k-max", "100000000000"
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: a report over k = 0..100000000000 with 1 success entries per k "
        "needs 100000000001 entries, past the guard of 2097152\n"
    )


def test_numeric_failure_is_a_failed_check_not_a_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--model", "quantum", "--n", "4",
        "--strategy", "random", "--seeds", "1,", "--tol", "1e-20",
    )
    assert code == 1
    assert "step 1 is not reversible" in err


@pytest.mark.parametrize("command", ["verify", "search", "bound", "sweep"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_tol_must_be_a_finite_positive_number(capsys, command, tol):
    run = [] if command == "verify" else ["--model", "quantum", "--n", "8", "--strategy", "random"]
    with pytest.raises(SystemExit) as excinfo:
        main([command, *run, "--tol", tol])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "argument --tol: must be a finite number > 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["search", "bound", "sweep"])
@pytest.mark.parametrize("seeds", ["", ","], ids=["empty", "comma"])
def test_empty_seed_list_is_a_usage_error(capsys, command, seeds):
    code, out, err = run_cli(
        capsys, command, "--model", "quantum", "--n", "8", "--strategy", "random",
        "--seeds", seeds,
    )
    assert code == 2
    assert "--seeds needs at least one seed" in err
    assert out == ""


@pytest.mark.parametrize("command", ["search", "sweep"])
@pytest.mark.parametrize("seeds", ["5", "0,1", "2,3,"], ids=["count", "list", "list-comma"])
def test_search_and_sweep_refuse_more_than_one_seed(capsys, command, seeds):
    code, out, err = run_cli(
        capsys, command, "--model", "quantum", "--n", "8", "--strategy", "random",
        "--seeds", seeds,
    )
    assert code == 2
    assert f"`{command}` runs a single seed, got --seeds {seeds} = " in err
    assert out == ""


@pytest.mark.parametrize("seeds, seed", [("1", 0), ("0,", 0), ("3,", 3)])
def test_search_runs_the_one_seed_it_is_given(capsys, tmp_path, seeds, seed):
    out_file = tmp_path / "run.csv"
    code, _, _ = run_cli(
        capsys, "search", "--model", "quantum", "--n", "4", "--strategy", "random",
        "--seeds", seeds, "--k-max", "2", "--out", str(out_file),
    )
    assert code == 0
    lines = [line for line in out_file.read_text().splitlines() if not line.startswith("#")]
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert {row["seed"] for row in rows} == {str(seed)}


@pytest.mark.parametrize("argv", [(), ("--n-max", "4")], ids=["default-grid", "n-max"])
def test_verify_order_without_a_single_n_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv, "--h", "3")
    assert code == 2
    assert "--h sets the order of the single --n cell" in err
    assert out == ""


def test_usage_error_on_bad_n_list(capsys):
    code, _, err = run_cli(capsys, "sweep", "--model", "quantum", "--n", "4,x")
    assert code == 2
    assert "integer list" in err


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["search"])  # --n is required
    assert excinfo.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
