"""End-to-end CLI tests: exit codes, table output, file reproducibility."""

import json

import pytest

import hoisearch.cli
from hoisearch.cli import main
from hoisearch.subsets import EnumerationLimitError, SlitSet


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


def test_verify_corrupt_hook_fails(capsys):
    # the leak breaks every cell's completeness and orthogonality rows
    for argv, n_cells in ((["--n-max", "3"], 6), (["--n", "5", "--h", "3"], 1)):
        code, out, _ = run_cli(capsys, "verify", *argv, "--corrupt")
        assert code == 1, argv
        rows = [
            line for line in out.splitlines()
            if " completeness " in line or " orthogonality " in line
        ]
        assert len(rows) == 2 * n_cells, argv
        for row in rows:
            assert "  FAIL  " in row, row


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
            "--strategy", "random", "--seeds", "3"]
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
    assert f"the {model} model has order" in err
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


def test_numeric_failure_is_a_failed_check_not_a_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--model", "quantum", "--n", "4",
        "--strategy", "random", "--seeds", "1,", "--tol", "1e-20",
    )
    assert code == 1
    assert "step 1 is not reversible" in err


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
