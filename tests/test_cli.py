"""End-to-end CLI tests: exit codes, table output, file reproducibility."""

import json

import pytest

from hoisearch.cli import main


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
    code, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--corrupt")
    assert code == 1
    assert "FAIL" in out


def test_verify_single_cell(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--h", "3")
    assert code == 0
    assert "synthetic N=5 h=3" in out


def test_verify_rejects_order_above_slit_count(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "3", "--h", "4")
    assert code == 2
    assert "h exceeds N" in err


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
