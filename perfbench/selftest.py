"""Self-test of the output checker: doctored outputs must count as failed.

Runs a few small real jobs through the benchmark's own job loop and checker,
requires every untouched output to pass, then doctors each output in one way
(a row with ``D_k > 4 h k^2``, a wrong Grover success, a missing row, a
divergence under the crossing floor, a wrong sweep peak, a failed verify
line) and requires the checker to count each as failed.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
from pathlib import Path

import worker  # pins the BLAS threads before numpy is imported
from checks import crossing_floor
from workloads import Job


def _edit_csv(text: str, edit) -> str:
    comments = [line for line in text.splitlines(keepends=True) if line.startswith("#")]
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    fields = list(rows[0])
    rows = edit(rows)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return "".join(comments) + out.getvalue()


def _edit_json_rows(text: str, edit) -> str:
    payload = json.loads(text)
    rows = payload["reports"][0]["rows"] if "reports" in payload else payload["rows"]
    rows[:] = edit(rows)
    return json.dumps(payload)


def _set(rows, k, key, value):
    rows[k][key] = value
    return rows


def _above_ceiling(rows):
    k = 2
    return _set(rows, k, "D_k", repr(float(rows[k]["upper_4hk2"]) + 1e-3))


def _above_ceiling_json(rows):
    rows[2]["D_k"] = rows[2]["upper_4hk2"] + 1e-3
    return rows


def _wrong_success(rows):
    return _set(rows, 1, "success_min", repr(float(rows[1]["success_min"]) + 1e-6))


def _missing_row(rows):
    return rows[:-1]


def _under_floor(rows):
    k = next(i for i, r in enumerate(rows) if float(r["success_min"]) >= 0.5)
    return _set(rows, k, "D_k", repr(crossing_floor(int(rows[k]["N"])) - 1e-3))


def _wrong_peak(rows):
    return _set(rows, 0, "k_peak", str(int(rows[0]["k_peak"]) + 1))


CASES = (
    # (job, doctor of its --out text, what the doctor breaks)
    (Job(("search", "--model", "quantum", "--strategy", "grover", "--n", "4"), "csv"),
     lambda t: _edit_csv(t, _wrong_success), "dense grover success"),
    (Job(("search", "--model", "quantum", "--strategy", "grover", "--n", "40",
          "--format", "json"), "json"),
     lambda t: _edit_json_rows(t, _above_ceiling_json), "D_k above 4hk^2 (json)"),
    (Job(("bound", "--model", "classical", "--strategy", "reflect", "--n", "8"), "csv"),
     lambda t: _edit_csv(t, _above_ceiling), "D_k above 4hk^2 (csv)"),
    (Job(("bound", "--model", "quantum", "--n", "3", "--strategy", "random", "--seeds", "5,",
          "--k-max", "3"), "csv"),
     lambda t: _edit_csv(t, _missing_row), "k_max + 1 rows"),
    (Job(("search", "--model", "quantum", "--strategy", "grover", "--n", "8"), "csv"),
     lambda t: _edit_csv(t, _under_floor), "crossing floor"),
    (Job(("sweep", "--model", "quantum", "--strategy", "grover", "--n", "36,72"), "csv"),
     lambda t: _edit_csv(t, _wrong_peak), "sweep peak"),
    (Job(("verify", "--n-max", "3"), None), None, "verify line"),
)


def main(root: Path) -> None:
    hoisearch = worker._import_program(root)
    workdir = root / ".perfbench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = [job for job, _doctor, _what in CASES]
        records = worker.run_jobs(hoisearch.cli, jobs, workdir, count=len(jobs))
        clean = worker.check_records(records)
        if clean:
            raise AssertionError("undoctored outputs failed: " + "; ".join(clean))
        for rec, (_job, doctor, what) in zip(records, CASES):
            if doctor is None:
                rec.stdout_tail = "verify: CHECKS FAILED"
            else:
                rec.out.write_text(doctor(rec.out.read_text(encoding="utf-8")), encoding="utf-8")
            if worker.check_records([rec]) == []:
                raise AssertionError(f"doctored output passed the checker: {what}")
            print(f"self-test: doctored {what}: counted as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(f"self-test: ok ({len(CASES)} clean outputs passed, {len(CASES)} doctored failed)")


if __name__ == "__main__":
    main(Path(__file__).resolve().parent.parent)
