"""One benchmark process: set up, run jobs in a closed loop, check outputs.

Started by ``run.py`` as a fresh interpreter per run, so that set-up time and
peak memory are per-run values. The BLAS thread count is pinned to 1 before
numpy is first imported: on a 2-vCPU machine OpenBLAS's default of 2 threads
makes small matmuls bimodal from one run to the next, which measures the
scheduler rather than the program.

    python3 perfbench/worker.py --root . --workload W --seed S --seconds T \
        --mode untraced|traced|probe

It prints one JSON object as its last line of standard output.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout root holding src/hoisearch")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["untraced", "traced", "probe"], required=True)
    return p.parse_args(argv)


def _import_program(root: Path):
    """Import hoisearch from the checkout's own sources, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hoisearch
    import hoisearch.cli

    if not Path(hoisearch.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hoisearch imported from {hoisearch.__file__}, not from {src}")
    return hoisearch


class JobRecord:
    __slots__ = ("job", "out", "seconds", "end", "error", "stdout_tail")

    def __init__(self, job, out):
        self.job, self.out = job, out
        self.seconds = 0.0
        self.end = 0.0  # since the start of the loop
        self.error: str | None = None
        self.stdout_tail = ""


def run_jobs(cli, jobs, workdir: Path, *, seconds: float | None = None,
             count: int | None = None, first: int = 0,
             tag: str = "") -> list[JobRecord]:
    """Closed loop with one client: each job starts when the previous returns.

    Runs jobs from index ``first`` until ``seconds`` have passed or ``count``
    jobs are done. Checks happen afterwards, outside the timed loop.
    """
    records: list[JobRecord] = []
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")
    i = first
    while (count is None or i < first + count) and time.perf_counter() < deadline:
        job = jobs[i]
        out = workdir / f"{tag}{i}.{job.fmt}" if job.fmt else None
        argv = list(job.argv) + (["--out", str(out)] if out else [])
        rec = JobRecord(job, out)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            if code != 0:
                rec.error = f"exit code {code}"
        except SystemExit as exc:  # argparse usage errors
            rec.error = f"exit code {exc.code}"
        except Exception:  # a failing job is counted, the loop goes on
            rec.error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        rec.seconds, rec.end = t1 - t0, t1 - start
        lines = buf.getvalue().splitlines()
        rec.stdout_tail = lines[-1] if lines else ""
        records.append(rec)
        i += 1
    return records


def check_records(records: list[JobRecord]) -> list[str]:
    """Check every job's output; return one message per failed job."""
    from checks import CheckFailed, check_job

    failures = []
    for rec in records:
        if rec.error is None:
            try:
                text = rec.out.read_text(encoding="utf-8") if rec.out else ""
                check_job(rec.job.argv, rec.job.fmt, text, rec.stdout_tail)
            except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                rec.error = f"check failed: {exc}"
        if rec.error is not None:
            failures.append(f"{' '.join(rec.job.argv)}: {rec.error}")
    return failures


def environment(seed: int) -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _blas_threads():
    """The thread count the loaded OpenBLAS reports, or the pinned env value."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"env {os.environ['OPENBLAS_NUM_THREADS']}"


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(args.root).resolve()
    hoisearch = _import_program(root)
    from workloads import JobList

    jobs = JobList(args.workload, args.seed)
    setup_done = time.monotonic()
    if args.mode == "probe":
        print(json.dumps({"setup_done": setup_done}))
        return 0

    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = {"setup_done": setup_done, "env": environment(args.seed)}
        if args.mode == "untraced":
            records = run_jobs(hoisearch.cli, jobs, workdir, seconds=args.seconds)
            result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["job_s"] = [r.seconds for r in records]
            result["job_end_s"] = [r.end for r in records]
        else:
            from tracing import Tracer

            # Each job runs twice, traced and then untraced, so that a slow
            # spell of the machine falls on both sides of the overhead; the
            # traced side goes first and takes the first-use costs.
            tracer = Tracer()
            traced, plain = [], []
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                tracer.install()
                try:
                    traced += run_jobs(hoisearch.cli, jobs, workdir, count=1,
                                       first=len(traced), tag="t")
                finally:
                    tracer.restore()
                plain += run_jobs(hoisearch.cli, jobs, workdir, count=1,
                                  first=len(plain), tag="u")
            result["layers"] = tracer.metrics(sum(r.seconds for r in traced),
                                              sum(r.seconds for r in plain))
            result["hook_errors"] = tracer.hook_errors
            records = traced + plain
        result["failures"] = check_records(records)
        result["attempted"] = len(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
