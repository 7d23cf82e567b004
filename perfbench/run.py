"""The hoisearch benchmark: seeded CLI job workloads, checked and timed.

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Each run starts fresh interpreters for its
set-up probes and for the workload itself (``worker.py``); the workload runs
``hoisearch.cli.main(argv)`` in process, one job after the other, and every
output is checked afterwards against references that do not depend on the
implementation (``checks.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a separate traced run (``tracing.py``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and the run's environment. The exit code is 1 when any
output check fails, and 2 when the checkout holds no hoisearch sources.

``--smoke`` runs the checker's self-test on doctored outputs and a tiny
workload in both trace modes, and checks that every metric BENCHMARK.json
names is emitted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric_unit
from workloads import block_size

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("grover-amp", "small-mixed")

# Each set-up sample is a fresh interpreter; the median of several keeps one
# slow start (cold file cache, a busy neighbour) out of the figure.
SETUP_PROBES = 6
# Every run must end within this many seconds.
RUN_LIMIT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Start one worker interpreter; return its result, with its start time."""
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["started"] = started
    return result


def _end_to_end(result: dict, block: int,
                setup_samples: list[float]) -> dict[str, tuple[float, str]]:
    """Timings over the whole blocks that finished before the deadline.

    Every block holds the same mix of job costs, so a partial last block
    would make jobs per second depend on where the deadline fell in it.
    Jobs per second is taken over all whole blocks together: the machine's
    speed drifts in spells of tens of seconds, and the mean over the whole
    run weighs each spell by its length, where a median over blocks would
    jump to whichever spell holds most of them.
    """
    ends = result["job_end_s"]
    timed = (len(ends) // block) * block or len(ends)
    job_s = result["job_s"][:timed]
    jobs_per_s = timed / ends[timed - 1]
    result["timed_jobs"] = len(job_s)
    failed = len(result["failures"])
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (jobs_per_s, "1/s"),
        "job_s.p50": (statistics.median(job_s), "s"),
        "job_s.p90": (statistics.quantiles(job_s, n=10)[-1] if len(job_s) > 1 else job_s[0], "s"),
        "ok_ratio": ((result["attempted"] - failed) / result["attempted"], "ratio"),
        "peak_rss_mb": (result["peak_rss_kib"] * 1024 / 1e6, "MB"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns the worker's result and the metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        result = _worker(workload, seed, seconds, "traced", deadline)
        metrics = {name: (value, metric_unit(name)) for name, value in result["layers"].items()}
        return result, metrics
    setup = []
    for _ in range(SETUP_PROBES):
        probe = _worker(workload, seed, seconds, "probe", deadline)
        setup.append(probe["setup_done"] - probe["started"])
    result = _worker(workload, seed, seconds, "untraced", deadline)
    setup.append(result["setup_done"] - result["started"])
    return result, _end_to_end(result, block_size(workload), setup)


def _report(result: dict, metrics: dict) -> dict:
    failures = result["failures"]
    print("env: " + json.dumps(result["env"], sort_keys=True))
    if "job_s" in result:
        timed = result["job_s"][:result["timed_jobs"]]
        p90 = metrics["job_s.p90"][0]
        print(f"jobs run: {len(result['job_s'])}, timed (whole blocks): {len(timed)}, "
              f"beyond p90: {sum(1 for t in timed if t > p90)}")
    if result.get("hook_errors"):
        print(f"trace counter hooks that failed: {result['hook_errors']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    for line in failures[:10]:
        print("FAILED " + line, file=sys.stderr)
    line = {
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line))
    return line


def smoke() -> int:
    """Checker self-test, then every declared metric from a tiny workload."""
    import selftest

    selftest.main(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, metrics = measure("smoke", 0, 1.0, trace)
        line = _report(result, metrics)
        declared = sorted((m["name"], m["unit"]) for m in spec[key])
        emitted = sorted((name, m["unit"]) for name, m in line["metrics"].items())
        if declared != emitted:
            problems.append(f"{key}: declared {declared}, emitted {emitted}")
        if not line["correct"]:
            problems.append(f"{key}: {line['failed']} of {line['attempted']} smoke jobs failed")
    for problem in problems:
        print("SMOKE FAILED " + problem, file=sys.stderr)
    print("smoke: " + ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="self-test and tiny run, then exit")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hoisearch" / "__init__.py").is_file():
        print(f"error: no hoisearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    result, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if _report(result, metrics)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
