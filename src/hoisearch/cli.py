"""Command-line front end: verify / search / bound / sweep.

`search`, `bound` and `sweep` get every report from `search.run_experiment`.
Every run is reproducible from its flags alone: all randomness is seeded,
output files embed the parsed configuration and the library version, and
identical invocations produce byte-identical files. Exit codes: 0 success,
1 a checked bound or identity failed, or a numeric check failed during a run
(a schedule step that does not preserve the trajectories' inner products),
2 usage error, including a size past the exact-enumeration guards, the size
guard of dense runs and of reports (`search.MAX_DENSE_ENTRIES`), verify's work
guard (`MAX_VERIFY_TERMS`, `MAX_VERIFY_DIM`) and a seed set for search/sweep.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from ._version import __version__
from .models import (
    DEFAULT_TOL,
    Model,
    NumericError,
    build_model,
    interference_order,
    sign_flip_oracle,
    coherence_completeness_defect,
    coherence_layout_defect,
)
from .search import (
    check_lower_bound,
    check_upper_bound,
    reports_to_json,
    run_experiment,
    scaling_sweep,
    sweep_to_json,
    write_report_csv,
    write_sweep_csv,
)
from .subsets import (
    MAX_UNIVERSE,
    EnumerationLimitError,
    SlitSet,
    coherence_expansion,
    enumerate_sectors,
    identity_decomposition,
    signed_pairing_count_closed,
    signed_pairing_counts,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(Exception):
    """Raised for semantically invalid flag combinations."""


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from exc


def _parse_seeds(text: str) -> list[int]:
    values = _parse_int_list(text)
    if not values:
        raise UsageError(f"--seeds needs at least one seed, got {text!r}")
    if len(values) == 1 and "," not in text:
        count = values[0]
        if count < 1:
            raise UsageError(f"seed count must be >= 1, got {count}")
        return list(range(count))
    return values


def tolerance(text: str) -> float:
    """A ``--tol`` value: a finite number > 0, else an argparse usage error."""
    value = float(text)  # argparse reports a ValueError as "invalid tolerance value"
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _order(args: argparse.Namespace) -> int | None:
    """`--h`, with the documented default of 3 for synthetic models."""
    if args.h is None and args.model == "synthetic":
        return 3
    return args.h


def _single_n(values: list[int], command: str) -> int:
    if len(values) != 1:
        raise UsageError(f"`{command}` takes a single --n value, got {values}")
    return values[0]


def _single_seed(text: str, command: str) -> int:
    seeds = _parse_seeds(text)
    if len(seeds) != 1:
        raise UsageError(f"`{command}` runs a single seed, got --seeds {text} = {seeds}; use `bound`")
    return seeds[0]


def _config_dict(args: argparse.Namespace) -> dict:
    # the destination path is not part of the experiment: identical runs
    # written to different files must stay byte-identical
    skip = {"func", "out"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = value
    return out


def _write_output(args: argparse.Namespace, writer_csv, to_json) -> None:
    if not args.out:
        return
    config = _config_dict(args)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        if args.format == "csv":
            writer_csv(fh, config)
        else:
            fh.write(to_json(config) + "\n")
    print(f"wrote {args.format} to {args.out}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# Work guard of `verify`, counted from the flags before anything is
# enumerated (Python 3.11.7, numpy 2.4.6, one BLAS thread, x86-64). An exact
# (N, h) cell sums the expansions of the C(N, t) sectors of each size
# t <= h, 2^t terms apiece, at about 5 us a term: the cells of `--n-max 12`
# (3.85e6 terms) took 16-22 s and those of `--n-max 13` (1.24e7) 62 s. A
# model cell of M coordinates checks the oracle diagonals and the block
# layout in O(M + S N) and builds no (M, M) or (S, M) array; its time goes
# to `interference_order`, one slit projector per subset of size <= h. Run
# as processes, `--n 15 --h 4` (M = 1940) took 0.29-0.52 s at 31 MiB
# ru_maxrss and `--n 11 --h 11` (M = 2047, the largest high-order cell
# admitted) 0.88-0.96 s at 32 MiB, of which 29 MiB is the interpreter,
# numpy and the package on import (`--n-max 6` peaks at 30 MiB).
MAX_VERIFY_TERMS = 2**22
MAX_VERIFY_DIM = 2**11


def _check_verify_work(cells: list[tuple[int, int]], models: list[Model]) -> None:
    """Refuse a run whose exact (N, h) cells or largest model cell pass the
    work guard. The models are built but none has enumerated a sector."""
    terms = sum(math.comb(n, t) << t for n, h in cells for t in range(1, h + 1))
    if terms > MAX_VERIFY_TERMS:
        raise UsageError(f"the exact cells sum {terms} expansion terms, past the guard {MAX_VERIFY_TERMS}")
    dim = max(model.space.total_dim for model in models)
    if dim > MAX_VERIFY_DIM:
        raise UsageError(f"the largest model cell has M = {dim} coordinates, past the guard {MAX_VERIFY_DIM}")


def _verify_exact_cell(n: int, h: int) -> tuple[bool, str]:
    total: dict[SlitSet, int] = {}
    for sector in enumerate_sectors(n, h):
        for sub, coeff in coherence_expansion(sector).items():
            total[sub] = total.get(sub, 0) + coeff
    # at h = n every proper subset cancels, so only the nonzero terms compare
    ok = {sub: c for sub, c in total.items() if c} == identity_decomposition(h, n)
    return ok, "formal expansion == identity decomposition" if ok else "expansion mismatch"


def _verify_pairing_cell(universe: int) -> tuple[bool, str]:
    mismatches = 0
    checked = 0
    subsets = list(SlitSet(tuple(range(universe)), universe).subsets(include_empty=True))
    for left in subsets:
        for right in subsets:
            counts = signed_pairing_counts(left, right)
            common = left.mask & right.mask
            # every meet is one of the prebuilt subsets: those inside left & right
            for meet in subsets:
                if meet.mask & ~common:
                    continue
                checked += 1
                if counts[meet.mask] != signed_pairing_count_closed(left, right, meet):
                    mismatches += 1
    return mismatches == 0, f"{checked} triples checked, {mismatches} mismatches"


def _check_universe_flag(flag: str, n: int) -> None:
    # the exact identities stop at MAX_UNIVERSE slits: refuse before any work
    if n > MAX_UNIVERSE:
        raise UsageError(
            f"{flag} must be <= {MAX_UNIVERSE} (the exact-arithmetic guard), got {n}"
        )


def _verify_model_cell(model: Model, label: str, tol: float) -> list[tuple[str, bool, str]]:
    rows = []
    defect = coherence_completeness_defect(model)
    rows.append((f"{label} completeness", defect < tol, f"defect {defect:.2e}"))
    misplaced = coherence_layout_defect(model)
    rows.append((f"{label} orthogonality", misplaced == 0, f"{misplaced} block runs out of sector order"))
    try:
        detected = interference_order(model, tol=tol)
    except NumericError:
        detected = None  # no order closes the decomposition: the row fails
    rows.append(
        (
            f"{label} detected order",
            detected == model.order,
            f"detected {'none' if detected is None else detected}, built {model.order}",
        )
    )
    # the oracle flips exactly the blocks whose sector holds the marked slit
    # and another slit, a set read from the sectors themselves
    items = (0, model.n_slits - 1)
    sectors = model.space.sectors
    expected = np.array([[-1.0 if x in s and len(s) > 1 else 1.0 for s in sectors] for x in items])
    flips = sign_flip_oracle(model, items)  # the (2, M) diagonals that run_search applies
    defect = float(np.max(np.abs(flips - expected[:, model.space.owner])))
    rows.append((f"{label} oracle axioms", defect < tol, f"defect {defect:.2e}"))
    return rows


def cmd_verify(args: argparse.Namespace) -> int:
    tol = args.tol
    rows: list[tuple[str, bool, str]] = []
    if args.n is not None:
        n = _single_n(_parse_int_list(args.n), "verify --n")
        _check_universe_flag("--n", n)
        h = args.h if args.h is not None else min(n, 3)
        models = [build_model("synthetic", n, h)]
        _check_verify_work([(n, h)], models)
        rows.append(("exact identities N=%d h=%d" % (n, h),) + _verify_exact_cell(n, h))
    else:
        if args.h is not None:
            raise UsageError("--h sets the order of the single --n cell; the --n-max grid takes none")
        n_max = args.n_max
        if n_max < 1:
            raise UsageError(f"--n-max must be >= 1, got {n_max}")
        _check_universe_flag("--n-max", n_max)
        cells = [(n, h) for n in range(1, n_max + 1) for h in range(1, n + 1)]
        models = [
            build_model(kind, n, h)
            for n in range(1, n_max + 1)
            for kind, h in (("classical", 1), ("quantum", 2), ("synthetic", 3), ("synthetic", 4))
            if h <= n
        ]
        _check_verify_work(cells, models)
        exact_ok = True
        for n, h in cells:
            ok, msg = _verify_exact_cell(n, h)
            if not ok:
                exact_ok = False
                rows.append((f"exact identities N={n} h={h}", ok, msg))
        rows.append(
            (
                "exact identities N<=%d" % n_max,
                exact_ok,
                "all (N,h) formal expansions match" if exact_ok else "mismatches above",
            )
        )
        pair_universe = min(n_max, 5)
        ok, msg = _verify_pairing_cell(pair_universe)
        rows.append((f"pairing counts universe<={pair_universe}", ok, msg))
    for model in models:
        label = f"{model.kind} N={model.n_slits}"
        if model.kind == "synthetic":
            label += f" h={model.order}"
        rows.extend(_verify_model_cell(model, label, tol))

    width = max(len(r[0]) for r in rows)
    all_ok = True
    for name, ok, detail in rows:
        status = "pass" if ok else "FAIL"
        all_ok = all_ok and ok
        print(f"{name:<{width}}  {status}  {detail}")
    print(f"verify: {'all checks passed' if all_ok else 'CHECKS FAILED'}")
    return 0 if all_ok else CHECK_FAILED


# ---------------------------------------------------------------------------
# search / bound
# ---------------------------------------------------------------------------

def cmd_search(args: argparse.Namespace) -> int:
    n = _single_n(_parse_int_list(args.n), "search")
    seed = _single_seed(args.seeds, "search")
    report = run_experiment(
        args.model, n, args.strategy,
        order=_order(args), seed=seed, k_max=args.k_max, tol=args.tol,
    )
    k_max = int(report.k[-1])

    print(f"model={args.model} N={n} h={report.order} strategy={report.strategy} k_max={k_max}")
    print(f"{'k':>4}  {'success_mean':>12}  {'success_min':>12}  {'D_k':>12}  {'4hk^2':>10}")
    mean, low = report.success_mean, report.success_min
    for i, k in enumerate(report.k):
        print(
            f"{int(k):>4}  {mean[i]:>12.6f}  {low[i]:>12.6f}  "
            f"{report.divergence[i]:>12.6f}  {report.upper_bound[i]:>10.1f}"
        )
    crossing = report.first_crossing()
    if crossing is None:
        print(f"k*: saturated (success never reached 1/2 within k_max={k_max})")
    else:
        print(f"k* (first per-item success >= 1/2): {crossing}")
    _write_output(
        args,
        lambda fh, cfg: write_report_csv(report, fh, config=cfg),
        lambda cfg: reports_to_json(report, config=cfg),
    )
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    n = _single_n(_parse_int_list(args.n), "bound")
    seeds = _parse_seeds(args.seeds)
    if args.strategy != "random":  # no family defaults to a random schedule
        seeds = seeds[:1]

    reports = []
    all_ok = True
    for seed in seeds:
        report = run_experiment(
            args.model, n, args.strategy,
            order=_order(args), seed=seed, k_max=args.k_max, tol=args.tol,
        )
        reports.append(report)
        upper = check_upper_bound(report)
        lower = check_lower_bound(report)
        ok = upper.holds and lower.holds
        all_ok = all_ok and ok
        crossing = f"k={lower.crossing_k}" if lower.crossed else "no crossing"
        print(
            f"seed={seed}: upper {'ok' if upper.holds else 'VIOLATED'} "
            f"(max D_k - 4hk^2 = {upper.max_excess:.3e}); "
            f"lower {'ok' if lower.holds else 'VIOLATED'} "
            f"({crossing}, floor {lower.floor:.4f})"
        )
    print(f"bound: {'all bounds hold' if all_ok else 'BOUND VIOLATED'}")
    _write_output(
        args,
        lambda fh, cfg: write_report_csv(reports, fh, config=cfg),
        lambda cfg: reports_to_json(reports, config=cfg),
    )
    return 0 if all_ok else CHECK_FAILED


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args: argparse.Namespace) -> int:
    ns = _parse_int_list(args.n)
    if not ns:
        raise UsageError("sweep needs at least one N in --n")
    seed = _single_seed(args.seeds, "sweep")
    result = scaling_sweep(
        args.model,
        ns,
        args.strategy,
        order=_order(args),
        seed=seed,
        k_max=args.k_max,
        tol=args.tol,
    )
    print(
        f"{'N':>6}  {'k*':>6}  {'k_peak':>6}  {'success@k*':>11}  "
        f"{'floor':>8}  saturated"
    )
    for row in result.rows:
        k_star = "-" if row.k_star is None else str(row.k_star)
        succ = "-" if row.success_at_k_star is None else f"{row.success_at_k_star:.4f}"
        print(
            f"{row.n_slits:>6}  {k_star:>6}  {row.k_peak:>6}  {succ:>11}  "
            f"{row.floor:>8.3f}  {'yes' if row.saturated else 'no'}"
        )
    for stat in ("crossing", "peak"):
        exp = result.exponent(stat)
        print(f"exponent ({stat}): {'n/a' if exp is None else f'{exp:.4f}'}")
    _write_output(
        args,
        lambda fh, cfg: write_sweep_csv(result, fh, config=cfg),
        lambda cfg: sweep_to_json(result, config=cfg),
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        choices=["classical", "quantum", "synthetic"],
        default="quantum",
        help="model family",
    )
    parser.add_argument(
        "--n", required=True, help="number of list items / slits (comma list for sweep)"
    )
    parser.add_argument(
        "--h",
        type=int,
        default=None,
        help="interference order for synthetic models (default 3)",
    )
    parser.add_argument(
        "--strategy",
        choices=["grover", "reflect", "random"],
        default=None,
        help="schedule strategy (default: grover for quantum, reflect otherwise)",
    )
    parser.add_argument(
        "--seeds",
        default="1",
        help="seed count (e.g. 20 -> seeds 0..19) or comma list; one seed for search and sweep",
    )
    parser.add_argument("--k-max", type=int, default=None, help="step budget (default ceil(4 sqrt N))")
    parser.add_argument(
        "--tol",
        type=tolerance,
        default=DEFAULT_TOL,
        help="bound on the per-step reversibility check of simulated (random) runs "
        "(the closed-form reflect and quantum grover routes have no step to check)",
    )
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoisearch",
        description=(
            "Sector-decomposed models with bounded interference order: "
            "verify the projector algebra, run marked-item searches, and "
            "check the query-count bounds."
        ),
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"hoisearch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify",
        help="exact subset identities and numeric projector/oracle checks",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    cells = p_verify.add_mutually_exclusive_group()
    cells.add_argument("--n-max", type=int, default=6, help="grid upper bound for N")
    cells.add_argument("--n", default=None, help="verify a single N instead of the grid")
    p_verify.add_argument("--h", type=int, default=None, help="order for the single-N cell")
    p_verify.add_argument("--tol", type=tolerance, default=DEFAULT_TOL, help="numeric tolerance")
    p_verify.set_defaults(func=cmd_verify)

    for name, func, text in (
        ("search", cmd_search, "run one search experiment and report per-query success"),
        ("bound", cmd_bound, "check the progress-measure bounds over a seed set"),
        ("sweep", cmd_sweep, "query counts against list size, with the scaling floor"),
    ):
        p_run = sub.add_parser(
            name, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        _add_common(p_run)
        p_run.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (UsageError, ValueError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
