"""Search trajectories, progress measures, and query-count bounds.

Runs the marked-item search experiment on any sector-decomposed model: one
trajectory per candidate marked item, interleaving the sign-flip oracle with
a schedule of reversible maps, next to the oracle-free control trajectory.
From the pair it derives the per-query progress measure (the summed squared
distance between the two trajectory families), its schedule-independent
ceiling ``4 h k^2``, the companion distances to the target states, and the
finite-N floor that any successful run must have climbed above.

``run_experiment`` is the one path from an experiment spec (family, N, h,
strategy, seed, k_max) to a report; sweeps and the CLI go through it. Every
quantum run with the standard amplitude-amplification schedule takes the
exact closed-form report, ``quantum_grover_report``, at every N: from the
uniform start every marked trajectory is a rotation in a two-dimensional
plane and the oracle-free control never moves, so each measure is a
trigonometric function of k, computed in O(k) time and memory. Every other
run simulates the dense sector coordinates with `run_search`, which, with
`grover_schedule`, is also the test suite's reference for the closed form
(besides a direct amplitude simulation).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from ._version import __version__
from .models import (
    DEFAULT_TOL,
    Model,
    NumericError,
    StateVector,
    build_model,
    conjugate_rows,
    haar_orthogonal,
    inner,
    quantum_descriptor,
    sign_flip_oracle,
)

__all__ = [
    "Schedule",
    "TrajectoryPair",
    "ProgressReport",
    "UpperBoundCheck",
    "LowerBoundCheck",
    "SweepRow",
    "SweepResult",
    "uniform_start",
    "success_probability",
    "oracle_displacement",
    "diffusion_unitary",
    "grover_schedule",
    "reflection_schedule",
    "random_schedule",
    "make_schedule",
    "run_search",
    "progress_measures",
    "quantum_grover_report",
    "run_experiment",
    "check_upper_bound",
    "analytic_crossing_floor",
    "check_lower_bound",
    "scaling_sweep",
    "default_k_max",
    "write_report_csv",
    "write_sweep_csv",
    "reports_to_json",
    "sweep_to_json",
    "LOWER_BOUND_CONSTANT",
    "REPORT_CSV_COLUMNS",
    "SWEEP_CSV_COLUMNS",
]

# Any constant below (sqrt(2)-1)^2 ~ 0.1716 works asymptotically; 0.17 is the
# conventional round figure reported alongside sweep results.
LOWER_BOUND_CONSTANT = 0.17

REPORT_CSV_COLUMNS = (
    "model_kind",
    "N",
    "h",
    "strategy",
    "seed",
    "k",
    "D_k",
    "upper_4hk2",
    "E_k",
    "F_k",
    "lower_exact",
    "success_mean",
    "success_min",
)

SWEEP_CSV_COLUMNS = (
    "model_kind",
    "N",
    "h",
    "strategy",
    "seed",
    "k_star",
    "k_peak",
    "success_at_k_star",
    "max_success",
    "k_max",
    "floor_sqrt_cN_4h",
    "saturated",
)


# ---------------------------------------------------------------------------
# Elementary quantities
# ---------------------------------------------------------------------------

def uniform_start(model: Model) -> StateVector:
    """The canonical starting state of the search experiment."""
    return model.uniform_state.copy()


def success_probability(model: Model, state: StateVector, marked: int) -> float:
    """Overlap of a state with the marked basis state.

    For classical and quantum states this is the probability of finding the
    marked item; exploratory synthetic dynamics can leave the physical state
    set, in which case the raw overlap (possibly outside [0, 1]) is reported
    unclamped.
    """
    if not 0 <= marked < model.n_slits:
        raise ValueError(f"marked item {marked} out of range 0..{model.n_slits - 1}")
    return inner(model.basis_states[marked], state)


def oracle_displacement(model: Model, state: StateVector) -> float:
    """How far one query moves a state, summed over all possible marked items.

    Sum over x of ``|| (1 - O_x) s ||^2``. Because each oracle doubles exactly
    the coherence blocks containing its marked slit (size > 1) and kills the
    rest of the difference, the sum collapses to ``4 * sum_I |I| * ||s_I||^2``
    over the multi-slit sectors; the test suite cross-checks this against the
    literal per-oracle evaluation.
    """
    space = model.space
    if state.space != space:
        raise ValueError("state does not live on the model's space")
    total = 0.0
    for sector in space.sectors:
        size = len(sector)
        if size > 1:
            block = state.coords[space.sector_slice(sector)]
            total += 4.0 * size * float(np.dot(block, block))
    return total


def diffusion_unitary(n_items: int) -> np.ndarray:
    """The amplitude-space inversion about the uniform superposition."""
    return np.full((n_items, n_items), 2.0 / n_items) - np.eye(n_items)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """A named source of reversible steps, indexed from 1.

    ``apply_fn(k, rows)`` returns step k applied to each row of a batch of
    states of shape (r, M).
    """

    name: str
    apply_fn: Callable[[int, np.ndarray], np.ndarray]
    seed: int | None = None  # random schedules only

    def apply(self, index: int, rows: np.ndarray) -> np.ndarray:
        if index < 1:
            raise ValueError(f"step index starts at 1, got {index}")
        return self.apply_fn(index, rows)


def grover_schedule(model: Model) -> Schedule:
    """Every step is the inversion-about-uniform conjugation ``rho -> U rho U^T``."""
    if model.kind != "quantum":
        raise ValueError("the grover strategy is defined on the quantum model only")
    diffusion = diffusion_unitary(model.n_slits)
    return Schedule("grover", lambda _k, rows: conjugate_rows(model, diffusion, rows))


def reflection_schedule(model: Model) -> Schedule:
    """Every step reflects about the model's uniform state s: ``2 s s^t / <s,s> - 1``.

    The generalised diffusion step for models without a native algorithm,
    applied as a rank-1 update. On the quantum model this sector-coordinate
    reflection is not the lift of the amplitude-space diffusion unitary;
    the ``grover`` schedule uses the conjugation instead.
    """
    axis = model.uniform_state.coords
    sq = float(np.dot(axis, axis))
    if sq <= 0.0:
        raise ValueError("cannot reflect about the zero vector")
    return Schedule("reflect", lambda _k, rows: np.outer((2.0 / sq) * (rows @ axis), axis) - rows)


def random_schedule(model: Model, seed: int) -> Schedule:
    """Independent Haar-distributed steps, reproducible from the seed.

    Step k sends the batch's span onto a frame drawn from ``(seed, k)``:
    with ``qb`` an orthonormal basis of the span (reduced QR of ``rows.T``)
    and ``F`` a Haar frame of as many columns (`haar_orthogonal`), the rows
    become ``rows @ qb @ F.T``. A step thus depends on ``(seed, k)`` and on
    the batch it acts on; its law is that of a Haar-orthogonal step, since a
    Haar ``Q`` sends ``qb`` to a uniform frame (Mezzadri 2007, arXiv
    math-ph/0609050). It costs two QRs of M x r matrices, not one of M x M.
    """
    dim = model.space.total_dim
    seed = int(seed)

    def apply_fn(index: int, rows: np.ndarray) -> np.ndarray:
        qb = np.linalg.qr(rows.T)[0]
        frame = haar_orthogonal(dim, np.random.default_rng((seed, int(index))), qb.shape[1])
        return rows @ qb @ frame.T

    return Schedule(f"random:{seed}", apply_fn, seed=seed)


def make_schedule(model: Model, strategy: str, seed: int = 0) -> Schedule:
    if strategy == "grover":
        return grover_schedule(model)
    if strategy == "reflect":
        return reflection_schedule(model)
    if strategy == "random":
        return random_schedule(model, seed)
    raise ValueError(f"unknown strategy {strategy!r}")


def default_strategy(kind: str) -> str:
    return "grover" if kind == "quantum" else "reflect"


def default_k_max(n_items: int) -> int:
    return int(math.ceil(4.0 * math.sqrt(n_items)))


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryPair:
    """Oracle-driven trajectories (one per marked item) and their control.

    ``states_with_oracle[k, i]`` is the state after k queries when item
    ``marked[i]`` is marked; ``states_without_oracle[k]`` applies the same
    schedule without any query. Row 0 of both is the shared starting state.
    """

    model: Model
    schedule: Schedule
    marked: tuple[int, ...]
    start: StateVector
    states_with_oracle: np.ndarray  # (k_max + 1, n_marked, M)
    states_without_oracle: np.ndarray  # (k_max + 1, M)

    @property
    def k_max(self) -> int:
        return self.states_with_oracle.shape[0] - 1


def run_search(
    model: Model,
    schedule: Schedule,
    k_max: int,
    *,
    marked: Sequence[int] | None = None,
    start: StateVector | None = None,
    tol: float = DEFAULT_TOL,
) -> TrajectoryPair:
    """Evolve the full trajectory pair for ``k_max`` queries.

    Each query applies the marked item's sign-flip oracle and then the
    schedule step, exactly as the search experiment prescribes. Every step
    must be reversible on the batch it acts on: it must preserve the batch
    Gram matrix (every inner product between trajectories, hence every norm
    and distance the bounds use) to within ``tol``, or ``NumericError`` is
    raised.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    marked_items = tuple(range(model.n_slits)) if marked is None else tuple(marked)
    start_state = model.uniform_state if start is None else start
    if start_state.space != model.space:
        raise ValueError("start state does not live on the model's space")

    m_dim = model.space.total_dim
    n_marked = len(marked_items)
    # last batch row is the oracle-free control: its "oracle" is the identity,
    # and sharing the batched step keeps it bit-identical to trajectories the
    # oracle leaves untouched (the classical collapse is then exact)
    oracle_diags = np.vstack(
        [sign_flip_oracle(model, x) for x in marked_items]
        + [np.ones(m_dim)]
    )

    with_states = np.empty((k_max + 1, n_marked, m_dim))
    free_states = np.empty((k_max + 1, m_dim))
    with_states[0] = np.tile(start_state.coords, (n_marked, 1))
    free_states[0] = start_state.coords

    batch = np.tile(start_state.coords, (n_marked + 1, 1))
    for k in range(1, k_max + 1):
        queried = batch * oracle_diags
        batch = schedule.apply(k, queried)
        defect = float(np.max(np.abs(batch @ batch.T - queried @ queried.T)))
        if defect > tol:
            raise NumericError(
                f"schedule step {k} is not reversible "
                f"(Gram defect {defect:.3e} > {tol:.1e})"
            )
        with_states[k] = batch[:n_marked]
        free_states[k] = batch[n_marked]

    return TrajectoryPair(
        model=model,
        schedule=schedule,
        marked=marked_items,
        start=start_state.copy(),
        states_with_oracle=with_states,
        states_without_oracle=free_states,
    )


# ---------------------------------------------------------------------------
# Progress measures
# ---------------------------------------------------------------------------

@dataclass
class ProgressReport:
    """Per-query bound data for one search run.

    ``divergence`` is the summed squared distance between the oracle-driven
    and oracle-free trajectories (the quantity squeezed by the query bounds);
    ``gap_with_oracle`` / ``gap_without_oracle`` are the summed squared
    distances of each family to the target basis states; ``pair_lower_bound``
    is the reverse-triangle floor the divergence can never undercut.

    A run succeeds at k when its worst marked item is found with probability
    at least 1/2 (``success_min >= 1/2``), the criterion
    `analytic_crossing_floor` is derived for.
    """

    descriptor: dict
    strategy: str
    seed: int | None
    n_slits: int
    order: int
    marked: Sequence[int]
    k: np.ndarray
    divergence: np.ndarray
    upper_bound: np.ndarray
    gap_with_oracle: np.ndarray
    gap_without_oracle: np.ndarray
    pair_lower_bound: np.ndarray
    success: np.ndarray  # (k_max + 1, n_marked)
    success_mean: np.ndarray  # mean over the marked items, per k
    success_min: np.ndarray  # worst marked item, per k

    def first_crossing(self) -> int | None:
        """Smallest query count whose per-item success reaches 1/2."""
        hits = np.nonzero(self.success_min >= 0.5)[0]
        return int(hits[0]) if hits.size else None

    def first_peak(self) -> int:
        """First query count at which the per-item success stops increasing.

        For the standard quantum schedule this is the textbook iteration
        count; for flat series (classical saturation) it degenerates to the
        final index.
        """
        series = self.success_min
        for k in range(len(series) - 1):
            if series[k + 1] < series[k] - 1e-12:
                return k
        return len(series) - 1


def progress_measures(model: Model, trajectories: TrajectoryPair) -> ProgressReport:
    """Distances, bounds, and success probabilities along a trajectory pair."""
    basis = np.stack(
        [model.basis_states[x].coords for x in trajectories.marked]
    )  # (X, M)
    with_states = trajectories.states_with_oracle
    free_states = trajectories.states_without_oracle
    k_max = trajectories.k_max
    ks = np.arange(k_max + 1)

    diff = np.empty(with_states.shape)  # one (k+1, X, M) buffer for all three
    np.subtract(with_states, free_states[:, None, :], out=diff)
    divergence = np.einsum("kxm,kxm->k", diff, diff)
    np.subtract(with_states, basis[None, :, :], out=diff)
    gap_with = np.einsum("kxm,kxm->k", diff, diff)
    np.subtract(free_states[:, None, :], basis[None, :, :], out=diff)
    gap_without = np.einsum("kxm,kxm->k", diff, diff)
    success = np.einsum("kxm,xm->kx", with_states, basis)

    pair_lower = np.maximum(0.0, np.sqrt(gap_without) - np.sqrt(gap_with)) ** 2
    upper = 4.0 * model.order * ks.astype(float) ** 2

    return ProgressReport(
        descriptor=model.descriptor(),
        strategy=trajectories.schedule.name,
        seed=trajectories.schedule.seed,
        n_slits=model.n_slits,
        order=model.order,
        marked=trajectories.marked,
        k=ks,
        divergence=divergence,
        upper_bound=upper,
        gap_with_oracle=gap_with,
        gap_without_oracle=gap_without,
        pair_lower_bound=pair_lower,
        success=success,
        success_mean=success.mean(axis=1),
        success_min=success.min(axis=1),
    )


def quantum_grover_report(n_items: int, k_max: int) -> ProgressReport:
    """Exact report for the quantum model under the standard schedule, in O(k).

    From the uniform start ``u`` the trajectory with item x marked stays in
    ``span{|x>, u}`` and after k queries is the pure state
    ``sin((2k+1) t) |x> + cos((2k+1) t) |x_perp>`` with ``t = asin(1/sqrt N)``
    (Boyer, Brassard, Hoyer, Tapp, arXiv quant-ph/9605034); the oracle-free
    control stays at ``u``, which the diffusion fixes. Every marked item gives
    a relabelled copy of the same trajectory, and the embedding identity for
    pure states, ``||emb a - emb b||^2 = 2 (1 - <a, b>^2)``, turns the overlaps
    into sector-coordinate distances:

    * per-item success ``sin^2((2k+1) t)``,
    * ``D_k = 2 N sin^2(2 k t)``,
    * ``E_k = 2 N cos^2((2k+1) t)``,
    * ``F_k = 2 (N - 1)``.

    ``success`` is a read-only broadcast view of shape ``(k_max + 1, N)``, so
    time and memory are O(k) whatever N is.
    """
    if n_items < 2:
        raise ValueError(f"the quantum model needs at least 2 slits, got {n_items}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    n = n_items
    start = 1.0 / n
    theta = math.asin(math.sqrt(start))
    ks = np.arange(k_max + 1)
    turn = 2.0 * theta * ks  # angle between each marked trajectory and u
    turn_sq = np.sin(turn) ** 2
    # sin^2(theta + turn) expanded about the start, so that k = 0 gives the
    # start's success 1/N exactly: at N = 2 every k sits exactly on 1/2, and
    # one ulp below would turn the crossing k* = 0 into "saturated"
    per_item = (
        start
        + (1.0 - 2.0 * start) * turn_sq
        + math.sqrt(start * (1.0 - start)) * np.sin(2.0 * turn)
    )
    divergence = 2.0 * n * turn_sq
    gap_with = 2.0 * n * np.cos(theta + turn) ** 2
    gap_without = np.full(k_max + 1, 2.0 * (n - 1))
    pair_lower = np.maximum(0.0, np.sqrt(gap_without) - np.sqrt(gap_with)) ** 2

    return ProgressReport(
        descriptor=quantum_descriptor(n),
        strategy="grover",
        seed=None,
        n_slits=n,
        order=2,
        marked=range(n),
        k=ks,
        divergence=divergence,
        upper_bound=8.0 * ks.astype(float) ** 2,
        gap_with_oracle=gap_with,
        gap_without_oracle=gap_without,
        pair_lower_bound=pair_lower,
        success=np.broadcast_to(per_item[:, None], (k_max + 1, n)),
        success_mean=per_item,
        success_min=per_item,
    )


def run_experiment(
    kind: str,
    n_items: int,
    strategy: str | None = None,
    *,
    order: int | None = None,
    seed: int = 0,
    k_max: int | None = None,
    tol: float = DEFAULT_TOL,
) -> ProgressReport:
    """The report of one search experiment, from its spec alone.

    ``kind`` and ``order`` pick the model (see `build_model`); ``strategy``
    defaults to the family's standard schedule, ``seed`` seeds a random one
    and ``k_max`` defaults to `default_k_max`, resolved once N is known to be
    valid. Quantum ``grover`` runs take the exact closed form at every N and
    build no model, so they have no step for ``tol`` to check; every other run
    simulates the dense sector coordinates.
    """
    if strategy is None:
        strategy = default_strategy(kind)
    # an order other than the quantum one falls through to build_model,
    # which rejects it
    if kind == "quantum" and strategy == "grover" and order in (None, 2):
        if n_items < 2:  # the model's own check, made before default_k_max
            raise ValueError(f"the quantum model needs at least 2 slits, got {n_items}")
        return quantum_grover_report(n_items, default_k_max(n_items) if k_max is None else k_max)
    model = build_model(kind, n_items, order)
    if k_max is None:
        k_max = default_k_max(n_items)
    schedule = make_schedule(model, strategy, seed)
    return progress_measures(model, run_search(model, schedule, k_max, tol=tol))


# ---------------------------------------------------------------------------
# Bound checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpperBoundCheck:
    holds: bool
    max_excess: float
    worst_k: int


def check_upper_bound(report: ProgressReport, *, tol: float = 1e-7) -> UpperBoundCheck:
    """Assert the schedule-independent ceiling ``D_k <= 4 h k^2`` at every k."""
    excess = report.divergence - report.upper_bound
    worst = int(np.argmax(excess))
    max_excess = float(excess[worst])
    return UpperBoundCheck(holds=max_excess <= tol, max_excess=max_excess, worst_k=worst)


def analytic_crossing_floor(n_items: int) -> float:
    """Exact finite-N floor the divergence must exceed once every marked item
    is found with probability at least 1/2:
    ``(sqrt(2 (N - sqrt(N))) - sqrt(N))^2``, clamped at zero where vacuous.
    """
    root = math.sqrt(n_items)
    return max(0.0, math.sqrt(2.0 * (n_items - root)) - root) ** 2


@dataclass(frozen=True)
class LowerBoundCheck:
    crossed: bool
    crossing_k: int | None
    floor: float
    measured: float | None
    holds: bool


def check_lower_bound(report: ProgressReport, *, tol: float = 1e-6) -> LowerBoundCheck:
    """At the first success crossing, the divergence must sit above the
    finite-N floor. Vacuously true when the run never crosses (saturation is
    data, not failure)."""
    crossing = report.first_crossing()
    floor = analytic_crossing_floor(report.n_slits)
    if crossing is None:
        return LowerBoundCheck(False, None, floor, None, True)
    measured = float(report.divergence[crossing])
    return LowerBoundCheck(
        crossed=True,
        crossing_k=crossing,
        floor=floor,
        measured=measured,
        holds=measured >= floor - tol,
    )


# ---------------------------------------------------------------------------
# Scaling sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    kind: str
    n_slits: int
    order: int
    strategy: str
    seed: int | None
    k_star: int | None
    k_peak: int
    success_at_k_star: float | None
    max_success: float
    k_max: int
    floor: float

    @property
    def saturated(self) -> bool:
        return self.k_star is None


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def exponent(self, statistic: str = "crossing") -> float | None:
        """Log-log slope of the chosen query count against the list size."""
        xs, ys = [], []
        for row in self.rows:
            value = row.k_star if statistic == "crossing" else row.k_peak
            if value is not None and value >= 1:
                xs.append(math.log(row.n_slits))
                ys.append(math.log(value))
        if len(xs) < 2:
            return None
        slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
        return float(slope)


def scaling_floor(n_items: int, order: int) -> float:
    """The asymptotic query floor ``sqrt(c N / (4 h))`` with c = 0.17."""
    return math.sqrt(LOWER_BOUND_CONSTANT * n_items / (4.0 * order))


def scaling_sweep(
    kind: str,
    n_list: Sequence[int],
    strategy: str | None = None,
    *,
    order: int | None = None,
    seed: int = 0,
    k_max: int | None = None,
    tol: float = DEFAULT_TOL,
) -> SweepResult:
    """Query counts against list size for one model family and strategy.

    Records, per N, both the first success crossing (the search-problem
    count) and the first success peak (the canonical iteration count for the
    quantum schedule), alongside the asymptotic floor. Runs that never cross
    within the step budget are recorded as saturated, not failed.
    """
    rows: list[SweepRow] = []
    for n_items in n_list:
        report = run_experiment(
            kind, n_items, strategy, order=order, seed=seed, k_max=k_max, tol=tol
        )
        k_star = report.first_crossing()
        series = report.success_min
        rows.append(
            SweepRow(
                kind=kind,
                n_slits=n_items,
                order=report.order,
                strategy=report.strategy,
                seed=report.seed,
                k_star=k_star,
                k_peak=report.first_peak(),
                success_at_k_star=float(series[k_star]) if k_star is not None else None,
                max_success=float(series.max()),
                k_max=int(report.k[-1]),
                floor=scaling_floor(n_items, report.order),
            )
        )
    return SweepResult(rows=rows)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _header_lines(config: Mapping | None) -> list[str]:
    lines = [f"# version: hoisearch {__version__}"]
    if config is not None:
        lines.append("# config: " + json.dumps(dict(config), sort_keys=True))
    return lines


def report_rows(report: ProgressReport) -> list[dict]:
    mean = report.success_mean
    low = report.success_min
    rows = []
    for i, k in enumerate(report.k):
        rows.append(
            {
                "model_kind": report.descriptor["kind"],
                "N": report.n_slits,
                "h": report.order,
                "strategy": report.strategy,
                "seed": report.seed,
                "k": int(k),
                "D_k": float(report.divergence[i]),
                "upper_4hk2": float(report.upper_bound[i]),
                "E_k": float(report.gap_with_oracle[i]),
                "F_k": float(report.gap_without_oracle[i]),
                "lower_exact": float(report.pair_lower_bound[i]),
                "success_mean": float(mean[i]),
                "success_min": float(low[i]),
            }
        )
    return rows


def write_report_csv(
    reports: ProgressReport | Iterable[ProgressReport],
    fh: TextIO,
    *,
    config: Mapping | None = None,
) -> None:
    if isinstance(reports, ProgressReport):
        reports = [reports]
    for line in _header_lines(config):
        fh.write(line + "\n")
    fh.write(",".join(REPORT_CSV_COLUMNS) + "\n")
    for report in reports:
        for row in report_rows(report):
            fh.write(",".join(_fmt(row[c]) for c in REPORT_CSV_COLUMNS) + "\n")


def sweep_rows(result: SweepResult) -> list[dict]:
    rows = []
    for row in result.rows:
        rows.append(
            {
                "model_kind": row.kind,
                "N": row.n_slits,
                "h": row.order,
                "strategy": row.strategy,
                "seed": row.seed,
                "k_star": row.k_star,
                "k_peak": row.k_peak,
                "success_at_k_star": row.success_at_k_star,
                "max_success": row.max_success,
                "k_max": row.k_max,
                "floor_sqrt_cN_4h": row.floor,
                "saturated": row.saturated,
            }
        )
    return rows


def write_sweep_csv(
    result: SweepResult, fh: TextIO, *, config: Mapping | None = None
) -> None:
    for line in _header_lines(config):
        fh.write(line + "\n")
    for stat in ("crossing", "peak"):
        exp = result.exponent(stat)
        fh.write(f"# exponent_{stat}: {_fmt(exp) if exp is not None else 'n/a'}\n")
    fh.write(",".join(SWEEP_CSV_COLUMNS) + "\n")
    for row in sweep_rows(result):
        fh.write(",".join(_fmt(row[c]) for c in SWEEP_CSV_COLUMNS) + "\n")


def reports_to_json(
    reports: ProgressReport | Iterable[ProgressReport],
    *,
    config: Mapping | None = None,
) -> str:
    if isinstance(reports, ProgressReport):
        reports = [reports]
    payload = {
        "version": __version__,
        "config": dict(config) if config is not None else None,
        "reports": [
            {
                "model": r.descriptor,
                "strategy": r.strategy,
                "seed": r.seed,
                "rows": report_rows(r),
            }
            for r in reports
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def sweep_to_json(result: SweepResult, *, config: Mapping | None = None) -> str:
    payload = {
        "version": __version__,
        "config": dict(config) if config is not None else None,
        # the success criterion of every crossing (see ProgressReport)
        "mode": "per-item",
        "threshold": 0.5,
        "exponent_crossing": result.exponent("crossing"),
        "exponent_peak": result.exponent("peak"),
        "rows": sweep_rows(result),
    }
    return json.dumps(payload, sort_keys=True, indent=2)
