"""Search trajectories, progress measures, and query-count bounds.

Runs the marked-item search experiment on any sector-decomposed model: one
trajectory per candidate marked item, interleaving the sign-flip oracle with
a schedule of reversible maps, next to the oracle-free control trajectory.
At each query it takes the progress measure (the summed squared distance
between the two trajectory families) from the live batch, keeping no past
state, next to its schedule-independent ceiling ``4 h k^2``, the companion
distances to the target states, and the finite-N floor that any successful
run must have climbed above. States are plain ``(M,)`` arrays of sector
coordinates and a batch of trajectories is an ``(r, M)`` array; the target
of marked item x is the unit vector at ``model.basis_index[x]``.

``run_experiment`` is the one path from an experiment spec (family, N, h,
strategy, seed, k_max) to a report, and the one place that maps a strategy
to a route; sweeps and the CLI go through it. It checks the whole spec
before it enumerates a sector. Both symmetric strategies take an exact
closed-form report at every N, in O(k) time and memory and without
enumerating a sector: from the uniform start every marked trajectory is a
rotation in a two-dimensional plane and the oracle-free control never moves,
so each measure is a trigonometric function of k. ``quantum_grover_report``
covers quantum ``grover`` and ``reflection_report`` every ``reflect`` run.
Only ``random`` runs simulate the dense sector coordinates, with
`run_search` on a `random_schedule`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from ._version import __version__
from .models import (
    DEFAULT_TOL,
    Model,
    NumericError,
    _check_state,
    haar_orthogonal,
    sign_flip_oracle,
)
from .subsets import EnumerationLimitError

__all__ = [
    "Schedule",
    "ProgressReport",
    "UpperBoundCheck",
    "LowerBoundCheck",
    "SweepRow",
    "SweepResult",
    "oracle_displacement",
    "random_schedule",
    "run_search",
    "quantum_grover_report",
    "reflection_report",
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
    "MAX_DENSE_ENTRIES",
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

def oracle_displacement(model: Model, state: np.ndarray) -> float:
    """How far one query moves a state, summed over all possible marked items.

    Sum over x of ``|| (1 - O_x) s ||^2``. Because each oracle doubles exactly
    the coherence blocks containing its marked slit (size > 1) and kills the
    rest of the difference, the sum collapses to ``4 * sum_I |I| * ||s_I||^2``
    over the multi-slit sectors; the test suite cross-checks this against the
    literal per-oracle evaluation.
    """
    space = model.space
    coords = _check_state(model, state)
    sizes = space.members.sum(axis=1)
    sizes = np.where(sizes > 1, sizes, 0.0)
    return 4.0 * float(np.dot(sizes[space.owner], coords * coords))


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


def random_schedule(model: Model, seed: int) -> Schedule:
    """Independent Haar-distributed steps, reproducible from the seed.

    Step k sends the batch's span onto a frame drawn from ``(seed, k)``:
    with ``rows.T = qb @ tri`` the reduced QR of the batch and ``F`` a Haar
    frame of as many columns (`haar_orthogonal`), the rows become
    ``rows @ qb @ F.T``, which is ``tri.T @ F.T``, so ``qb`` is never formed.
    A step thus depends on ``(seed, k)`` and on the batch it acts on; its law
    is that of a Haar-orthogonal step, since a Haar ``Q`` sends ``qb`` to a
    uniform frame (Mezzadri 2007, arXiv math-ph/0609050). It costs two QRs
    of M x r matrices, one without its Q, and no M x M matrix.
    """
    dim = model.space.total_dim
    seed = int(seed)
    if seed < 0:  # numpy's seed sequence takes no negative entropy
        raise ValueError(f"seed must be >= 0, got {seed}")

    def apply_fn(index: int, rows: np.ndarray) -> np.ndarray:
        tri = np.linalg.qr(rows.T, mode="r")
        frame = haar_orthogonal(dim, np.random.default_rng((seed, int(index))), tri.shape[0])
        return tri.T @ frame.T

    return Schedule(f"random:{seed}", apply_fn, seed=seed)


def default_strategy(kind: str) -> str:
    return "grover" if kind == "quantum" else "reflect"


def default_k_max(n_items: int) -> int:
    return int(math.ceil(4.0 * math.sqrt(n_items)))


# ---------------------------------------------------------------------------
# Progress reports
# ---------------------------------------------------------------------------

@dataclass
class ProgressReport:
    """Per-query bound data for one search run.

    ``divergence`` is the summed squared distance between the oracle-driven
    and oracle-free trajectories (the quantity squeezed by the query bounds);
    ``gap_with_oracle`` / ``gap_without_oracle`` are the summed squared
    distances of each family to the target basis states. ``upper_bound``, the
    ceiling ``4 h k^2``, and ``pair_lower_bound``, the reverse-triangle floor
    ``max(0, sqrt F_k - sqrt E_k)^2`` the divergence can never undercut, are
    derived from those fields. ``success_mean`` and ``success_min`` reduce,
    per k, each marked trajectory's overlap with its target. It is the
    probability of finding the marked item only while the trajectory stays a
    state of the theory, as under quantum ``grover``; Haar steps and the
    sector-coordinate reflection can leave the state space, and then it is a
    raw overlap that can fall outside [0, 1] (quantum ``reflect`` at N = 2
    reads -0.5 at k = 1). One item's series is ``run_search(..., marked=(x,))``.

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
    upper_bound: np.ndarray = field(init=False)
    gap_with_oracle: np.ndarray
    gap_without_oracle: np.ndarray
    pair_lower_bound: np.ndarray = field(init=False)
    success_mean: np.ndarray  # mean over the marked items, per k
    success_min: np.ndarray  # worst marked item, per k

    def __post_init__(self) -> None:
        self.upper_bound = 4.0 * self.order * self.k.astype(float) ** 2
        self.pair_lower_bound = (
            np.maximum(0.0, np.sqrt(self.gap_without_oracle) - np.sqrt(self.gap_with_oracle)) ** 2
        )

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


def run_search(
    model: Model,
    schedule: Schedule,
    k_max: int,
    *,
    marked: Sequence[int] | None = None,
    start: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> ProgressReport:
    """Run the search experiment for ``k_max`` queries and report its measures.

    Each query applies the marked item's sign-flip oracle and then the
    schedule step, exactly as the search experiment prescribes. Every step
    must be reversible on the batch it acts on: it must preserve the batch
    Gram matrix (every inner product between trajectories, hence every norm
    and distance the bounds use) to within ``tol``, or ``NumericError`` is
    raised. The measures at query k are taken from the live batch after the
    step, so memory is O(N M + k). ``start`` is an ``(M,)`` array, the
    model's uniform state by default; only its shape is checked.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    marked_items = tuple(range(model.n_slits)) if marked is None else tuple(marked)
    if not marked_items:
        raise ValueError("need at least one marked item")
    start_state = model.uniform_state if start is None else _check_state(model, start)

    m_dim = model.space.total_dim
    n_marked = len(marked_items)
    # last batch row is the oracle-free control: its "oracle" is the identity.
    # A trajectory the oracle leaves untouched is the control's, and is copied
    # from it after each step, as a batched step (a QR) need not send equal
    # rows to bit-equal rows: the classical collapse is then exact
    oracle_diags = np.vstack([sign_flip_oracle(model, marked_items), np.ones(m_dim)])
    untouched = np.flatnonzero((oracle_diags[:-1] == 1.0).all(axis=1))
    # target rows: basis state x is the unit vector at basis_index[x]
    basis = np.zeros((n_marked, m_dim))
    basis[np.arange(n_marked), model.basis_index[list(marked_items)]] = 1.0

    divergence, gap_with, gap_without, success_mean, success_min = np.empty((5, k_max + 1))
    overlaps = np.empty(n_marked)  # each trajectory's overlap with its target
    # with - free, with - target, free - target: one einsum call sums all three
    diffs = np.empty((3, n_marked, m_dim))
    batch = np.tile(start_state, (n_marked + 1, 1))
    for k in range(k_max + 1):
        if k:
            queried = batch * oracle_diags
            batch = schedule.apply(k, queried)
            defect = float(np.max(np.abs(batch @ batch.T - queried @ queried.T)))
            if not defect <= tol:  # a NaN defect fails too
                raise NumericError(
                    f"schedule step {k} is not reversible "
                    f"(Gram defect {defect:.3e} > {tol:.1e})"
                )
            batch[untouched] = batch[n_marked]
        with_states, free_state = batch[:n_marked], batch[n_marked]
        np.subtract(with_states, free_state, out=diffs[0])
        np.subtract(with_states, basis, out=diffs[1])
        np.subtract(free_state, basis, out=diffs[2])
        divergence[k], gap_with[k], gap_without[k] = np.einsum("txm,txm->t", diffs, diffs)
        np.einsum("xm,xm->x", with_states, basis, out=overlaps)
        success_mean[k], success_min[k] = overlaps.mean(), overlaps.min()

    return ProgressReport(
        descriptor=model.descriptor(),
        strategy=schedule.name,
        seed=schedule.seed,
        n_slits=model.n_slits,
        order=model.order,
        marked=marked_items,
        k=np.arange(k_max + 1),
        divergence=divergence,
        gap_with_oracle=gap_with,
        gap_without_oracle=gap_without,
        success_mean=success_mean,
        success_min=success_min,
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

    Time and memory are O(k) whatever N is.
    """
    model = Model("quantum", n_items)
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
    return _symmetric_report(model, "grover", per_item, divergence, gap_with, 2.0 * (n - 1))


def reflection_report(model: Model, k_max: int) -> ProgressReport:
    """Exact report of a ``reflect`` run on a model, in O(k).

    With item x marked the oracle is ``1 - 2 P_x``, P_x the projector onto
    the blocks it flips, and the step reflects about the uniform start s, so
    the trajectory stays in the plane spanned by ``s - P_x s`` and ``P_x s``
    and turns by ``2 phi`` per query, ``sin^2 phi = beta / sigma`` (Boyer,
    Brassard, Hoyer, Tapp, arXiv quant-ph/9605034). Here ``sigma = <s, s>``
    and ``beta = |P_x s|^2`` are binomial counts of the uniform state's block
    weights (`Model.block_weights`); the oracle-free control stays at s,
    which the step fixes. The target lies in x's singleton block, which no
    oracle flips, and overlaps s by ``s_x = 1/N``:

    * per-item success ``s_x cos((2k+1) phi) / cos phi``,
    * ``D_k = 4 N sigma sin^2(k phi)``,
    * ``E_k = N (sigma + 1 - 2 success_k)``,
    * ``F_k = N (sigma + 1 - 2 s_x)``.

    The block weights depend on the sector size alone, so every marked item
    gives a relabelled copy of one trajectory and each sum over the N items
    is N times one term. Time and memory are O(k) whatever N is.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    n = model.n_slits
    weights = model.block_weights
    sigma = sum(math.comb(n, size) * w for size, w in weights.items())
    # the oracle for x flips the sectors of size >= 2 that contain x
    beta = sum(math.comb(n - 1, size - 1) * w for size, w in weights.items() if size > 1)
    start = 1.0 / n
    phi = math.asin(math.sqrt(beta / sigma))
    ks = np.arange(k_max + 1)
    turned = np.cos((2 * ks + 1) * phi)
    # scaled by its own k = 0 entry rather than a separately rounded cos(phi),
    # so that k = 0 gives the start's success 1/N exactly: at N = 2 that is
    # exactly 1/2, the crossing k* = 0
    per_item = start * (turned / turned[0])
    divergence = 4.0 * n * sigma * np.sin(ks * phi) ** 2
    gap_with = n * (sigma + 1.0 - 2.0 * per_item)
    gap_without = n * (sigma + 1.0 - 2.0 * start)
    return _symmetric_report(model, "reflect", per_item, divergence, gap_with, gap_without)


def _symmetric_report(
    model: Model, strategy: str, per_item: np.ndarray,
    divergence: np.ndarray, gap_with: np.ndarray, gap_without: float,
) -> ProgressReport:
    """A closed-form report: the N marked trajectories are relabelled copies
    of one, so ``per_item`` is both the mean and the least success, and the
    control's gap never changes."""
    steps, n = per_item.shape[0], model.n_slits
    return ProgressReport(
        descriptor=model.descriptor(),
        strategy=strategy,
        seed=None,
        n_slits=n,
        order=model.order,
        marked=range(n),
        k=np.arange(steps),
        divergence=divergence,
        gap_with_oracle=gap_with,
        gap_without_oracle=np.full(steps, gap_without),
        success_mean=per_item,
        success_min=per_item,
    )


# A dense run holds its batch of N + 1 trajectories, the queried batch, the
# step's output and its temporaries, the oracle diagonals and the measures'
# difference arrays: about a dozen (N + 1) x M float arrays at once (traced
# peaks of random runs: 10.1 at quantum(127), 12.3 at classical(1024)).
# Capping one at 2^21 entries (16 MiB) still admits the largest dense runs in
# use, classical(1024) at 1.05e6 entries and quantum up to N = 127. At the
# cap, quantum(127) at k_max = 1, one BLAS thread (Python 3.11.7, numpy
# 2.4.6, x86-64): the run's arrays peak at 166.3 MB (tracemalloc) and a
# `bound` process at 224-226 MiB (ru_maxrss, 29 MiB of it the interpreter and
# numpy before the run); neither figure depends on k. The cap also bounds a
# report's per-k arrays, k_max + 1 entries a field, on every route.
MAX_DENSE_ENTRIES = 2**21


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

    ``kind`` and ``order`` pick the model (see `Model`); ``strategy``
    defaults to the family's standard schedule, ``seed`` seeds a random one
    and ``k_max`` defaults to `default_k_max`, resolved once N is known to be
    valid. The whole spec is checked before any sector is enumerated: the
    model spec (by building the model), the strategy (``grover`` is defined
    on the quantum model only), the size of a dense run and ``k_max``. Every
    ``reflect`` run and every quantum ``grover`` run takes its exact closed
    form at every N, so it has no step for ``tol`` to check; only ``random``
    runs simulate the dense sector coordinates, and one past
    `MAX_DENSE_ENTRIES` is refused with `EnumerationLimitError`, as is a
    report whose per-k arrays would pass it.
    """
    if strategy is None:
        strategy = default_strategy(kind)
    model = Model(kind, n_items, order)
    if k_max is None:
        k_max = default_k_max(n_items)
    if strategy not in ("grover", "reflect", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "grover" and kind != "quantum":
        raise ValueError("the grover strategy is defined on the quantum model only")
    if strategy == "random":
        m_dim = model.space.total_dim
        if (n_items + 1) * m_dim > MAX_DENSE_ENTRIES:
            raise EnumerationLimitError(
                f"a dense random run on {kind} N={n_items} h={model.order} needs "
                f"{n_items + 1} x {m_dim} state arrays, past the guard of "
                f"{MAX_DENSE_ENTRIES} entries"
            )
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if k_max + 1 > MAX_DENSE_ENTRIES:
        raise EnumerationLimitError(
            f"a report field over k = 0..{k_max} needs {k_max + 1} entries, "
            f"past the guard of {MAX_DENSE_ENTRIES}"
        )

    if strategy == "reflect":
        return reflection_report(model, k_max)
    if strategy == "grover":
        return quantum_grover_report(n_items, k_max)
    return run_search(model, random_schedule(model, seed), k_max, tol=tol)


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
    turned: bool  # 0 < k_peak < k_max, success at k_peak above that at k = 0

    @property
    def saturated(self) -> bool:
        return self.k_star is None


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def exponent(self, statistic: str = "crossing") -> float | None:
        """Log-log slope of the ``"crossing"`` or ``"peak"`` query count against
        the list size; None unless rows of at least two distinct N have a count >= 1.
        Only rows that turned enter the peak fit: on a series that never falls
        `k_peak` is ``k_max``, whose default ``ceil(4 sqrt N)`` fits slope 1/2.
        """
        if statistic not in ("crossing", "peak"):
            raise ValueError(f"unknown statistic {statistic!r}; expected 'crossing' or 'peak'")
        xs, ys = [], []
        for row in self.rows:
            value = row.k_star if statistic == "crossing" else (row.k_peak if row.turned else None)
            if value is not None and value >= 1:
                xs.append(math.log(row.n_slits))
                ys.append(math.log(value))
        if len(set(xs)) < 2:
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
        k_peak = report.first_peak()
        series = report.success_min
        rows.append(
            SweepRow(
                kind=kind,
                n_slits=n_items,
                order=report.order,
                strategy=report.strategy,
                seed=report.seed,
                k_star=k_star,
                k_peak=k_peak,
                success_at_k_star=float(series[k_star]) if k_star is not None else None,
                max_success=float(series.max()),
                k_max=int(report.k[-1]),
                floor=scaling_floor(n_items, report.order),
                turned=bool(0 < k_peak < len(series) - 1 and series[k_peak] > series[0]),
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


def _write_csv(
    fh: TextIO, config: Mapping | None, columns: Sequence[str], rows: Iterable[Mapping],
    notes: Sequence[str] = (),
) -> None:
    """The one CSV layout: a ``# version:`` line, a ``# config:`` line when a
    config is given, a ``# `` line per note, the column line, then a line per
    row with every cell through `_fmt`."""
    fh.write(f"# version: hoisearch {__version__}\n")
    if config is not None:
        fh.write("# config: " + json.dumps(dict(config), sort_keys=True) + "\n")
    for note in notes:
        fh.write(f"# {note}\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def _json_envelope(config: Mapping | None, **fields) -> str:
    """The one JSON layout: ``version`` and ``config`` beside ``fields``,
    keys sorted, indented by 2."""
    payload = {"version": __version__, "config": dict(config) if config is not None else None}
    return json.dumps({**payload, **fields}, sort_keys=True, indent=2)


def report_rows(report: ProgressReport) -> list[dict]:
    """The rows of one report, keyed by `REPORT_CSV_COLUMNS`, for both formats."""
    mean = report.success_mean
    low = report.success_min
    return [
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
        for i, k in enumerate(report.k)
    ]


def sweep_rows(result: SweepResult) -> list[dict]:
    """The rows of a sweep, keyed by `SWEEP_CSV_COLUMNS`, for both formats."""
    return [
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
        for row in result.rows
    ]


def write_report_csv(
    reports: ProgressReport | Iterable[ProgressReport],
    fh: TextIO,
    *,
    config: Mapping | None = None,
) -> None:
    if isinstance(reports, ProgressReport):
        reports = [reports]
    rows = (row for report in reports for row in report_rows(report))
    _write_csv(fh, config, REPORT_CSV_COLUMNS, rows)


def write_sweep_csv(result: SweepResult, fh: TextIO, *, config: Mapping | None = None) -> None:
    exponents = {stat: result.exponent(stat) for stat in ("crossing", "peak")}
    notes = [f"exponent_{s}: {'n/a' if e is None else _fmt(e)}" for s, e in exponents.items()]
    _write_csv(fh, config, SWEEP_CSV_COLUMNS, sweep_rows(result), notes)


def reports_to_json(
    reports: ProgressReport | Iterable[ProgressReport],
    *,
    config: Mapping | None = None,
) -> str:
    if isinstance(reports, ProgressReport):
        reports = [reports]
    return _json_envelope(config, reports=[
        {"model": r.descriptor, "strategy": r.strategy, "seed": r.seed, "rows": report_rows(r)}
        for r in reports
    ])


def sweep_to_json(result: SweepResult, *, config: Mapping | None = None) -> str:
    return _json_envelope(
        config,
        # the success criterion of every crossing (see ProgressReport)
        mode="per-item",
        threshold=0.5,
        exponent_crossing=result.exponent("crossing"),
        exponent_peak=result.exponent("peak"),
        rows=sweep_rows(result),
    )
