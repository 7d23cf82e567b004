"""Dense references that the tests compare the library against.

None of these is on a run path of the library: `hoisearch.search.run_experiment`
takes the closed forms for ``grover`` and ``reflect``, and the oracles and
the interference order read the layout tables directly. Each reference
computes the same quantity by a second, literal route:

* `grover_schedule` and `reflection_schedule` step a `run_search` batch, the
  dense simulation that both closed-form reports are checked against;
* `embed_density` and `unembed_density` map Hermitian N x N matrices to the
  quantum model's sector coordinates and back, the map that defines those
  coordinates (the library holds only the coordinates);
* `lift_superoperator` and `lift_unitary_conjugation` build the (M, M) matrix
  of a quantum map, one coordinate at a time, and `conjugate_rows` is their
  batch form;
* `random_step` is the Haar step of `hoisearch.search.random_schedule`
  through an explicit orthonormal basis of the batch's span, which the
  library's step never forms;
* `sector_tables` builds `SectorSpace.members` and `SectorSpace.owner` from
  one `SlitSet` per sector of `enumerate_sectors`, `block_offsets` lays the
  blocks out by cumulative widths in sector order and `density_index` places
  the quantum layout's entries by those offsets: second routes to the tables
  that `SectorSpace` builds from index arrays, and to `quantum_index`, the
  placement the embedding reads off `SectorSpace.owner`;
* `coherence_projector` is one block's `(M,)` indicator, looked up by its
  sector;
* `slit_projector` is the `(M,)` diagonal of "block every slit outside this
  subset", read from `SectorSpace.members`; `slit_projector_from_subsets`
  builds it block by block over the open set's subsets,
  `coherence_from_slit_projectors` builds a coherence block from its
  inclusion-exclusion expansion over slit projectors,
  `interference_order_from_subsets` sums a slit projector per subset of
  `identity_decomposition` at each order, the literal route to
  `hoisearch.models.interference_order`'s per-block-size sum, and
  `formal_sum` adds such subset -> coefficient expansions term by term;
* `verify_oracle` checks a candidate oracle given as its (M, M) matrix
  against the oracle axioms, with the Gram product for orthogonality, and
  `dense_completeness_defect` / `dense_orthogonality_defects` check an
  (S, M) family of block diagonals (`projector_family`), which may be any
  array: the dense forms of `hoisearch verify`'s structured rows;
* `exact_reflection_fields` and `exact_grover_fields` compute the fields of
  the two closed-form reports in exact rational arithmetic, from Chebyshev
  recurrences in the rational cosine of the rotation angle;
* `write_report_csv`, `write_sweep_csv`, `reports_to_json` and
  `sweep_to_json` are the four writers as each spelled out its own header,
  column line, row loop or JSON envelope, the bytes that the one CSV writer
  and the one JSON envelope of `hoisearch.search` must reproduce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Mapping, TextIO

import numpy as np

from hoisearch._version import __version__
from hoisearch.models import (
    DEFAULT_TOL,
    Model,
    NumericError,
    SectorSpace,
    haar_orthogonal,
)
from hoisearch.search import (
    REPORT_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    ProgressReport,
    Schedule,
    SweepResult,
)
from hoisearch.subsets import SlitSet, coherence_expansion, enumerate_sectors, identity_decomposition


def quantum_index(model: Model) -> tuple[np.ndarray, ...]:
    """``(diag, rows, cols, pair)`` of the quantum layout, read off
    `SectorSpace.owner`: rho_ii sits at coordinate ``diag[i]``; for the p-th
    pair ``rows[p] < cols[p]``, in sector order (that of `np.triu_indices`),
    the sqrt(2)-scaled Re and Im parts sit at ``pair[p]`` and ``pair[p] + 1``.
    Builds no ``(S, N)`` table, so it reaches N in the thousands."""
    if model.kind != "quantum":
        raise ValueError(f"operation requires the quantum model, got {model.kind!r}")
    n, owner = model.n_slits, model.space.owner
    starts = np.searchsorted(owner, np.arange(owner[-1] + 1))
    rows, cols = np.triu_indices(n, 1)
    return starts[:n], rows, cols, starts[n:]


def embed_density(model: Model, rho: np.ndarray) -> np.ndarray:
    """Sector coordinates of Hermitian matrices, shape (..., N, N) -> (..., M)."""
    diag, rows, cols, pair = quantum_index(model)
    n = model.n_slits
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (n, n):
        raise ValueError(f"matrix has shape {rho.shape}, expected (..., {n}, {n})")
    coords = np.empty(rho.shape[:-2] + (model.space.total_dim,))
    coords[..., diag] = rho[..., np.arange(n), np.arange(n)].real
    upper = rho[..., rows, cols]
    coords[..., pair] = np.sqrt(2.0) * upper.real
    coords[..., pair + 1] = np.sqrt(2.0) * upper.imag
    return coords


def unembed_density(model: Model, coords: np.ndarray) -> np.ndarray:
    """Inverse of `embed_density`: Hermitian matrices, shape (..., M) -> (..., N, N)."""
    diag, rows, cols, pair = quantum_index(model)
    n = model.n_slits
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1:] != (model.space.total_dim,):
        raise ValueError(f"state has shape {coords.shape}, expected (..., {model.space.total_dim})")
    rho = np.zeros(coords.shape[:-1] + (n, n), dtype=complex)
    rho[..., np.arange(n), np.arange(n)] = coords[..., diag]
    upper = (coords[..., pair] + 1j * coords[..., pair + 1]) * (1.0 / np.sqrt(2.0))
    rho[..., rows, cols] = upper
    rho[..., cols, rows] = upper.conj()
    return rho


def random_step(model: Model, seed: int, index: int, rows: np.ndarray) -> np.ndarray:
    """Step ``index`` of ``random_schedule(model, seed)`` on a batch (r, M),
    as ``rows @ qb @ F.T``: ``qb`` the orthonormal basis of the batch's span
    from the reduced QR of ``rows.T``, formed and applied, and ``F`` the Haar
    frame of as many columns drawn from ``(seed, index)``."""
    qb = np.linalg.qr(rows.T)[0]
    rng = np.random.default_rng((int(seed), int(index)))
    return rows @ qb @ haar_orthogonal(model.space.total_dim, rng, qb.shape[1]).T


def lift_superoperator(model: Model, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Lift a Hermitian-matrix map to the quantum model's real coordinates.

    ``fn`` must send Hermitian matrices to Hermitian matrices (projection
    sandwiches and unitary conjugations both qualify); the lift is assembled
    from the images of the coordinate basis, one ``fn`` call per coordinate,
    and returned as its (M, M) matrix.
    """
    images = np.stack([fn(rho) for rho in unembed_density(model, np.eye(model.space.total_dim))])
    return embed_density(model, images).T


def lift_unitary_conjugation(model: Model, unitary: np.ndarray) -> np.ndarray:
    """The real sector-coordinate form of ``rho -> U rho U^dagger``."""
    u = np.asarray(unitary, dtype=complex)
    n = model.space.n_slits
    if u.shape != (n, n):
        raise ValueError(f"unitary has shape {u.shape}, expected ({n}, {n})")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
    if defect > 1e-9:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    u_dag = u.conj().T
    return lift_superoperator(model, lambda rho: u @ rho @ u_dag)


def conjugate_rows(model: Model, unitary: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rho -> U rho U^dagger`` on quantum states stored as rows of shape (r, M).

    The batch form of `lift_unitary_conjugation`, with no M x M matrix. The
    unitary is not checked; `run_search` checks every step for reversibility.
    """
    u = np.asarray(unitary)
    return embed_density(model, u @ unembed_density(model, rows) @ u.conj().T)


def grover_schedule(model: Model) -> Schedule:
    """Every step is the inversion-about-uniform conjugation ``rho -> U rho U^T``."""
    if model.kind != "quantum":
        raise ValueError("the grover strategy is defined on the quantum model only")
    n = model.n_slits
    diffusion = np.full((n, n), 2.0 / n) - np.eye(n)
    return Schedule("grover", lambda _k, rows: conjugate_rows(model, diffusion, rows))


def reflection_schedule(model: Model) -> Schedule:
    """Every step reflects about the model's uniform state s: ``2 s s^t / <s,s> - 1``.

    The generalised diffusion step for models without a native algorithm,
    applied as a rank-1 update. On the quantum model this sector-coordinate
    reflection is not the lift of the amplitude-space diffusion unitary;
    the ``grover`` schedule uses the conjugation instead.
    """
    axis = model.uniform_state
    sq = float(np.dot(axis, axis))
    if sq <= 0.0:
        raise ValueError("cannot reflect about the zero vector")
    return Schedule("reflect", lambda _k, rows: np.outer((2.0 / sq) * (rows @ axis), axis) - rows)


def formal_sum(expansions: Iterable[Mapping[SlitSet, int]]) -> dict[SlitSet, int]:
    """Sum subset -> coefficient expansions, dropping the terms that cancel."""
    total: dict[SlitSet, int] = {}
    for expansion in expansions:
        for subset, coeff in expansion.items():
            total[subset] = total.get(subset, 0) + coeff
    return {subset: coeff for subset, coeff in total.items() if coeff}


def sector_tables(space: SectorSpace) -> tuple[np.ndarray, np.ndarray]:
    """``(members, owner)`` of a layout, read from one `SlitSet` per sector:
    each block's slits, and the block of each coordinate, the blocks
    ``dims_per_size[len(sector)]`` wide in sector order."""
    sectors = enumerate_sectors(space.n_slits, space.order)
    blocks, slits = zip(*((b, i) for b, s in enumerate(sectors) for i in s.members))
    members = np.zeros((len(sectors), space.n_slits), dtype=bool)
    members[blocks, slits] = True
    widths = [space.dims_per_size[len(s)] for s in sectors]
    return members, np.repeat(np.arange(len(sectors)), widths)


def block_offsets(space: SectorSpace) -> dict[SlitSet, int]:
    """First coordinate of each sector's block: the blocks' widths summed in
    sector order. A block is ``dims_per_size[len(sector)]`` coordinates wide."""
    offsets: dict[SlitSet, int] = {}
    total = 0
    for sector in enumerate_sectors(space.n_slits, space.order):
        offsets[sector] = total
        total += space.dims_per_size[len(sector)]
    return offsets


def density_index(space: SectorSpace) -> tuple[np.ndarray, ...]:
    """``(diag, rows, cols, pair)`` of `quantum_index`, placed by
    `block_offsets`: the singleton blocks, then the pair blocks in sector order."""
    offsets = block_offsets(space)
    pairs = [sector for sector in offsets if len(sector) == 2]
    return (
        np.array([offsets[SlitSet((i,), space.n_slits)] for i in range(space.n_slits)]),
        np.array([sector.members[0] for sector in pairs]),
        np.array([sector.members[1] for sector in pairs]),
        np.array([offsets[sector] for sector in pairs]),
    )


def coherence_projector(model: Model, sector: SlitSet) -> np.ndarray:
    """Orthogonal projector onto one coherence block: 1 on the block, 0 elsewhere."""
    sectors = enumerate_sectors(model.n_slits, model.order)
    if sector not in sectors:
        raise ValueError(f"unknown sector {sector!r} for this space")
    return (model.space.owner == sectors.index(sector)).astype(float)


def slit_projector(model: Model, open_slits: SlitSet) -> np.ndarray:
    """Projector implementing "block every slit outside this subset".

    Sum of the coherence blocks that involve no closed slit, read from
    `SectorSpace.members`. The empty subset gives the zero map.
    """
    space = model.space
    if open_slits.universe != space.n_slits:
        raise ValueError(
            f"subset universe {open_slits.universe} does not match the "
            f"model's {space.n_slits} slits"
        )
    is_open = np.zeros(space.n_slits, dtype=bool)
    is_open[list(open_slits.members)] = True
    inside = ~space.members[:, ~is_open].any(axis=1)
    return inside[space.owner].astype(float)


def slit_projector_from_subsets(model: Model, open_slits: SlitSet) -> np.ndarray:
    """A slit projector as the sum of the coherence blocks of every nonempty
    subset of the open slits up to the model order, placed by `block_offsets`.

    The literal route that `slit_projector`'s read of `SectorSpace.members`
    must agree with.
    """
    space = model.space
    offsets = block_offsets(space)
    diag = np.zeros(space.total_dim)
    for sub in open_slits.subsets(max_size=space.order):
        start = offsets[sub]
        diag[start : start + space.dims_per_size[len(sub)]] = 1.0
    return diag


def interference_order_from_subsets(model: Model, *, tol: float = DEFAULT_TOL) -> int:
    """`interference_order` as the literal sum: at each order h', the slit
    projector of every subset in `identity_decomposition(h', N)` times its
    coefficient, until the sum is the identity."""
    space = model.space
    n = space.n_slits
    for candidate in range(1, n + 1):
        diag = np.zeros(space.total_dim)
        for subset, coeff in identity_decomposition(candidate, n).items():
            diag += coeff * slit_projector(model, subset)
        if float(np.max(np.abs(diag - 1.0))) < tol:
            return candidate
    raise NumericError("the identity decomposition never closes; corrupt model?")


def coherence_from_slit_projectors(model: Model, sector: SlitSet) -> np.ndarray:
    """Instantiate a coherence block from its formal slit-projector expansion.

    This is the inclusion-exclusion route; it must agree with
    `coherence_projector` on every sector and is tested as an invariant
    rather than assumed.
    """
    expansion = coherence_expansion(sector)
    diag = np.zeros(model.space.total_dim)
    for subset, coeff in expansion.items():
        diag += coeff * slit_projector(model, subset)
    return diag


@dataclass(frozen=True)
class OracleCheck:
    """Per-condition deviations of a candidate oracle map.

    ``fixed_sector_defect`` covers the sectors the map must leave untouched
    (marked slit absent, or singleton); ``commutation_defect`` covers
    commutation with every sector projector; ``orthogonality_defect`` is the
    norm-preservation proxy.
    """

    marked: int
    fixed_sector_defect: float
    commutation_defect: float
    orthogonality_defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.fixed_sector_defect < self.tol
            and self.commutation_defect < self.tol
            and self.orthogonality_defect < self.tol
        )


def verify_oracle(
    model: Model, candidate: np.ndarray, marked: int, *, tol: float = DEFAULT_TOL
) -> OracleCheck:
    """Check a map, given as its (M, M) matrix in sector coordinates, against
    the search-oracle conditions for one marked item.

    Conditions are checked on the coherence blocks, which span every slit
    projector: (a) blocks not involving the marked slit, and singleton
    blocks, must be fixed; (b) the map must commute with every block
    projector; (c) the map must preserve the norm (orthogonality). The
    fixed blocks are read from the sectors, not from any oracle.
    """
    space = model.space
    m = space.total_dim
    if not 0 <= marked < space.n_slits:
        raise ValueError(f"marked item {marked} out of range 0..{space.n_slits - 1}")
    mat = np.asarray(candidate, dtype=float)
    if mat.shape != (m, m):
        raise ValueError(f"candidate has shape {mat.shape}, expected ({m}, {m})")
    sectors = enumerate_sectors(space.n_slits, space.order)
    fixed_blocks = np.array([marked not in s or len(s) == 1 for s in sectors])
    fixed = np.flatnonzero(fixed_blocks[space.owner])
    owner = space.owner
    # the commutator with a block projector is exactly the entries that join
    # that block to another, so the worst block's is the largest such entry
    commute_defect = np.max(np.abs(mat), where=owner[:, None] != owner[None, :], initial=0.0)
    moved = mat[:, fixed]
    moved[fixed, np.arange(fixed.size)] -= 1.0
    fix_defect = np.max(np.abs(moved), initial=0.0)
    gram = mat.T @ mat
    gram.flat[:: m + 1] -= 1.0
    return OracleCheck(
        marked=marked,
        fixed_sector_defect=float(fix_defect),
        commutation_defect=float(commute_defect),
        orthogonality_defect=float(np.max(np.abs(gram))),
        tol=tol,
    )


def projector_family(model: Model, projectors: np.ndarray | None = None) -> np.ndarray:
    """The (S, M) stack of block diagonals, one row per sector: the model's
    own coherence projectors by default, else ``projectors`` after a shape check."""
    if projectors is None:
        space = model.space
        return (space.owner == np.arange(len(space.members))[:, None]).astype(float)
    family = np.asarray(projectors, dtype=float)
    expected = (len(model.space.members), model.space.total_dim)
    if family.shape != expected:
        raise ValueError(
            f"expected {expected[0]} projectors of {expected[1]} coordinates, "
            f"got shape {family.shape}"
        )
    return family


def dense_completeness_defect(model: Model, projectors: np.ndarray | None = None) -> float:
    """Max-abs deviation of the summed coherence blocks from the identity,
    for the family `projector_family` gives."""
    family = projector_family(model, projectors)
    return float(np.max(np.abs(family.sum(axis=0) - 1.0)))


def dense_orthogonality_defects(
    model: Model, projectors: np.ndarray | None = None
) -> tuple[float, float]:
    """(pairwise product defect, Pythagoras defect) of the family
    `projector_family` gives.

    The first number is the largest entry of ``w_i w_j - delta_ij w_i`` over
    all block pairs; the second is the largest deviation of the blockwise
    norm-squared sum from the total, over 100 seeded random vectors.
    """
    diags = projector_family(model, projectors)
    vecs = np.random.default_rng(20240).standard_normal((100, model.space.total_dim))
    # max |w_i w_j - delta_ij w_i| without the (S, S, M) products: off the
    # diagonal it is the two largest |w| at a coordinate multiplied, the same
    # float as the largest rounded product since |a b| = |a| |b| and rounding
    # is monotone; a NaN entry makes both terms NaN
    pair_defect = np.max(np.abs(diags * diags - diags))
    if len(diags) > 1:
        top = np.partition(np.abs(diags), -2, axis=0)[-2:]
        pair_defect = np.maximum(pair_defect, np.max(top[0] * top[1]))
    block_sq = (vecs**2) @ (diags**2).T  # (vectors, S)
    pyth_defect = float(np.max(np.abs(block_sq.sum(axis=1) - (vecs**2).sum(axis=1))))
    return float(pair_defect), pyth_defect


def _chebyshev(c: Fraction, first: Fraction, count: int) -> list[Fraction]:
    """``P_0 .. P_{count-1}`` of ``P_0 = 1``, ``P_1 = first``,
    ``P_{k+1} = 2 c P_k - P_{k-1}``: the first kind T for ``first = c``, the
    third kind V for ``first = 2 c - 1``."""
    seq = [Fraction(1), first]
    while len(seq) < count:
        seq.append(2 * c * seq[-1] - seq[-2])
    return seq[:count]


def exact_reflection_fields(kind: str, n: int, order: int, k_max: int) -> dict[str, list[Fraction]]:
    """The fields of a ``reflect`` report, exactly.

    The uniform state's squared norm on one sector of size t is ``w_1 = 1/N^2``,
    and ``w_2 = 2/N^2`` on the quantum pairs, or the leftover ``1 - 1/N``
    spread evenly over the synthetic higher sectors. With ``sigma`` the
    squared norm and ``beta`` the weight on the blocks one oracle flips, the
    step turns by ``2 phi`` with ``c = cos 2 phi = 1 - 2 beta / sigma``:
    success ``V_k(c) / N``, ``D_k = 2 N sigma (1 - T_k(c))``,
    ``E_k = N (sigma + 1 - 2 success_k)`` and ``F_k = N (sigma + 1 - 2 / N)``.
    """
    weights = {1: Fraction(1, n * n)}
    if kind == "quantum":
        weights[2] = Fraction(2, n * n)
    elif kind == "synthetic" and order > 1:
        higher = sum(comb(n, t) for t in range(2, order + 1))
        weights.update({t: (1 - Fraction(1, n)) / higher for t in range(2, order + 1)})
    sigma = sum(comb(n, t) * w for t, w in weights.items())
    beta = sum(comb(n - 1, t - 1) * w for t, w in weights.items() if t > 1)
    c = 1 - 2 * beta / sigma
    success = [v / n for v in _chebyshev(c, 2 * c - 1, k_max + 1)]
    return {
        "success": success,
        "divergence": [2 * n * sigma * (1 - t) for t in _chebyshev(c, c, k_max + 1)],
        "gap_with_oracle": [n * (sigma + 1 - 2 * p) for p in success],
        "gap_without_oracle": [n * (sigma + 1 - Fraction(2, n))] * (k_max + 1),
    }


def exact_grover_fields(n: int, k_max: int) -> dict[str, list[Fraction]]:
    """The fields of a quantum ``grover`` report, exactly.

    With ``sin^2 t = 1/N`` and ``c = cos 2t = 1 - 2/N``: success
    ``(1 - T_{2k+1}(c)) / 2``, ``D_k = N (1 - T_{2k}(c))``,
    ``E_k = N (1 + T_{2k+1}(c))`` and ``F_k = 2 (N - 1)``.
    """
    c = 1 - Fraction(2, n)
    t = _chebyshev(c, c, 2 * k_max + 2)
    return {
        "success": [(1 - t[2 * k + 1]) / 2 for k in range(k_max + 1)],
        "divergence": [n * (1 - t[2 * k]) for k in range(k_max + 1)],
        "gap_with_oracle": [n * (1 + t[2 * k + 1]) for k in range(k_max + 1)],
        "gap_without_oracle": [Fraction(2 * (n - 1))] * (k_max + 1),
    }


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
