"""Dense references that the tests compare the library against.

None of these is on a run path of the library: `hoisearch.search.run_experiment`
takes the closed forms for ``grover`` and ``reflect``, and the projector
functions build their diagonals directly. Each reference computes the same
quantity by a second, literal route:

* `grover_schedule` and `reflection_schedule` step a `run_search` batch, the
  dense simulation that both closed-form reports are checked against;
* `lift_superoperator` and `lift_unitary_conjugation` build the (M, M) matrix
  of a quantum map, one coordinate at a time, and `conjugate_rows` is their
  batch form;
* `coherence_from_slit_projectors` builds a coherence block from its
  inclusion-exclusion expansion over slit projectors.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from hoisearch.models import Model, _embed, _require_quantum, _unembed, slit_projector
from hoisearch.search import Schedule
from hoisearch.subsets import SlitSet, coherence_expansion


def lift_superoperator(model: Model, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Lift a Hermitian-matrix map to the quantum model's real coordinates.

    ``fn`` must send Hermitian matrices to Hermitian matrices (projection
    sandwiches and unitary conjugations both qualify); the lift is assembled
    from the images of the coordinate basis, one ``fn`` call per coordinate,
    and returned as its (M, M) matrix.
    """
    _require_quantum(model)
    space = model.space
    images = np.stack([fn(rho) for rho in _unembed(space, np.eye(space.total_dim))])
    return _embed(space, images).T


def lift_unitary_conjugation(model: Model, unitary: np.ndarray) -> np.ndarray:
    """The real sector-coordinate form of ``rho -> U rho U^dagger``."""
    _require_quantum(model)
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
    _require_quantum(model)
    u = np.asarray(unitary)
    return _embed(model.space, u @ _unembed(model.space, rows) @ u.conj().T)


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
