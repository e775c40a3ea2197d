"""Sparse recovery solvers and the grid localization pipelines.

Measurements are modeled as ``b = A theta`` with ``theta`` a binary K-sparse
cell indicator and ``A`` one of the fingerprint matrices; ``b`` is the
measurement with its noise floor already removed.  ``locate_csm`` and
``locate_cocsm`` return the support, the (K,) occupied cells; target
positions are their centers, ``grid.centers_of(cells)``.  Greedy selection
always correlates against unit-normalized columns because fingerprint
column energies vary by orders of magnitude across the room, which would
otherwise bias selection toward cells under anchors.  Ties break toward
the lowest index everywhere.  A solve returns the support and its
iteration count, not coefficients or a residual.

The ``omp`` solver, the default, needs numpy only.  It picks from rows of
the Gram matrix of the unit columns, which a :class:`Dictionary` computes
on first use and keeps, so a scene's dictionaries warm up over its trials.  The ``nnls`` solver
uses the indicator's sign: nonnegative least squares finds the support
where greedy pursuit, misled by the large component all (positive) columns
share, picks cells between targets.  ``refine_off_grid`` then fits the K
positions off the grid against the continuous gain model and returns them
as a (K, 2) array; the support is the cells that contain them.  Both steps
import ``scipy.optimize`` where they call it, so that a process running
``omp`` never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import GainModel, PairIndexMap
from .scenario import SOLVERS, GridModel

_EPS = np.finfo(float).eps
GRAM_CACHE_ENTRIES = 2 ** 20  # Gram-row entries a Dictionary keeps: 8 MiB


@dataclass(frozen=True)
class SparseSolution:
    """Support and iteration count of a sparse solve."""

    support: np.ndarray  # int indices; OMP keeps selection order
    iterations: int


@dataclass(frozen=True)
class RecoveryAdvisory:
    """How the equation count compares against ``K * ln(N / K)``."""

    threshold: float
    ratio: float
    flagged: bool


@dataclass(frozen=True, eq=False)
class Dictionary:
    """A dictionary matrix, the read-only column norms its solves read and
    the rows of its unit columns' Gram matrix that ``omp`` has read."""

    matrix: np.ndarray  # (rows, cols), a read-only view
    norms: np.ndarray  # column norms, 1 for zero columns
    inv_norms: np.ndarray  # 1 / norm, 0 for zero columns
    _gram_rows: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, A) -> "Dictionary":
        """``A`` itself if it is one already, else the data of matrix ``A``."""
        if isinstance(A, cls):
            return A
        matrix = np.asarray(A, dtype=float).view()
        norms = np.sqrt(np.einsum("ij,ij->j", matrix, matrix))
        nonzero = norms > 0
        inv_norms = np.divide(1.0, norms, out=np.zeros(norms.size), where=nonzero)
        norms = np.where(nonzero, norms, 1.0)
        for array in (matrix, norms, inv_norms):
            array.setflags(write=False)
        return cls(matrix, norms, inv_norms)

    def gram_row(self, j: int) -> np.ndarray:
        """Row ``j`` of ``U^T U``, U the unit columns (zero columns stay 0),
        read-only.

        Computed on first use and kept while the kept rows hold at most
        ``GRAM_CACHE_ENTRIES`` entries; a row past that is recomputed on
        each use, the same way, so a solve does not depend on what is kept.
        """
        row = self._gram_rows.get(j)
        if row is None:
            row = self.matrix.T @ (self.matrix[:, j] * self.inv_norms[j])
            row *= self.inv_norms
            row.setflags(write=False)
            if (len(self._gram_rows) + 1) * row.size <= GRAM_CACHE_ENTRIES:
                self._gram_rows[j] = row
        return row


def omp(A: np.ndarray | Dictionary, b: np.ndarray, k: int) -> SparseSolution:
    """Orthogonal matching pursuit: exactly ``k`` greedy selections.

    Each pick takes the largest ``|u_j^T r|``, the |correlation| of the
    unit-normalized column ``u_j`` with the residual ``r`` of the
    least-squares fit of ``b`` on the columns picked so far.  The solve is
    batch OMP (Rubinstein, Zibulevsky and Elad 2008): it never forms ``r``.
    It keeps ``alpha = U^T r``, starting from ``(A^T b) / ||a_j||``, and
    ``W = Q^T U``, with ``Q`` the orthonormal basis of the picked columns.
    A pick ``j`` reads row ``j`` of the Gram matrix ``U^T U``
    (:meth:`Dictionary.gram_row`) and updates both:

        u = G[j] - W[:n, j] @ W[:n],   rho = sqrt(u[j]),
        W[n] = u / rho,                alpha -= W[n] * (alpha[j] / rho),

    where ``u[j] = rho^2`` is the squared norm of what remains of ``u_j``
    after projecting out the picked columns.  So a pick costs one pass over
    a Gram row and no least-squares solve; only the support is returned.

    A candidate with ``u[j] <= max(rows, cols) * eps`` lies in the span of
    the picked columns to working precision; it is skipped in favor of the
    next-best column.  This is ``numpy.linalg.lstsq``'s default ``rcond``
    scale, applied to the squared unit remainder: ``u[j]`` is formed as
    ``1 - ||h||^2``, which cancels, so the Gram domain cannot resolve the
    smaller ``rows * eps`` bound on the remainder itself that a
    Gram-Schmidt solve can.
    """
    D = Dictionary.of(A)
    b = np.asarray(b, dtype=float).ravel()
    rows, cols = D.matrix.shape
    if not 1 <= k <= min(rows, cols):
        raise ValueError(f"k={k} must be in [1, min(rows, cols)={min(rows, cols)}]")
    if not D.inv_norms.any():
        raise ValueError("dictionary has no nonzero column")
    if b @ b == 0:
        raise ValueError("zero measurement: support of size k is undefined")

    dependent = max(rows, cols) * _EPS
    alpha = (D.matrix.T @ b) * D.inv_norms  # U^T r
    w = np.empty((k, cols))  # Q^T U, one row per pick
    taken: list[int] = []  # selected or rejected
    selected: list[int] = []
    for n in range(k):
        scores = np.abs(alpha)
        scores[taken] = -1.0
        while True:
            j = int(scores.argmax())  # first maximum: lowest index
            if scores[j] < 0:
                raise ValueError("fewer than k linearly independent columns available")
            taken.append(j)
            scores[j] = -1.0
            u = D.gram_row(j)
            if n:  # the first pick has nothing to project out
                u = u - w[:n, j] @ w[:n]
            if u[j] > dependent:
                break
        rho = math.sqrt(u[j])
        np.divide(u, rho, out=w[n])
        alpha -= w[n] * (alpha[j] / rho)
        selected.append(j)
    return SparseSolution(support=np.array(selected), iterations=len(selected))


def nnls_top_k(A: np.ndarray | Dictionary, b: np.ndarray, k: int) -> SparseSolution:
    """Nonnegative least squares on unit-normalized columns, top ``k`` cells.

    Solves ``min ||A_unit x - b||`` subject to ``x >= 0`` with scipy's
    Lawson-Hanson active-set method, then ranks cells by ``x / ||column||``,
    the coefficient on the raw column (the indicator estimate).  The support
    holds the ``k`` largest in descending order, ties toward the lowest
    index.  Raises ``ValueError`` on a zero measurement or when the active
    set does not settle within scipy's iteration limit.
    """
    D = Dictionary.of(A)
    b = np.asarray(b, dtype=float).ravel()
    cols = D.matrix.shape[1]
    if not 1 <= k <= cols:
        raise ValueError(f"k={k} must be in [1, {cols}]")
    if not D.inv_norms.any():
        raise ValueError("dictionary has no nonzero column")
    if np.linalg.norm(b) == 0:
        raise ValueError("zero measurement: support of size k is undefined")
    import scipy.optimize
    try:
        x, _ = scipy.optimize.nnls(D.matrix / D.norms, b)
    except RuntimeError as exc:  # iteration limit
        raise ValueError(f"nnls: {exc}") from None
    theta = x / D.norms
    support = np.lexsort((np.arange(cols), -theta))[:k]
    # scipy reports no iteration count: one active-set solve
    return SparseSolution(support=support, iterations=1)


def refine_off_grid(xy: np.ndarray, b: np.ndarray, first: np.ndarray,
                    second: np.ndarray, gain_model: GainModel,
                    grid: GridModel) -> np.ndarray:
    """Fit K continuous positions to ``b`` under the exact measurement model.

    Row ``r`` of the model is ``sum_k g_first[r](p_k) g_second[r](p_k)``:
    anchor pairs for correlations, ``first == second`` for powers.  Bounded
    trust-region least squares over the 2K coordinates, confined to the
    floor and started from ``xy`` (K, 2) with the closed-form Jacobian;
    residuals are scaled by ``||b||``.  Returns the refined (K, 2)
    positions.
    """
    import scipy.optimize
    xy = np.asarray(xy, dtype=float)
    k = xy.shape[0]
    scale = float(np.linalg.norm(b))

    def residual(v):
        gains = gain_model.gains(v.reshape(k, 2))
        return (np.sum(gains[first] * gains[second], axis=1) - b) / scale

    def jacobian(v):
        gains, grads = gain_model.gains_and_gradients(v.reshape(k, 2))
        jac = (grads[first] * gains[second][:, :, None]
               + gains[first][:, :, None] * grads[second])
        return jac.reshape(len(first), 2 * k) / scale

    upper = np.tile([grid.nx * grid.pitch, grid.ny * grid.pitch], k)
    fit = scipy.optimize.least_squares(residual, xy.ravel(), jac=jacobian,
                                       bounds=(0.0, upper))
    return fit.x.reshape(k, 2)


def recoverability_advisory(m_eff: int, n: float, k: int) -> RecoveryAdvisory:
    """Compare the equation count against the K * ln(N / K) guideline.

    Purely advisory (the proportionality constant is problem dependent); a
    ratio below 1 flags a likely-undersampled recovery but never blocks it.
    """
    threshold = k * math.log(n / k)
    ratio = m_eff / threshold if threshold > 0 else math.inf
    return RecoveryAdvisory(threshold=threshold, ratio=ratio, flagged=ratio < 1.0)


def _distinct_cells(grid: GridModel, xy: np.ndarray) -> np.ndarray:
    """Containing cells of ``xy`` (K, 2), made distinct.

    Where positions share a cell, the one nearest its center keeps it and
    each other takes the nearest cell not yet taken (ties toward the lowest
    index), so the support always holds K cells.
    """
    cells = grid.cell_of(xy)
    k = len(cells)
    dist = np.linalg.norm(xy[:, None, :] - grid.centers[None], axis=2)
    order = np.lexsort((np.arange(k), dist[np.arange(k), cells]))
    taken = np.zeros(grid.n, dtype=bool)
    displaced = []
    for i in order:
        if taken[cells[i]]:
            displaced.append(i)
        taken[cells[i]] = True
    for i in displaced:
        cells[i] = int(np.argmin(np.where(taken, np.inf, dist[i])))
        taken[cells[i]] = True
    return cells


def _locate(fp: np.ndarray | Dictionary, b: np.ndarray, k: int, grid: GridModel,
            first: np.ndarray, second: np.ndarray, solver: str,
            gain_model: GainModel | None) -> np.ndarray:
    """``omp``'s picks in selection order, or the distinct cells that hold
    the ``nnls`` positions refined off the grid."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver '{solver}'")
    if solver == "nnls" and gain_model is None:
        raise ValueError("the nnls solver needs the continuous gain model")
    fp = Dictionary.of(fp)
    if len(b) != len(fp.matrix):
        raise ValueError(f"measurement has {len(b)} rows, the dictionary "
                         f"{len(fp.matrix)}")
    if solver == "omp":
        return omp(fp, b, k).support
    support = nnls_top_k(fp, b, k).support
    return _distinct_cells(grid, refine_off_grid(grid.centers_of(support), b, first,
                                                 second, gain_model, grid))


def locate_csm(b: np.ndarray, power_fp: np.ndarray | Dictionary, k: int,
               grid: GridModel, solver: str = "omp",
               gain_model: GainModel | None = None) -> np.ndarray:
    """The (K,) support of floor-removed per-anchor powers ``b``.

    ``gain_model`` is used, and required, only by the ``nnls`` solver.
    """
    anchors = np.arange(len(b))
    return _locate(power_fp, b, k, grid, anchors, anchors, solver, gain_model)


def locate_cocsm(b: np.ndarray, corr_fp: np.ndarray | Dictionary, k: int,
                 grid: GridModel, pairs: PairIndexMap, solver: str = "omp",
                 gain_model: GainModel | None = None) -> np.ndarray:
    """The (K,) support of floor-removed anchor-pair correlations ``b``,
    rows in the order of ``pairs``.

    ``gain_model`` is used, and required, only by the ``nnls`` solver.
    """
    return _locate(corr_fp, b, k, grid, pairs.first, pairs.second, solver,
                   gain_model)
