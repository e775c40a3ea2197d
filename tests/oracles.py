"""Exhaustive reference solvers that the tests compare the package against."""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np


@dataclass(frozen=True)
class OracleFit:
    """The best K-subset of columns and the residual norm of its fit."""

    support: np.ndarray
    residual_norm: float


def brute_force_support(A: np.ndarray, b: np.ndarray, k: int) -> OracleFit:
    """Exhaustive oracle: least-squares fit of every K-subset of columns.

    Ties break toward the lexicographically first subset.  Refuses instances
    with more than 1e6 candidate subsets.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    n = A.shape[1]
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    if math.comb(n, k) > 1_000_000:
        raise ValueError(f"C({n}, {k}) exceeds the 1e6 subset budget")
    best_res = math.inf
    best: tuple[int, ...] | None = None
    for subset in combinations(range(n), k):
        x, _, _, _ = np.linalg.lstsq(A[:, subset], b, rcond=None)
        res = float(np.linalg.norm(b - A[:, subset] @ x))
        if res < best_res:
            best_res = res
            best = subset
    assert best is not None
    return OracleFit(support=np.array(best), residual_norm=best_res)
