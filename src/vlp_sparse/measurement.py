"""Cooperative measurement synthesis.

Targets dither their retransmissions with i.i.d. +/-1 signs per snapshot, so
cross terms between distinct targets average out and the empirical power and
correlation estimators converge to their ideal (expectation) models:

    power:       p_i   -> sum_k g_ik^2 + noise_variance
    correlation: c_ij  -> sum_k g_ik g_jk   (+ noise_variance when i == j)

Ideal synthesis works on grid-cell fingerprints; snapshot synthesis works on
per-target gains taken at the true continuous positions, which injects the
off-grid mismatch a real deployment would see.

Both snapshot estimators read one sum ``sum_l y_l y_l^T``.  Up to
``_EXPLICIT_MAX_SNAPSHOTS`` snapshots it is accumulated from drawn samples;
beyond, it is drawn from its sufficient statistics (the dither Gram matrix,
a Gaussian projection and a Wishart remainder), whose cost does not grow
with L.  The two samplers have the same distribution, not the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PairIndexMap
from .scenario import TargetSet

# snapshots per accumulation block; fixed so summation order (and therefore
# bit-level results) never depends on the caller
_CHUNK = 1 << 16
# largest L sampled explicitly: where the two samplers' call times cross
# (median over fresh seeds, K = 1..8, M = 16, 2-vCPU Xeon: both ~0.19 ms
# at L = 256; explicit 0.10 ms against 0.14 ms at L = 100, 0.25 against
# 0.23 ms at L = 384)
_EXPLICIT_MAX_SNAPSHOTS = 256

POWER = "power"
CORRELATION = "correlation"


@dataclass(frozen=True)
class MeasurementVector:
    """A synthesized measurement: per-anchor powers or per-pair correlations.

    ``snapshots == 0`` marks the ideal (expectation) model.
    """

    values: np.ndarray
    model: str  # POWER or CORRELATION
    noise_variance: float
    snapshots: int


@dataclass(frozen=True)
class DitherPlan:
    """Seed for the per-target, per-snapshot +/-1 dither sequences.

    Every call to :meth:`generator` restarts the stream, so one plan yields
    identical sign sequences to every synthesis routine that consumes it.
    """

    seed: np.random.SeedSequence

    @classmethod
    def from_seed(cls, seed) -> "DitherPlan":
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        return cls(seed=seed)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))


def indicator_from_cells(cells, n: int) -> np.ndarray:
    """Binary length-``n`` vector with ones at the given cell indices."""
    cells = np.asarray(cells, dtype=int)
    if cells.size == 0:
        raise ValueError("need at least one occupied cell")
    if np.any(cells < 0) or np.any(cells >= n):
        raise ValueError("cell index out of range")
    if np.unique(cells).size != cells.size:
        raise ValueError("duplicate cells: indicator entries are binary")
    indicator = np.zeros(n)
    indicator[cells] = 1.0
    return indicator


def indicator_from_targets(targets: TargetSet, n: int) -> np.ndarray:
    return indicator_from_cells(targets.true_cells, n)


def synthesize_ideal_power(power_fp: np.ndarray, indicator: np.ndarray,
                           noise_variance: float) -> MeasurementVector:
    """Expectation power measurement: fingerprint columns summed plus the noise floor."""
    values = power_fp @ indicator + noise_variance
    return MeasurementVector(values, POWER, noise_variance, snapshots=0)


def synthesize_ideal_correlation(corr_fp: np.ndarray, indicator: np.ndarray,
                                 noise_variance: float,
                                 pairs: PairIndexMap) -> MeasurementVector:
    """Expectation correlation measurement; the noise floor lands on i == j rows only."""
    values = corr_fp @ indicator
    values[pairs.diagonal_rows] += noise_variance
    return MeasurementVector(values, CORRELATION, noise_variance, snapshots=0)


def _explicit_second_moment(target_gains: np.ndarray, noise_variance: float,
                            snapshots: int, dither: DitherPlan,
                            rng: np.random.Generator) -> np.ndarray:
    """Reference sampler: ``sum_l y_l y_l^T`` accumulated over drawn snapshots.

    Sample ``y_i(l) = sum_k s_k(l) g_ik + w_i(l)`` with dither signs from the
    plan and AWGN from ``rng``, in fixed-size chunks so the summation order
    never depends on the caller.  Costs O(L (K + M) M).
    """
    n_anchors, k = target_gains.shape
    sign_rng = dither.generator()
    scale = float(np.sqrt(noise_variance))
    acc = np.zeros((n_anchors, n_anchors))
    for done in range(0, snapshots, _CHUNK):
        size = min(_CHUNK, snapshots - done)
        signs = sign_rng.integers(0, 2, size=(size, k)) * 2.0 - 1.0
        block = signs @ target_gains.T
        if scale > 0.0:
            block += rng.normal(0.0, scale, size=(size, n_anchors))
        acc += block.T @ block
    return acc


def _dither_gram(dither: DitherPlan, k: int, snapshots: int) -> np.ndarray:
    """Exact Gram matrix ``S^T S`` of K +/-1 sequences of length L.

    Each sequence is drawn as packed 64-bit words (a set bit is +1), the
    bits past L masked off; two sequences agree except where their bits
    differ, so ``C_ab = L - 2 popcount(x_a XOR x_b)``.
    """
    words = -(-snapshots // 64)
    bits = dither.generator().integers(0, 1 << 64, size=(k, words),
                                       dtype=np.uint64)
    bits[:, -1] &= np.uint64((1 << (snapshots - 64 * (words - 1))) - 1)
    differ = np.zeros((k, k))
    for start in range(0, words, _CHUNK // 64):
        block = bits[:, start:start + _CHUNK // 64]
        differ += np.bitwise_count(block[:, None] ^ block[None]).sum(axis=2)
    return snapshots - 2.0 * differ


def _wishart_identity(dof: int, dim: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw ``X^T X`` for X (dof, dim) with i.i.d. N(0, 1) entries: Wishart(dof, I).

    Bartlett decomposition (Smith and Hocking 1972, AS 53): ``T T^T`` with T
    lower triangular, ``T_ii^2 ~ chi^2(dof - i)`` and N(0, 1) below the
    diagonal.  Below ``dof = dim`` the law is singular and X is drawn directly.
    """
    if dof < dim:
        x = rng.standard_normal((dof, dim))
        return x.T @ x
    tri = np.tril(rng.standard_normal((dim, dim)), -1)
    np.fill_diagonal(tri, np.sqrt(rng.chisquare(dof - np.arange(dim))))
    return tri @ tri.T


def _statistics_second_moment(target_gains: np.ndarray, noise_variance: float,
                              snapshots: int, dither: DitherPlan,
                              rng: np.random.Generator) -> np.ndarray:
    """``sum_l y_l y_l^T`` drawn from its sufficient statistics, not snapshots.

    With dither matrix S (L, K) and noise W (L, M), write ``S = U R`` with U
    (L, r) orthonormal and ``R^T R = S^T S``, r the rank.  The sum is then
    ``(R G^T + Z)^T (R G^T + Z) + W^T (I - U U^T) W`` where ``Z = U^T W``
    has i.i.d. N(0, sigma^2) entries, independent of the last term, which is
    sigma^2 times a Wishart(L - r, I_M) draw.  Costs O(K^2 L / 64) for the
    dither Gram matrix, and O(K^3 + K M^2 + M^3) after it.
    """
    n_anchors, k = target_gains.shape
    evals, evecs = np.linalg.eigh(_dither_gram(dither, k, snapshots))
    keep = evals > evals[-1] * k * np.finfo(float).eps  # matrix_rank's tolerance
    signal = (np.sqrt(evals[keep])[:, None] * evecs[:, keep].T) @ target_gains.T
    if noise_variance <= 0.0:
        return signal.T @ signal
    signal += rng.normal(0.0, float(np.sqrt(noise_variance)), size=signal.shape)
    rest = _wishart_identity(snapshots - signal.shape[0], n_anchors, rng)
    return signal.T @ signal + noise_variance * rest


def _second_moment(target_gains: np.ndarray, noise_variance: float,
                   snapshots: int, dither: DitherPlan,
                   rng: np.random.Generator) -> np.ndarray:
    """(M, M) sum of ``y_l y_l^T`` over L snapshots; see the two samplers."""
    if snapshots < 1:
        raise ValueError("snapshot synthesis needs snapshots >= 1")
    sampler = (_explicit_second_moment if snapshots <= _EXPLICIT_MAX_SNAPSHOTS
               else _statistics_second_moment)
    return sampler(target_gains, noise_variance, snapshots, dither, rng)


def synthesize_snapshot_power(target_gains: np.ndarray, noise_variance: float,
                              snapshots: int, dither: DitherPlan,
                              rng: np.random.Generator) -> MeasurementVector:
    """Empirical per-anchor power: mean of squared aggregated samples.

    ``target_gains`` is (M, K), one column of gains per target at its true
    position.  Converges to the ideal power model as snapshots grow.  Equals,
    bit for bit, the diagonal of the correlation matrix from the same seeds.
    """
    acc = _second_moment(target_gains, noise_variance, snapshots, dither, rng)
    return MeasurementVector(np.diagonal(acc) / snapshots, POWER,
                             noise_variance, snapshots)


def synthesize_snapshot_correlation(target_gains: np.ndarray, noise_variance: float,
                                    snapshots: int, dither: DitherPlan,
                                    rng: np.random.Generator,
                                    pairs: PairIndexMap) -> MeasurementVector:
    """Empirical anchor-pair correlations, selected to the i <= j rows.

    Reads the upper triangle of the symmetric sample correlation matrix
    through the pair map.
    """
    acc = _second_moment(target_gains, noise_variance, snapshots, dither, rng)
    values = acc[pairs.first, pairs.second] / snapshots
    return MeasurementVector(values, CORRELATION, noise_variance, snapshots)


def synthesize_single_target_powers(target_gains: np.ndarray,
                                    noise_variance: float, snapshots: int,
                                    rng: np.random.Generator) -> np.ndarray:
    """(M, K) per-anchor powers, each target measured alone over L snapshots.

    With one target the dither drops out (``s_l^2 = 1``), so at anchor i
    ``sum_l y_li^2 = sum_l (g_i + v_l)^2`` with ``v_l`` i.i.d. N(0, sigma^2).
    Splitting ``v`` along the unit vector ``1 / sqrt(L)`` and its orthogonal
    complement gives ``(sqrt(L) g_i + z_i)^2 + sigma^2 chi^2(L - 1)`` with
    ``z_i ~ N(0, sigma^2)``, exact for every L >= 1 (``chi^2(0) = 0``) and
    independent across anchors and targets; ``chi^2(n)`` is drawn as
    ``2 Gamma(n / 2)``, which also covers n = 0.  Every target keeps its own
    L-snapshot budget, so K targets spend K L snapshots in all.  Same law as
    :func:`synthesize_snapshot_power` on one target's gains, not the same draws.
    """
    if snapshots < 1:
        raise ValueError("snapshot synthesis needs snapshots >= 1")
    gains = np.asarray(target_gains, dtype=float)
    if noise_variance <= 0.0:
        return gains * gains
    root = np.sqrt(snapshots) * gains
    root += rng.normal(0.0, float(np.sqrt(noise_variance)), size=root.shape)
    rest = 2.0 * rng.standard_gamma((snapshots - 1) / 2.0, size=root.shape)
    return (root * root + noise_variance * rest) / snapshots


def remove_noise_floor(meas: MeasurementVector, noise_variance: float,
                       pairs: PairIndexMap | None = None) -> MeasurementVector:
    """Subtract the calibrated noise floor, clamping at zero.

    Power models carry the floor on every entry, correlation models only on
    their diagonal-pair rows (independent noise has no cross floor).
    """
    values = meas.values.copy()
    if meas.model == POWER:
        values -= noise_variance
    elif meas.model == CORRELATION:
        if pairs is None:
            raise ValueError("correlation floor removal needs the pair map")
        if pairs.n_pairs != values.size:
            raise ValueError("pair map does not match the measurement length")
        values[pairs.diagonal_rows] -= noise_variance
    else:
        raise ValueError(f"unknown measurement model '{meas.model}'")
    np.maximum(values, 0.0, out=values)
    return MeasurementVector(values, meas.model, meas.noise_variance, meas.snapshots)
