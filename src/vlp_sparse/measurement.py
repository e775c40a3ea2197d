"""Cooperative measurement synthesis.

Targets dither their retransmissions with i.i.d. +/-1 signs per snapshot, so
cross terms between distinct targets average out and the empirical power and
correlation estimators converge to their ideal (expectation) models:

    power:       p_i   -> sum_k g_ik^2 + noise_variance
    correlation: c_ij  -> sum_k g_ik g_jk   (+ noise_variance when i == j)

Ideal synthesis works on grid-cell fingerprints; snapshot synthesis works on
per-target gains taken at the true continuous positions, which injects the
off-grid mismatch a real deployment would see.

Both snapshot estimators read one sum ``sum_l y_l y_l^T``, and
``_second_moment`` alone picks how it is drawn.  Up to
``_EXPLICIT_MAX_SNAPSHOTS`` snapshots it is accumulated from drawn samples;
beyond, it is drawn from its sufficient statistics (the dither Gram matrix,
a Gaussian projection and a Wishart remainder).  The Gram matrix comes from
the counts of the 2^(K-1) sign patterns, one multinomial draw costing
O(2^(K-1) K^2) whatever L, while ``2^(K-1) <= max(256, ceil(L / 64))``, and
from packed sign words costing O(K^2 L / 64) beyond.  The samplers, and the
two Gram draws, have the same distribution, not the same draws.

The ``dither`` argument of the snapshot samplers is the int seed of the
+/-1 sequences.  Each draw restarts its stream as ``PCG64(dither)``, so a
power and a correlation draw from one seed see the same signs; a live
``Generator`` raises ``TypeError`` rather than being consumed.
"""

from __future__ import annotations

import functools

import numpy as np

from .channel import PairIndexMap

# largest L sampled explicitly (median call over fresh seeds, K = 1..8,
# M = 16, 2-vCPU Xeon, one BLAS thread, three rounds, explicit against
# statistics with _second_moment's Gram draw: 0.037-0.054 against
# 0.054-0.12 ms at L = 64, 0.052-0.057 against 0.052-0.075 at 128,
# 0.067-0.076 against 0.053-0.074 at 192, 0.085-0.12 against 0.053-0.11
# at 256); they cross between L = 128 and 192, and 256 is kept because
# moving it changes draws
_EXPLICIT_MAX_SNAPSHOTS = 256
# packed dither words per Gram block, 32 KiB per row (median _packed_gram
# over fresh seeds at L = 10^6, 2-vCPU Xeon: K = 8 took 2.2 / 1.66 / 1.58 ms
# and K = 10 3.2 / 2.41 / 2.30 ms at 2048 / 4096 / 8192 words; K = 13 and
# 16 were within noise at 4096 and 8192, so the smaller temporaries win)
_GRAM_BLOCK_WORDS = 4096

def indicator_from_cells(cells, n: int) -> np.ndarray:
    """Binary length-``n`` vector with ones at the given cell indices."""
    cells = np.asarray(cells, dtype=int)
    if cells.size == 0:
        raise ValueError("need at least one occupied cell")
    ordered = np.sort(cells, axis=None)
    if ordered[0] < 0 or ordered[-1] >= n:
        raise ValueError("cell index out of range")
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("duplicate cells: indicator entries are binary")
    indicator = np.zeros(n)
    indicator[cells] = 1.0
    return indicator


def synthesize_ideal_power(power_fp: np.ndarray, indicator: np.ndarray,
                           noise_variance: float) -> np.ndarray:
    """Expectation power measurement: fingerprint columns summed plus the noise floor."""
    return power_fp @ indicator + noise_variance


def synthesize_ideal_correlation(corr_fp: np.ndarray, indicator: np.ndarray,
                                 noise_variance: float,
                                 pairs: PairIndexMap) -> np.ndarray:
    """Expectation correlation measurement; the noise floor lands on i == j rows only."""
    values = corr_fp @ indicator
    values[pairs.diagonal_rows] += noise_variance
    return values


def _explicit_second_moment(target_gains: np.ndarray, noise_variance: float,
                            snapshots: int, dither: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Reference sampler: ``sum_l y_l y_l^T`` accumulated over drawn snapshots.

    Sample ``y_i(l) = sum_k s_k(l) g_ik + w_i(l)`` with dither signs seeded
    by ``dither`` and AWGN from ``rng``, all L snapshots in one block (it
    serves only L up to ``_EXPLICIT_MAX_SNAPSHOTS``).  Costs O(L (K + M) M).
    """
    n_anchors, k = target_gains.shape
    signs = np.random.Generator(np.random.PCG64(dither)).integers(
        0, 2, size=(snapshots, k)) * 2.0 - 1.0
    samples = signs @ target_gains.T
    if noise_variance > 0.0:
        samples += rng.normal(0.0, float(np.sqrt(noise_variance)),
                              size=(snapshots, n_anchors))
    return samples.T @ samples


def _packed_gram(dither: int, k: int, snapshots: int) -> np.ndarray:
    """Exact Gram matrix ``S^T S`` of K +/-1 sequences of length L.

    Each sequence is drawn as packed 64-bit words (a set bit is +1), the
    bits past L masked off; two sequences agree except where their bits
    differ, so ``C_ab = L - 2 popcount(x_a XOR x_b)`` and ``C_aa = L``.
    Only the row pairs a < b are counted, over blocks of
    ``_GRAM_BLOCK_WORDS`` words, and mirrored once at the end.  The largest
    temporary is row a XORed with the rows below it: at most (K - 1)
    blocks of words, plus one byte of count per word.
    """
    words = -(-snapshots // 64)
    bits = np.random.Generator(np.random.PCG64(dither)).integers(
        0, 1 << 64, size=(k, words), dtype=np.uint64)
    bits[:, -1] &= np.uint64((1 << (snapshots - 64 * (words - 1))) - 1)
    differ = np.zeros((k, k))
    for start in range(0, words, _GRAM_BLOCK_WORDS):
        block = bits[:, start:start + _GRAM_BLOCK_WORDS]
        for a in range(k - 1):
            differ[a, a + 1:] += np.bitwise_count(
                block[a] ^ block[a + 1:]).sum(axis=1)
    return snapshots - 2.0 * (differ + differ.T)


@functools.cache
def _sign_patterns(k: int) -> np.ndarray:
    """(K, 2^(K-1)) table of every +/-1 column with first sign +1; column p
    holds the bits of p (a set bit is -1) in rows 1..K-1.  Built once per K
    and read-only; ``_second_moment`` asks for it only while it has at most
    256 columns, or one per packed sign word."""
    signs = np.ones((k, 1 << (k - 1)))
    for row in range(1, k):
        signs[row].reshape(-1, 2, 1 << (row - 1))[:, 1] = -1.0
    signs.setflags(write=False)
    return signs


def _pattern_gram(dither: int, k: int, snapshots: int) -> np.ndarray:
    """The same Gram matrix, drawn from how many of the L snapshots carry
    each sign pattern.

    A snapshot's signs s and -s give the same outer product, so with the
    first sign folded to +1 the 2^(K-1) patterns are equally likely and
    their counts are one ``Multinomial(L, uniform)`` draw (the method of
    types).  ``S^T S`` sums ``count * s s^T`` over the patterns: integers
    below 2^53, so exact in float64, symmetric, with diagonal L.
    """
    signs = _sign_patterns(k)
    patterns = signs.shape[1]
    counts = np.random.Generator(np.random.PCG64(dither)).multinomial(
        snapshots, np.full(patterns, 1.0 / patterns))
    return (signs * counts) @ signs.T


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
                              snapshots: int, gram: np.ndarray,
                              rng: np.random.Generator) -> np.ndarray:
    """``sum_l y_l y_l^T`` drawn from its sufficient statistics, not snapshots.

    With dither matrix S (L, K) and noise W (L, M), write ``S = U R`` with U
    (L, r) orthonormal and ``R^T R = S^T S``, r the rank.  The sum is then
    ``(R G^T + Z)^T (R G^T + Z) + W^T (I - U U^T) W`` where ``Z = U^T W``
    has i.i.d. N(0, sigma^2) entries, independent of the last term, which is
    sigma^2 times a Wishart(L - r, I_M) draw.  ``gram`` is ``S^T S``, drawn
    by the caller; after it the cost is O(K^3 + K M^2 + M^3).
    """
    n_anchors, k = target_gains.shape
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > evals[-1] * k * np.finfo(float).eps  # matrix_rank's tolerance
    signal = (np.sqrt(evals[keep])[:, None] * evecs[:, keep].T) @ target_gains.T
    if noise_variance <= 0.0:
        return signal.T @ signal
    signal += rng.normal(0.0, float(np.sqrt(noise_variance)), size=signal.shape)
    rest = _wishart_identity(snapshots - signal.shape[0], n_anchors, rng)
    return signal.T @ signal + noise_variance * rest


def _second_moment(target_gains: np.ndarray, noise_variance: float,
                   snapshots: int, dither: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(M, M) sum of ``y_l y_l^T`` over L snapshots; the one place that
    picks its draw.  ``dither`` seeds the +/-1 sequences, restarted by every
    draw; ``rng`` draws the noise."""
    if snapshots < 1:
        raise ValueError("snapshot synthesis needs snapshots >= 1")
    if snapshots <= _EXPLICIT_MAX_SNAPSHOTS:
        return _explicit_second_moment(target_gains, noise_variance, snapshots,
                                       dither, rng)
    k = target_gains.shape[1]
    # pattern counts up to 256 patterns, or one per packed word beyond;
    # median call over fresh seeds (M = 16, 2-vCPU Xeon, one BLAS thread),
    # pattern against packed: K = 5..9, L = 257..1000 0.06-0.12 against
    # 0.09-0.18 ms; K = 9, L = 10^4 0.10 against 0.13 ms; K = 10, L = 10^4
    # 0.17-0.18 against 0.14 ms (at L <= 1000 0.10 against 0.12 ms, and at
    # L = 2.5-3.2 x 10^4 0.13 against 0.15-0.16 ms in the best rounds: there
    # the rule takes the slower draw); K = 12, L = 10^5 0.34-0.53 against
    # 0.31 ms; K = 8, L = 10^6 0.08 against 0.96-0.98 ms; K = 15, L = 10^6
    # 2.66-2.73 against 2.58-2.62 ms
    pattern = 2 ** (k - 1) <= max(256, -(-snapshots // 64))
    gram = (_pattern_gram if pattern else _packed_gram)(dither, k, snapshots)
    return _statistics_second_moment(target_gains, noise_variance, snapshots,
                                     gram, rng)


def synthesize_snapshot_power(target_gains: np.ndarray, noise_variance: float,
                              snapshots: int, dither: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Empirical per-anchor power: mean of squared aggregated samples.

    ``target_gains`` is (M, K), one column of gains per target at its true
    position; ``dither`` is the int seed of their sign sequences, restarted
    by each draw.  Converges to the ideal power model as snapshots grow.
    Equals, bit for bit, the diagonal of the correlation matrix from the
    same seeds.
    """
    acc = _second_moment(target_gains, noise_variance, snapshots, dither, rng)
    return np.diagonal(acc) / snapshots


def synthesize_snapshot_correlation(target_gains: np.ndarray, noise_variance: float,
                                    snapshots: int, dither: int,
                                    rng: np.random.Generator,
                                    pairs: PairIndexMap) -> np.ndarray:
    """Empirical anchor-pair correlations, selected to the i <= j rows.

    Reads the upper triangle of the symmetric sample correlation matrix
    through the pair map.  ``dither`` is the int seed of the sign
    sequences, restarted by each draw.
    """
    acc = _second_moment(target_gains, noise_variance, snapshots, dither, rng)
    return acc[pairs.first, pairs.second] / snapshots


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


def remove_noise_floor(values: np.ndarray, noise_variance: float,
                       pairs: PairIndexMap | None = None) -> np.ndarray:
    """A new array: ``values`` less the noise floor, clamped at zero.

    Without ``pairs`` the floor comes off every entry (powers, (M,) or
    (M, K)); with them, off the diagonal-pair rows only (correlations:
    independent noise has no cross floor).
    """
    values = np.array(values, dtype=float)
    if pairs is None:
        values -= noise_variance
    elif len(pairs.first) != len(values):
        raise ValueError("pair map does not match the measurement length")
    else:
        values[pairs.diagonal_rows] -= noise_variance
    np.maximum(values, 0.0, out=values)
    return values
