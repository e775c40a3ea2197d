import numpy as np
import pytest

from vlp_sparse import (SceneConfig,
                        build_scene, gains_to_points, indicator_from_cells,
                        remove_noise_floor, sample_targets, synthesize_ideal_correlation,
                        synthesize_ideal_power,
                        synthesize_snapshot_correlation,
                        synthesize_snapshot_power)
from vlp_sparse.channel import PairIndexMap
from vlp_sparse.measurement import (_EXPLICIT_MAX_SNAPSHOTS, _GRAM_BLOCK_WORDS,
                                    _explicit_second_moment,
                                    _packed_gram, _pattern_gram,
                                    _second_moment, _sign_patterns,
                                    _statistics_second_moment,
                                    _wishart_identity,
                                    synthesize_single_target_powers)

CROSSOVER = _EXPLICIT_MAX_SNAPSHOTS


@pytest.fixture(scope="module")
def scene():
    return build_scene(SceneConfig())


def test_indicator_places_ones_at_cells():
    ind = indicator_from_cells([2, 5], 8)
    np.testing.assert_array_equal(ind, [0, 0, 1, 0, 0, 1, 0, 0])


def test_indicator_single_cell_is_unit_vector():
    np.testing.assert_array_equal(indicator_from_cells([0], 4), [1, 0, 0, 0])


def test_indicator_roundtrip_with_targets(scene):
    _, true_cells = sample_targets(scene.grid, 6, False, np.random.default_rng(0))
    ind = indicator_from_cells(true_cells, scene.grid.n)
    assert set(np.nonzero(ind)[0].tolist()) == set(true_cells.tolist())


def test_indicator_rejects_duplicates_and_range():
    with pytest.raises(ValueError, match="duplicate"):
        indicator_from_cells([1, 1], 4)
    with pytest.raises(ValueError, match="range"):
        indicator_from_cells([4], 4)
    with pytest.raises(ValueError, match="at least one occupied cell"):
        indicator_from_cells([], 4)


def test_noise_floor_removal_needs_a_matching_pair_map():
    with pytest.raises(ValueError, match="pair map does not match"):
        remove_noise_floor(np.ones(3), 0.5, PairIndexMap.for_anchor_count(3))


def test_ideal_power_single_target_is_fingerprint_column(scene):
    ind = indicator_from_cells([7], scene.grid.n)
    meas = synthesize_ideal_power(scene.power_dict.matrix, ind, 0.0)
    np.testing.assert_array_equal(meas, scene.power_dict.matrix[:, 7])
    assert meas.shape == (16,)


def test_ideal_power_is_linear_in_the_indicator(scene):
    ind = indicator_from_cells([2, 5], scene.grid.n)
    power_fp = scene.power_dict.matrix
    meas = synthesize_ideal_power(power_fp, ind, 0.0)
    np.testing.assert_allclose(meas, power_fp[:, 2] + power_fp[:, 5],
                               rtol=1e-15)


def test_ideal_power_noise_floor_term():
    J = np.zeros((3, 4))
    meas = synthesize_ideal_power(J, indicator_from_cells([0], 4), 0.1)
    np.testing.assert_array_equal(meas, [0.1, 0.1, 0.1])


def test_ideal_correlation_two_anchor_noise_floor():
    H = np.array([[3.0], [4.0]])
    psi = H[[0, 0, 1]] * H[[0, 1, 1]]
    pairs = PairIndexMap.for_anchor_count(2)
    meas = synthesize_ideal_correlation(psi, np.array([1.0]), 0.5, pairs)
    np.testing.assert_array_equal(meas, [9.5, 12.0, 16.5])


def test_ideal_correlation_affine_in_disjoint_indicators(scene):
    a = indicator_from_cells([3], scene.grid.n)
    b = indicator_from_cells([250], scene.grid.n)
    s2 = 1e-3
    m_ab = synthesize_ideal_correlation(scene.corr_dict.matrix, a + b, s2, scene.pairs)
    m_a = synthesize_ideal_correlation(scene.corr_dict.matrix, a, s2, scene.pairs)
    m_b = synthesize_ideal_correlation(scene.corr_dict.matrix, b, s2, scene.pairs)
    floor = np.zeros(len(scene.pairs.first))
    floor[scene.pairs.diagonal_rows] = s2
    np.testing.assert_allclose(m_ab, m_a + m_b - floor,
                               rtol=1e-12, atol=1e-20)


def test_snapshot_power_single_target_exact(scene):
    # dither signs square away; no cross terms for K=1
    gains = scene.gains[:, [123]]
    meas = synthesize_snapshot_power(gains, 0.0, 37, 1,
                                     np.random.default_rng(2))
    np.testing.assert_allclose(meas, gains[:, 0] ** 2, rtol=1e-12)


def test_snapshot_power_single_snapshot_has_cross_terms(scene):
    gains = scene.gains[:, [100, 101]]
    ideal = (gains ** 2).sum(axis=1)
    meas = synthesize_snapshot_power(gains, 0.0, 1, 3,
                                     np.random.default_rng(4))
    assert not np.allclose(meas, ideal, rtol=1e-3, atol=0)


def test_snapshot_power_converges_to_ideal(scene):
    _, true_cells = sample_targets(scene.grid, 2, True, np.random.default_rng(5))
    gains = scene.gains[:, true_cells]
    ideal = (gains ** 2).sum(axis=1)
    meas = synthesize_snapshot_power(gains, 0.0, 10 ** 6, 6,
                                     np.random.default_rng(7))
    rel = np.max(np.abs(meas - ideal) / ideal)
    assert rel < 1e-2


def test_snapshot_error_shrinks_with_snapshot_count(scene):
    _, true_cells = sample_targets(scene.grid, 4, True, np.random.default_rng(8))
    gains = scene.gains[:, true_cells]
    ideal_p = (gains ** 2).sum(axis=1)
    cross = gains @ gains.T
    np.fill_diagonal(cross, 0.0)
    # worst-case relative cross-term magnitude per anchor
    peak = np.max(np.abs(cross).sum(axis=1)[np.arange(16)] / ideal_p)
    errors = []
    for snaps in (10 ** 2, 10 ** 4, 10 ** 6):
        meas = synthesize_snapshot_power(gains, 0.0, snaps, 9,
                                         np.random.default_rng(10))
        errors.append(np.max(np.abs(meas - ideal_p) / ideal_p))
    assert errors[0] >= errors[1] >= errors[2]
    for err, snaps in zip(errors, (10 ** 2, 10 ** 4, 10 ** 6)):
        assert err <= 3.0 / np.sqrt(snaps) * peak


def test_snapshot_correlation_single_target_exact_any_length(scene):
    gains = scene.gains[:, [321]]
    meas = synthesize_snapshot_correlation(gains, 0.0, 5, 11,
                                           np.random.default_rng(12),
                                           scene.pairs)
    expected = gains[scene.pairs.first, 0] * gains[scene.pairs.second, 0]
    np.testing.assert_allclose(meas, expected, rtol=1e-12)


def test_snapshot_correlation_converges_to_ideal(scene):
    _, true_cells = sample_targets(scene.grid, 2, True, np.random.default_rng(13))
    ind = indicator_from_cells(true_cells, scene.grid.n)
    ideal = scene.corr_dict.matrix @ ind
    gains = scene.gains[:, true_cells]
    meas = synthesize_snapshot_correlation(gains, 0.0, 10 ** 6, 14,
                                           np.random.default_rng(15),
                                           scene.pairs)
    rel = np.max(np.abs(meas - ideal) / np.abs(ideal))
    assert rel < 1e-2


def test_snapshot_correlation_matches_dense_accumulation(scene):
    # the explicit reference sampler equals the dense symmetric estimate
    gains = scene.gains[:, [10, 60, 200]]
    snaps = 256
    dither, seed = 16, 17
    acc = _explicit_second_moment(gains, 1e-12, snaps, dither,
                                  np.random.default_rng(seed))
    signs = np.random.Generator(np.random.PCG64(dither)).integers(
        0, 2, size=(snaps, 3)) * 2.0 - 1.0
    noise = np.random.default_rng(seed).normal(0.0, np.sqrt(1e-12), (snaps, 16))
    samples = signs @ gains.T + noise
    dense = samples.T @ samples / snaps
    np.testing.assert_allclose(acc / snaps, dense, rtol=1e-12)
    np.testing.assert_allclose(dense, dense.T, rtol=0, atol=0)


def test_snapshot_correlation_off_diagonal_has_no_noise_floor(scene):
    gains = scene.gains[:, [0]]
    s2 = 1e-11
    snaps = 10 ** 6
    meas = synthesize_snapshot_correlation(gains, s2, snaps, 18,
                                           np.random.default_rng(19),
                                           scene.pairs)
    i, j = scene.pairs.first, scene.pairs.second
    expected = gains[i, 0] * gains[j, 0]
    off = i != j
    # cross terms scale as (g_i + g_j) sigma / sqrt(L) + sigma^2 / sqrt(L)
    bound = 5.0 * ((gains[i, 0] + gains[j, 0]) * np.sqrt(s2) + s2) / np.sqrt(snaps)
    assert np.all(np.abs(meas[off] - expected[off]) <= bound[off])


def test_snapshot_synthesis_is_deterministic(scene):
    gains = scene.gains[:, [5, 9]]
    runs = [synthesize_snapshot_power(gains, 1e-12, 1000, 20,
                                      np.random.default_rng(21))
            for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])


def _sample_sums(sampler, gains, noise_variance, snapshots, draws, base):
    """``draws`` independent (M, M) sums, seeds base, base + 1, ..."""
    return np.stack([
        sampler(gains, noise_variance, snapshots, base + 2 * i,
                np.random.default_rng(base + 2 * i + 1))
        for i in range(draws)])


def _statistics_with(draw):
    """The statistics sampler, its Gram matrix drawn by ``draw`` from the dither."""
    def sampler(gains, noise_variance, snapshots, dither, rng):
        gram = draw(dither, gains.shape[1], snapshots)
        return _statistics_second_moment(gains, noise_variance, snapshots,
                                         gram, rng)
    return sampler


def _z_scores(a, b):
    """Two-sample z of the means of per-draw statistics (last axis: stat)."""
    spread = np.sqrt(a.var(axis=0) / len(a) + b.var(axis=0) / len(b))
    return np.abs(a.mean(axis=0) - b.mean(axis=0)) / spread


def _moment_statistics(sums):
    """Per draw: upper-triangle entries, their squared deviations, and the
    product of the (0, 1) and (1, 2) deviations (a cross-entry covariance)."""
    i, j = np.triu_indices(sums.shape[1])
    entries = sums[:, i, j]
    dev = entries - entries.mean(axis=0)
    off = sums[:, 0, 1] - sums[:, 0, 1].mean()
    off2 = sums[:, 1, 2] - sums[:, 1, 2].mean()
    return np.column_stack([entries, dev ** 2, off * off2])


@pytest.mark.parametrize("snapshots,k", [(2, 3), (4, 3), (7, 3), (50, 3),
                                         (CROSSOVER + 1, 3),
                                         (CROSSOVER + 1, 8), (300, 6)])
def test_statistics_sampler_matches_explicit_distribution(snapshots, k):
    # entrywise means and variances and one cross-entry covariance of the
    # sum agree with the explicit reference within sampling error, with the
    # Gram matrix from packed words and from pattern counts alike; L < K
    # makes the dither Gram matrix singular, L = 4 leaves a Wishart
    # remainder of fewer degrees of freedom than anchors
    gains = np.random.default_rng(k).uniform(0.5, 1.5, size=(3, k))
    draws = 4000
    ref = _moment_statistics(_sample_sums(_explicit_second_moment, gains, 1.0,
                                          snapshots, draws, base=0))
    for draw in (_packed_gram, _pattern_gram):
        new = _sample_sums(_statistics_with(draw), gains, 1.0, snapshots,
                           draws, base=10 ** 6)
        z = _z_scores(ref, _moment_statistics(new))
        assert np.all(z < 4.5), (draw.__name__, z)


def test_statistics_sampler_detects_a_wrong_noise_level():
    # the comparison above has the power to see a 10% noise-variance error
    gains = np.random.default_rng(3).uniform(0.5, 1.5, size=(3, 3))
    ref = _sample_sums(_explicit_second_moment, gains, 1.0, 50, 4000, base=0)
    new = _sample_sums(_statistics_with(_packed_gram), gains, 1.1, 50, 4000,
                       base=10 ** 6)
    z = _z_scores(_moment_statistics(ref), _moment_statistics(new))
    assert np.max(z) > 4.5


@pytest.mark.parametrize("snapshots", [1, 64, 100, 128, 1000])
def test_dither_gram_equals_unpacked_sign_products(snapshots):
    dither = 30
    words = -(-snapshots // 64)
    packed = np.random.Generator(np.random.PCG64(dither)).integers(
        0, 1 << 64, size=(4, words), dtype=np.uint64)
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    signs = 2.0 * bits[:, :snapshots] - 1.0
    np.testing.assert_array_equal(_packed_gram(dither, 4, snapshots),
                                  signs @ signs.T)


BLOCK_BITS = 64 * _GRAM_BLOCK_WORDS


@pytest.mark.parametrize("snapshots", [1, 63, BLOCK_BITS - 1, BLOCK_BITS,
                                       BLOCK_BITS + 1, 2 * BLOCK_BITS + 37])
@pytest.mark.parametrize("k", [1, 2, 5, 11])
def test_dither_gram_exact_across_word_blocks(k, snapshots):
    dither = 32
    words = -(-snapshots // 64)
    packed = np.random.Generator(np.random.PCG64(dither)).integers(
        0, 1 << 64, size=(k, words), dtype=np.uint64)
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    signs = 2.0 * bits[:, :snapshots] - 1.0
    gram = _packed_gram(dither, k, snapshots)
    np.testing.assert_array_equal(gram, signs @ signs.T)
    np.testing.assert_array_equal(gram, gram.T)
    np.testing.assert_array_equal(np.diagonal(gram), np.full(k, snapshots))


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_sign_patterns_are_every_sign_column_up_to_negation(k):
    signs = _sign_patterns(k)
    assert signs.shape == (k, 2 ** (k - 1))
    np.testing.assert_array_equal(signs[0], 1.0)
    both = np.hstack([signs, -signs])
    assert np.unique(both, axis=1).shape[1] == 2 ** k


@pytest.mark.parametrize("k", [1, 3, 8])
def test_sign_patterns_are_kept_read_only_and_equal_a_fresh_build(k):
    signs = _sign_patterns(k)
    assert _sign_patterns(k) is signs
    assert not signs.flags.writeable
    np.testing.assert_array_equal(signs, _sign_patterns.__wrapped__(k))


@pytest.mark.parametrize("snapshots,k", [(1, 1), (1, 4), (5, 3), (257, 3),
                                         (10 ** 4, 9), (10 ** 6, 8)])
def test_pattern_gram_is_exact(snapshots, k):
    gram = _pattern_gram(33, k, snapshots)
    np.testing.assert_array_equal(gram, np.round(gram))
    np.testing.assert_array_equal(gram, gram.T)
    np.testing.assert_array_equal(np.diagonal(gram), np.full(k, snapshots))
    assert np.all(np.abs(gram) <= snapshots)
    assert np.all((gram - snapshots) % 2 == 0)  # C_ab = L - 2 (disagreements)


@pytest.mark.parametrize("k,snapshots,draw,other", [
    (6, 300, _pattern_gram, _packed_gram),
    (8, 1000, _pattern_gram, _packed_gram),
    (8, 63 * 64, _pattern_gram, _packed_gram),
    (8, 64 * 64, _pattern_gram, _packed_gram),
    (9, 10 ** 4, _pattern_gram, _packed_gram),
    (10, 10 ** 4, _packed_gram, _pattern_gram),
    (11, 10 ** 5, _pattern_gram, _packed_gram),
    (12, 10 ** 5, _packed_gram, _pattern_gram)])
def test_dither_gram_picks_draw_by_pattern_and_word_count(k, snapshots, draw,
                                                           other):
    # bit for bit: above the explicit range, pattern counts while
    # 2^(K-1) <= max(256, ceil(L / 64)), else packed words
    gains = np.random.default_rng(k).uniform(0.5, 1.5, size=(3, k))
    acc = _second_moment(gains, 1.0, snapshots, 34, np.random.default_rng(35))
    for gram_draw, same in ((draw, True), (other, False)):
        expected = _statistics_second_moment(gains, 1.0, snapshots,
                                             gram_draw(34, k, snapshots),
                                             np.random.default_rng(35))
        assert np.array_equal(acc, expected) is same, gram_draw.__name__


def _exact_off_diagonal_pmf(k, snapshots):
    """Every distinct off-diagonal Gram triple of K x L sign matrices and
    its probability, by enumerating all 2^(K L) of them."""
    codes = np.arange(2 ** (k * snapshots))[:, None] >> np.arange(k * snapshots)
    signs = (1 - 2 * (codes & 1)).reshape(-1, k, snapshots)
    i, j = np.triu_indices(k, 1)
    grams = np.einsum("nal,nbl->nab", signs, signs)[:, i, j]
    cells, counts = np.unique(grams, axis=0, return_counts=True)
    return cells, counts / counts.sum()


def _gram_chi_square(draw, k, snapshots, seeds):
    """Pearson chi^2 of ``seeds`` draws of the off-diagonal Gram entries
    against their exact pmf; also returns the degrees of freedom."""
    cells, pmf = _exact_off_diagonal_pmf(k, snapshots)
    index = {tuple(cell): c for c, cell in enumerate(cells.tolist())}
    i, j = np.triu_indices(k, 1)
    observed = np.zeros(len(cells))
    for seed in range(seeds):
        gram = draw(seed, k, snapshots)
        observed[index[tuple(gram[i, j].astype(int).tolist())]] += 1
    expected = pmf * seeds
    return float(np.sum((observed - expected) ** 2 / expected)), len(cells) - 1


# (K, L) = (3, 5): 56 off-diagonal cells, the rarest expected 19.5 times in
# 20 000 draws; the 1 - 10^-4 quantile of chi^2 at 55 degrees of freedom
GRAM_LAW_K, GRAM_LAW_L, GRAM_LAW_SEEDS = 3, 5, 20000
CHI2_55_Q9999 = 102.78


@pytest.mark.parametrize("draw", [_packed_gram, _pattern_gram])
def test_dither_gram_draws_follow_the_exact_law(draw):
    chi2, dof = _gram_chi_square(draw, GRAM_LAW_K, GRAM_LAW_L, GRAM_LAW_SEEDS)
    assert dof == 55
    assert chi2 < CHI2_55_Q9999, chi2


def _weighted_pattern_gram(signs, weights):
    """A pattern-count draw over a given table and pattern weights."""
    def draw(dither, k, snapshots):
        counts = np.random.Generator(np.random.PCG64(dither)).multinomial(
            snapshots, weights / weights.sum())
        return (signs * counts) @ signs.T
    return draw


@pytest.mark.parametrize("draw", [
    _weighted_pattern_gram(_sign_patterns(3)[:, 1:], np.ones(3)),
    _weighted_pattern_gram(_sign_patterns(3), np.array([2.0, 1.0, 1.0, 1.0]))],
    ids=["one-pattern-dropped", "one-pattern-twice-as-likely"])
def test_dither_gram_law_test_rejects_a_wrong_pattern_table(draw):
    chi2, _ = _gram_chi_square(draw, GRAM_LAW_K, GRAM_LAW_L, GRAM_LAW_SEEDS)
    assert chi2 > CHI2_55_Q9999, chi2


@pytest.mark.parametrize("dof", [0, 1, 2, 3, 10])
def test_wishart_identity_moments(dof):
    # E W = dof I, var W_ii = 2 dof, var W_ij = dof (i != j)
    rng = np.random.default_rng(31)
    draws = np.stack([_wishart_identity(dof, 3, rng) for _ in range(20000)])
    np.testing.assert_allclose(draws.mean(axis=0), dof * np.eye(3),
                               atol=0.1 * max(dof, 1))
    expected_var = dof * (np.ones((3, 3)) + np.eye(3))
    np.testing.assert_allclose(draws.var(axis=0), expected_var,
                               atol=0.1 * max(dof, 1))
    np.testing.assert_array_equal(draws, np.swapaxes(draws, 1, 2))


@pytest.mark.parametrize("snapshots", [3, 100, CROSSOVER, CROSSOVER + 1, 10 ** 4])
@pytest.mark.parametrize("k", [1, 3, 4, 10])
def test_snapshot_power_is_correlation_diagonal_bit_for_bit(scene, snapshots, k):
    # the dither is a seed that each draw restarts (explicit signs, pattern
    # counts or packed words alike); a live Generator would be consumed
    gains = scene.gains[:, 100:100 + k]
    power = synthesize_snapshot_power(gains, 1e-12, snapshots, 32,
                                      np.random.default_rng(33))
    corr = synthesize_snapshot_correlation(gains, 1e-12, snapshots, 32,
                                           np.random.default_rng(33),
                                           scene.pairs)
    np.testing.assert_array_equal(power, corr[scene.pairs.diagonal_rows])
    for draw, *pairs in ((synthesize_snapshot_power,),
                         (synthesize_snapshot_correlation, scene.pairs)):
        with pytest.raises(TypeError):
            draw(gains, 1e-12, snapshots, np.random.default_rng(32),
                 np.random.default_rng(33), *pairs)


@pytest.mark.parametrize("snapshots,sampler", [
    (1, _explicit_second_moment), (37, _explicit_second_moment),
    (CROSSOVER, _explicit_second_moment),
    (CROSSOVER + 1, _statistics_second_moment)])
def test_snapshot_correlation_picks_sampler_by_length(scene, snapshots, sampler):
    # bit for bit: up to the crossover the explicit sampler, then statistics
    # (K = 3 draws its Gram matrix from pattern counts)
    gains = scene.gains[:, [10, 60, 200]]
    meas = synthesize_snapshot_correlation(gains, 1e-12, snapshots, 34,
                                           np.random.default_rng(35),
                                           scene.pairs)
    seed_or_gram = 34 if sampler is _explicit_second_moment else _pattern_gram(
        34, 3, snapshots)
    acc = sampler(gains, 1e-12, snapshots, seed_or_gram,
                  np.random.default_rng(35))
    np.testing.assert_array_equal(
        meas, acc[scene.pairs.first, scene.pairs.second] / snapshots)


@pytest.mark.parametrize("snapshots", [CROSSOVER + 1, 10 ** 6])
def test_statistics_sampler_noiseless_single_target_exact(scene, snapshots):
    gains = scene.gains[:, [123]]
    meas = synthesize_snapshot_power(gains, 0.0, snapshots, 1,
                                     np.random.default_rng(2))
    np.testing.assert_allclose(meas, gains[:, 0] ** 2, rtol=1e-12)


def test_statistics_sampler_noiseless_singular_gram_is_exact():
    # L < K: the dither Gram matrix has rank at most L, from either draw
    gains = np.random.default_rng(36).uniform(0.5, 1.5, size=(3, 5))
    for draw in (_packed_gram, _pattern_gram):
        gram = draw(37, 5, 2)
        assert np.linalg.matrix_rank(gram) <= 2
        acc = _statistics_second_moment(gains, 0.0, 2, gram,
                                        np.random.default_rng(38))
        np.testing.assert_allclose(acc, gains @ gram @ gains.T, rtol=1e-12)


def _single_target_statistics(powers):
    """Per draw (rows): each anchor's power, its squared deviation, and the
    product of the two anchors' deviations (the cross-anchor covariance)."""
    dev = powers - powers.mean(axis=0)
    return np.column_stack([powers, dev ** 2, dev[:, 0] * dev[:, 1]])


def _explicit_single_target_powers(gains, noise_variance, snapshots, draws):
    return np.stack([
        np.diagonal(_explicit_second_moment(
            gains, noise_variance, snapshots, 2 * i,
            np.random.default_rng(2 * i + 1))) / snapshots
        for i in range(draws)])


# a weak and a strong anchor, sigma^2 = 1
SINGLE_TARGET_GAINS = np.array([[0.3], [2.0]])


@pytest.mark.parametrize("snapshots", [1, 2, 7, 100, CROSSOVER])
def test_single_target_powers_match_explicit_distribution(snapshots):
    # per-anchor means and variances and the cross-anchor covariance of the
    # closed form agree with the explicit sampler's diagonal at K = 1; the
    # columns of one call are independent draws
    draws = 4000
    ref = _explicit_single_target_powers(SINGLE_TARGET_GAINS, 1.0, snapshots,
                                         draws)
    new = synthesize_single_target_powers(
        np.tile(SINGLE_TARGET_GAINS, draws), 1.0, snapshots,
        np.random.default_rng(10 ** 6)).T
    z = _z_scores(_single_target_statistics(ref),
                  _single_target_statistics(new))
    assert np.all(z < 4.5), z


def test_single_target_powers_match_analytic_moments_at_large_l():
    # mean g^2 + sigma^2 and variance (4 g^2 sigma^2 + 2 sigma^4) / L
    snapshots, draws, s2 = 10 ** 4, 4000, 1.0
    g2 = SINGLE_TARGET_GAINS[:, 0] ** 2
    powers = synthesize_single_target_powers(
        np.tile(SINGLE_TARGET_GAINS, draws), s2, snapshots,
        np.random.default_rng(40)).T
    variance = (4.0 * g2 * s2 + 2.0 * s2 ** 2) / snapshots
    z_mean = np.abs(powers.mean(axis=0) - (g2 + s2)) / np.sqrt(variance / draws)
    dev2 = (powers - (g2 + s2)) ** 2
    z_var = np.abs(dev2.mean(axis=0) - variance) / (dev2.std(axis=0)
                                                     / np.sqrt(draws))
    assert np.all(z_mean < 4.5) and np.all(z_var < 4.5), (z_mean, z_var)


def test_single_target_powers_comparison_detects_a_wrong_noise_level():
    # the comparison above has the power to see a 10% noise-variance error
    draws = 4000
    ref = _explicit_single_target_powers(SINGLE_TARGET_GAINS, 1.0, 7, draws)
    new = synthesize_single_target_powers(
        np.tile(SINGLE_TARGET_GAINS, draws), 1.1, 7,
        np.random.default_rng(10 ** 6)).T
    z = _z_scores(_single_target_statistics(ref),
                  _single_target_statistics(new))
    assert np.max(z) > 4.5


@pytest.mark.parametrize("snapshots", [1, 7, 10 ** 4])
def test_single_target_powers_noiseless_exact(scene, snapshots):
    gains = scene.gains[:, [5, 123, 399]]
    powers = synthesize_single_target_powers(gains, 0.0, snapshots,
                                             np.random.default_rng(41))
    np.testing.assert_array_equal(powers, gains ** 2)


def test_snapshot_synthesis_rejects_zero_snapshots(scene):
    with pytest.raises(ValueError):
        synthesize_snapshot_power(scene.gains[:, [0]], 0.0, 0, 0,
                                  np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthesize_single_target_powers(scene.gains[:, [0]], 1e-12, 0,
                                        np.random.default_rng(0))


def test_dither_signs_are_unbiased_and_independent():
    signs = np.random.Generator(np.random.PCG64(22)).integers(
        0, 2, size=(200_000, 3)) * 2.0 - 1.0
    assert np.all(np.abs(signs.mean(axis=0)) < 5e-3)
    corr = signs.T @ signs / signs.shape[0]
    off = corr[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 5e-3)


def test_remove_noise_floor_inverts_ideal_power():
    # O(1) fingerprint keeps the add-then-subtract exact in float64
    fp = np.array([[3.0, 1.0], [2.0, 5.0], [0.5, 4.0]])
    meas = synthesize_ideal_power(fp, np.array([1.0, 0.0]), 0.1)
    np.testing.assert_array_equal(remove_noise_floor(meas, 0.1), fp[:, 0])


def test_remove_noise_floor_inverts_at_scene_scale(scene):
    ind = indicator_from_cells([44], scene.grid.n)
    s2 = 1e-12  # comparable to the fingerprint entries
    meas = synthesize_ideal_power(scene.power_dict.matrix, ind, s2)
    np.testing.assert_allclose(remove_noise_floor(meas, s2),
                               scene.power_dict.matrix[:, 44], rtol=1e-9, atol=0)


def test_remove_noise_floor_zero_variance_is_identity(scene):
    ind = indicator_from_cells([44], scene.grid.n)
    meas = synthesize_ideal_power(scene.power_dict.matrix, ind, 0.0)
    np.testing.assert_array_equal(remove_noise_floor(meas, 0.0), meas)


def test_remove_noise_floor_clamps_at_zero():
    cleaned = remove_noise_floor(np.full(3, 0.1), 0.2)  # values below the floor
    np.testing.assert_array_equal(cleaned, np.zeros(3))


def test_remove_noise_floor_floors_each_power_column():
    # (M, K) powers, one column per target measured alone; a new array
    powers = np.array([[0.75, 0.125], [0.5, 0.25], [0.375, 1.0]])
    drawn = powers.copy()
    cleaned = remove_noise_floor(powers, 0.25)
    np.testing.assert_array_equal(cleaned, [[0.5, 0.0], [0.25, 0.0], [0.125, 0.75]])
    for column in range(2):
        np.testing.assert_array_equal(cleaned[:, column],
                                      remove_noise_floor(powers[:, column], 0.25))
    np.testing.assert_array_equal(powers, drawn)


def test_remove_noise_floor_correlation_touches_diagonal_rows_only(scene):
    ind = indicator_from_cells([10], scene.grid.n)
    meas = synthesize_ideal_correlation(scene.corr_dict.matrix, ind, 0.3, scene.pairs)
    cleaned = remove_noise_floor(meas, 0.3, scene.pairs)
    np.testing.assert_allclose(cleaned, scene.corr_dict.matrix[:, 10],
                               rtol=0, atol=1e-16)


def test_remove_noise_floor_model_mismatch(scene):
    # per-anchor powers handed the pair map of the correlation rows
    with pytest.raises(ValueError, match="pair map"):
        remove_noise_floor(np.ones(scene.gains.shape[0]), 0.0, scene.pairs)
