import numpy as np
import pytest

from vlp_sparse import (DitherPlan, MeasurementVector, SceneConfig,
                        build_scene, gains_to_points, indicator_from_cells,
                        indicator_from_targets, remove_noise_floor,
                        sample_targets, synthesize_ideal_correlation,
                        synthesize_ideal_power,
                        synthesize_snapshot_correlation,
                        synthesize_snapshot_power)
from vlp_sparse.channel import PairIndexMap
from vlp_sparse.measurement import (_EXPLICIT_MAX_SNAPSHOTS, _dither_gram,
                                    _explicit_second_moment,
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
    targets = sample_targets(scene.grid, 6, False, np.random.default_rng(0))
    ind = indicator_from_targets(targets, scene.grid.n)
    assert set(np.nonzero(ind)[0].tolist()) == set(targets.true_cells.tolist())


def test_indicator_rejects_duplicates_and_range():
    with pytest.raises(ValueError, match="duplicate"):
        indicator_from_cells([1, 1], 4)
    with pytest.raises(ValueError, match="range"):
        indicator_from_cells([4], 4)


def test_ideal_power_single_target_is_fingerprint_column(scene):
    ind = indicator_from_cells([7], scene.grid.n)
    meas = synthesize_ideal_power(scene.power_fp, ind, 0.0)
    np.testing.assert_array_equal(meas.values, scene.power_fp[:, 7])
    assert meas.model == "power" and meas.snapshots == 0


def test_ideal_power_is_linear_in_the_indicator(scene):
    ind = indicator_from_cells([2, 5], scene.grid.n)
    meas = synthesize_ideal_power(scene.power_fp, ind, 0.0)
    np.testing.assert_allclose(meas.values,
                               scene.power_fp[:, 2] + scene.power_fp[:, 5],
                               rtol=1e-15)


def test_ideal_power_noise_floor_term():
    J = np.zeros((3, 4))
    meas = synthesize_ideal_power(J, indicator_from_cells([0], 4), 0.1)
    np.testing.assert_array_equal(meas.values, [0.1, 0.1, 0.1])


def test_ideal_correlation_two_anchor_noise_floor():
    H = np.array([[3.0], [4.0]])
    psi = H[[0, 0, 1]] * H[[0, 1, 1]]
    pairs = PairIndexMap.for_anchor_count(2)
    meas = synthesize_ideal_correlation(psi, np.array([1.0]), 0.5, pairs)
    np.testing.assert_array_equal(meas.values, [9.5, 12.0, 16.5])


def test_ideal_correlation_affine_in_disjoint_indicators(scene):
    a = indicator_from_cells([3], scene.grid.n)
    b = indicator_from_cells([250], scene.grid.n)
    s2 = 1e-3
    m_ab = synthesize_ideal_correlation(scene.corr_fp, a + b, s2, scene.pairs)
    m_a = synthesize_ideal_correlation(scene.corr_fp, a, s2, scene.pairs)
    m_b = synthesize_ideal_correlation(scene.corr_fp, b, s2, scene.pairs)
    floor = np.zeros(scene.pairs.n_pairs)
    floor[scene.pairs.diagonal_rows] = s2
    np.testing.assert_allclose(m_ab.values, m_a.values + m_b.values - floor,
                               rtol=1e-12, atol=1e-20)


def test_snapshot_power_single_target_exact(scene):
    # dither signs square away; no cross terms for K=1
    gains = scene.gains[:, [123]]
    meas = synthesize_snapshot_power(gains, 0.0, 37, DitherPlan.from_seed(1),
                                     np.random.default_rng(2))
    np.testing.assert_allclose(meas.values, gains[:, 0] ** 2, rtol=1e-12)


def test_snapshot_power_single_snapshot_has_cross_terms(scene):
    gains = scene.gains[:, [100, 101]]
    ideal = (gains ** 2).sum(axis=1)
    meas = synthesize_snapshot_power(gains, 0.0, 1, DitherPlan.from_seed(3),
                                     np.random.default_rng(4))
    assert not np.allclose(meas.values, ideal, rtol=1e-3, atol=0)


def test_snapshot_power_converges_to_ideal(scene):
    targets = sample_targets(scene.grid, 2, True, np.random.default_rng(5))
    gains = scene.gains[:, targets.true_cells]
    ideal = (gains ** 2).sum(axis=1)
    meas = synthesize_snapshot_power(gains, 0.0, 10 ** 6,
                                     DitherPlan.from_seed(6),
                                     np.random.default_rng(7))
    rel = np.max(np.abs(meas.values - ideal) / ideal)
    assert rel < 1e-2


def test_snapshot_error_shrinks_with_snapshot_count(scene):
    targets = sample_targets(scene.grid, 4, True, np.random.default_rng(8))
    gains = scene.gains[:, targets.true_cells]
    ideal_p = (gains ** 2).sum(axis=1)
    cross = gains @ gains.T
    np.fill_diagonal(cross, 0.0)
    # worst-case relative cross-term magnitude per anchor
    peak = np.max(np.abs(cross).sum(axis=1)[np.arange(16)] / ideal_p)
    errors = []
    for snaps in (10 ** 2, 10 ** 4, 10 ** 6):
        meas = synthesize_snapshot_power(gains, 0.0, snaps,
                                         DitherPlan.from_seed(9),
                                         np.random.default_rng(10))
        errors.append(np.max(np.abs(meas.values - ideal_p) / ideal_p))
    assert errors[0] >= errors[1] >= errors[2]
    for err, snaps in zip(errors, (10 ** 2, 10 ** 4, 10 ** 6)):
        assert err <= 3.0 / np.sqrt(snaps) * peak


def test_snapshot_correlation_single_target_exact_any_length(scene):
    gains = scene.gains[:, [321]]
    meas = synthesize_snapshot_correlation(gains, 0.0, 5,
                                           DitherPlan.from_seed(11),
                                           np.random.default_rng(12),
                                           scene.pairs)
    expected = gains[scene.pairs.first, 0] * gains[scene.pairs.second, 0]
    np.testing.assert_allclose(meas.values, expected, rtol=1e-12)


def test_snapshot_correlation_converges_to_ideal(scene):
    targets = sample_targets(scene.grid, 2, True, np.random.default_rng(13))
    ind = indicator_from_cells(targets.true_cells, scene.grid.n)
    ideal = scene.corr_fp @ ind
    gains = scene.gains[:, targets.true_cells]
    meas = synthesize_snapshot_correlation(gains, 0.0, 10 ** 6,
                                           DitherPlan.from_seed(14),
                                           np.random.default_rng(15),
                                           scene.pairs)
    rel = np.max(np.abs(meas.values - ideal) / np.abs(ideal))
    assert rel < 1e-2


def test_snapshot_correlation_matches_dense_accumulation(scene):
    # the explicit reference sampler equals the dense symmetric estimate
    gains = scene.gains[:, [10, 60, 200]]
    snaps = 256
    plan, seed = DitherPlan.from_seed(16), 17
    acc = _explicit_second_moment(gains, 1e-12, snaps, plan,
                                  np.random.default_rng(seed))
    signs = plan.generator().integers(0, 2, size=(snaps, 3)) * 2.0 - 1.0
    noise = np.random.default_rng(seed).normal(0.0, np.sqrt(1e-12), (snaps, 16))
    samples = signs @ gains.T + noise
    dense = samples.T @ samples / snaps
    np.testing.assert_allclose(acc / snaps, dense, rtol=1e-12)
    np.testing.assert_allclose(dense, dense.T, rtol=0, atol=0)


def test_snapshot_correlation_off_diagonal_has_no_noise_floor(scene):
    gains = scene.gains[:, [0]]
    s2 = 1e-11
    snaps = 10 ** 6
    meas = synthesize_snapshot_correlation(gains, s2, snaps,
                                           DitherPlan.from_seed(18),
                                           np.random.default_rng(19),
                                           scene.pairs)
    i, j = scene.pairs.first, scene.pairs.second
    expected = gains[i, 0] * gains[j, 0]
    off = i != j
    # cross terms scale as (g_i + g_j) sigma / sqrt(L) + sigma^2 / sqrt(L)
    bound = 5.0 * ((gains[i, 0] + gains[j, 0]) * np.sqrt(s2) + s2) / np.sqrt(snaps)
    assert np.all(np.abs(meas.values[off] - expected[off]) <= bound[off])


def test_snapshot_synthesis_is_deterministic(scene):
    gains = scene.gains[:, [5, 9]]
    runs = [synthesize_snapshot_power(gains, 1e-12, 1000,
                                      DitherPlan.from_seed(20),
                                      np.random.default_rng(21)).values
            for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])


def _sample_sums(sampler, gains, noise_variance, snapshots, draws, base):
    """``draws`` independent (M, M) sums, seeds base, base + 1, ..."""
    return np.stack([
        sampler(gains, noise_variance, snapshots,
                DitherPlan.from_seed(base + 2 * i),
                np.random.default_rng(base + 2 * i + 1))
        for i in range(draws)])


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
                                         (CROSSOVER + 1, 8)])
def test_statistics_sampler_matches_explicit_distribution(snapshots, k):
    # entrywise means and variances and one cross-entry covariance of the
    # sum agree with the explicit reference within sampling error; L < K
    # makes the dither Gram matrix singular, L = 4 leaves a Wishart
    # remainder of fewer degrees of freedom than anchors
    gains = np.random.default_rng(k).uniform(0.5, 1.5, size=(3, k))
    draws = 4000
    ref = _sample_sums(_explicit_second_moment, gains, 1.0, snapshots,
                       draws, base=0)
    new = _sample_sums(_statistics_second_moment, gains, 1.0, snapshots,
                       draws, base=10 ** 6)
    z = _z_scores(_moment_statistics(ref), _moment_statistics(new))
    assert np.all(z < 4.5), z


def test_statistics_sampler_detects_a_wrong_noise_level():
    # the comparison above has the power to see a 10% noise-variance error
    gains = np.random.default_rng(3).uniform(0.5, 1.5, size=(3, 3))
    ref = _sample_sums(_explicit_second_moment, gains, 1.0, 50, 4000, base=0)
    new = _sample_sums(_statistics_second_moment, gains, 1.1, 50, 4000,
                       base=10 ** 6)
    z = _z_scores(_moment_statistics(ref), _moment_statistics(new))
    assert np.max(z) > 4.5


@pytest.mark.parametrize("snapshots", [1, 64, 100, 128, 1000])
def test_dither_gram_equals_unpacked_sign_products(snapshots):
    plan = DitherPlan.from_seed(30)
    words = -(-snapshots // 64)
    packed = plan.generator().integers(0, 1 << 64, size=(4, words),
                                       dtype=np.uint64)
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    signs = 2.0 * bits[:, :snapshots] - 1.0
    np.testing.assert_array_equal(_dither_gram(plan, 4, snapshots),
                                  signs @ signs.T)


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


@pytest.mark.parametrize("snapshots", [3, CROSSOVER, CROSSOVER + 1, 10 ** 4])
@pytest.mark.parametrize("k", [1, 3])
def test_snapshot_power_is_correlation_diagonal_bit_for_bit(scene, snapshots, k):
    gains = scene.gains[:, 100:100 + k]
    power = synthesize_snapshot_power(gains, 1e-12, snapshots,
                                      DitherPlan.from_seed(32),
                                      np.random.default_rng(33))
    corr = synthesize_snapshot_correlation(gains, 1e-12, snapshots,
                                           DitherPlan.from_seed(32),
                                           np.random.default_rng(33),
                                           scene.pairs)
    np.testing.assert_array_equal(power.values,
                                  corr.values[scene.pairs.diagonal_rows])


@pytest.mark.parametrize("snapshots,sampler", [
    (1, _explicit_second_moment), (37, _explicit_second_moment),
    (CROSSOVER, _explicit_second_moment),
    (CROSSOVER + 1, _statistics_second_moment)])
def test_snapshot_correlation_picks_sampler_by_length(scene, snapshots, sampler):
    # bit for bit: up to the crossover the explicit sampler, then statistics
    gains = scene.gains[:, [10, 60, 200]]
    meas = synthesize_snapshot_correlation(gains, 1e-12, snapshots,
                                           DitherPlan.from_seed(34),
                                           np.random.default_rng(35),
                                           scene.pairs)
    acc = sampler(gains, 1e-12, snapshots, DitherPlan.from_seed(34),
                  np.random.default_rng(35))
    np.testing.assert_array_equal(
        meas.values, acc[scene.pairs.first, scene.pairs.second] / snapshots)


@pytest.mark.parametrize("snapshots", [CROSSOVER + 1, 10 ** 6])
def test_statistics_sampler_noiseless_single_target_exact(scene, snapshots):
    gains = scene.gains[:, [123]]
    meas = synthesize_snapshot_power(gains, 0.0, snapshots,
                                     DitherPlan.from_seed(1),
                                     np.random.default_rng(2))
    np.testing.assert_allclose(meas.values, gains[:, 0] ** 2, rtol=1e-12)


def test_statistics_sampler_noiseless_singular_gram_is_exact():
    # L < K: the dither Gram matrix has rank at most L
    gains = np.random.default_rng(36).uniform(0.5, 1.5, size=(3, 5))
    plan = DitherPlan.from_seed(37)
    gram = _dither_gram(plan, 5, 2)
    assert np.linalg.matrix_rank(gram) <= 2
    acc = _statistics_second_moment(gains, 0.0, 2, plan,
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
            gains, noise_variance, snapshots, DitherPlan.from_seed(2 * i),
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
        synthesize_snapshot_power(scene.gains[:, [0]], 0.0, 0,
                                  DitherPlan.from_seed(0),
                                  np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthesize_single_target_powers(scene.gains[:, [0]], 1e-12, 0,
                                        np.random.default_rng(0))


def test_dither_signs_are_unbiased_and_independent():
    plan = DitherPlan.from_seed(22)
    signs = plan.generator().integers(0, 2, size=(200_000, 3)) * 2.0 - 1.0
    assert np.all(np.abs(signs.mean(axis=0)) < 5e-3)
    corr = signs.T @ signs / signs.shape[0]
    off = corr[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 5e-3)


def test_remove_noise_floor_inverts_ideal_power():
    # O(1) fingerprint keeps the add-then-subtract exact in float64
    fp = np.array([[3.0, 1.0], [2.0, 5.0], [0.5, 4.0]])
    meas = synthesize_ideal_power(fp, np.array([1.0, 0.0]), 0.1)
    cleaned = remove_noise_floor(meas, 0.1)
    np.testing.assert_array_equal(cleaned.values, fp[:, 0])


def test_remove_noise_floor_inverts_at_scene_scale(scene):
    ind = indicator_from_cells([44], scene.grid.n)
    s2 = 1e-12  # comparable to the fingerprint entries
    meas = synthesize_ideal_power(scene.power_fp, ind, s2)
    cleaned = remove_noise_floor(meas, s2)
    np.testing.assert_allclose(cleaned.values, scene.power_fp[:, 44],
                               rtol=1e-9, atol=0)


def test_remove_noise_floor_zero_variance_is_identity(scene):
    ind = indicator_from_cells([44], scene.grid.n)
    meas = synthesize_ideal_power(scene.power_fp, ind, 0.0)
    np.testing.assert_array_equal(remove_noise_floor(meas, 0.0).values,
                                  meas.values)


def test_remove_noise_floor_clamps_at_zero():
    meas = MeasurementVector(np.full(3, 0.1), "power", 0.1, 0)
    cleaned = remove_noise_floor(meas, 0.2)
    np.testing.assert_array_equal(cleaned.values, np.zeros(3))


def test_remove_noise_floor_correlation_touches_diagonal_rows_only(scene):
    ind = indicator_from_cells([10], scene.grid.n)
    meas = synthesize_ideal_correlation(scene.corr_fp, ind, 0.3, scene.pairs)
    cleaned = remove_noise_floor(meas, 0.3, scene.pairs)
    np.testing.assert_allclose(cleaned.values, scene.corr_fp[:, 10],
                               rtol=0, atol=1e-16)


def test_remove_noise_floor_model_mismatch():
    meas = MeasurementVector(np.ones(3), "correlation", 0.0, 0)
    with pytest.raises(ValueError, match="pair map"):
        remove_noise_floor(meas, 0.1)
    bad = MeasurementVector(np.ones(3), "banana", 0.0, 0)
    with pytest.raises(ValueError, match="unknown measurement model"):
        remove_noise_floor(bad, 0.1)
