import dataclasses
import math
import os
import warnings
from itertools import combinations, permutations

import numpy as np
import pytest

from vlp_sparse import (SCHEMES, ConfigError, GainModel, PdOptics, SceneConfig,
                        aligned_estimates, build_scene, cell_quantization_floor, gain_to_range,
                        gains_to_points, match_and_error, place_leds,
                        rss_baseline_locate, run_campaign, run_trial)
from vlp_sparse import evaluation, measurement
from vlp_sparse.evaluation import Lateration, Scene, _trial_rng

PD = PdOptics()


def lateration_of(leds, m=1.0):
    return Lateration(GainModel(leds, PD, m, 0.85))


def exhaustive_match(est, truth):
    """Oracle: try every permutation of the truth assignment."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    cost = np.linalg.norm(est[:, None, :] - truth[None, :, :], axis=2)
    k = len(truth)
    best = math.inf
    for perm in permutations(range(k)):
        mean = float(np.mean(cost[np.arange(k), perm]))
        if mean < best:
            best = mean
    return best


def greedy_match(est, truth):
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    cost = np.linalg.norm(est[:, None, :] - truth[None, :, :], axis=2)
    order = np.dstack(np.unravel_index(np.argsort(cost, axis=None), cost.shape))[0]
    used_r, used_c, total = set(), set(), 0.0
    for r, c in order:
        if r in used_r or c in used_c:
            continue
        used_r.add(r)
        used_c.add(c)
        total += cost[r, c]
    return total / len(truth)


def test_match_zero_for_permuted_identical_sets():
    truth = np.array([[0.3, 0.4], [1.2, 2.0], [3.0, 0.1]])
    assert match_and_error(truth[::-1], truth) == 0.0


def test_match_hand_enumerated_example():
    truth = np.array([[0.0, 0.0], [1.0, 0.0]])
    est = np.array([[1.0, 0.0], [0.0, 0.2]])
    # crossing pairing costs (0 + 0.2)/2; the identity pairing is worse
    assert match_and_error(est, truth) == pytest.approx(0.1, rel=1e-12)


def test_match_single_pair():
    assert match_and_error([[0.1, 0.1]], [[0.1, 0.3]]) == pytest.approx(0.2)


def test_match_is_symmetric_and_permutation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(1, 7))
        est = rng.uniform(0, 4, (k, 2))
        truth = rng.uniform(0, 4, (k, 2))
        delta = match_and_error(est, truth)
        assert match_and_error(truth, est) == pytest.approx(delta, rel=1e-12)
        assert match_and_error(est[rng.permutation(k)],
                               truth[rng.permutation(k)]) \
            == pytest.approx(delta, rel=1e-12)


def test_match_rejects_points_that_are_not_planar():
    with pytest.raises(ValueError, match=r"^est: expected \(K, 2\) positions"):
        match_and_error(np.zeros((2, 3)), np.zeros((2, 2)))


def test_match_rejects_a_matching_of_infinite_cost():
    with pytest.raises(ValueError, match="^cost matrix is infeasible$"):
        match_and_error([[math.inf, 0.0]], [[0.0, 0.0]])


def test_match_zero_iff_equal_multisets():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 4, (5, 2))
    assert match_and_error(pts[::-1], pts) == 0.0
    bumped = pts.copy()
    bumped[2, 0] += 1e-6
    assert match_and_error(bumped, pts) > 0.0


def test_match_agrees_with_exhaustive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        est = rng.uniform(0, 4, (k, 2))
        truth = rng.uniform(0, 4, (k, 2))
        assert match_and_error(est, truth) == exhaustive_match(est, truth)


def test_match_never_exceeds_greedy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        est = rng.uniform(0, 4, (k, 2))
        truth = rng.uniform(0, 4, (k, 2))
        assert match_and_error(est, truth) <= greedy_match(est, truth) + 1e-12


def test_match_rejects_empty_and_excess():
    with pytest.raises(ValueError):
        match_and_error(np.empty((0, 2)), np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError, match="more estimates"):
        match_and_error(np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="fewer estimates"):
        match_and_error(np.zeros((1, 2)), np.zeros((2, 2)))


def test_matcher_equals_scipy_on_random_and_tied_matrices():
    """scipy's ``linear_sum_assignment`` is the oracle: the same total, and
    the same matching, since the matcher keeps scipy's order and tie rules.
    A third of the matrices are rounded to integers, so they hold ties."""
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(18)
    for index in range(600):
        n = int(rng.integers(1, 15))
        cost = rng.uniform(0.0, 10.0, (n, n))
        if index % 3 == 0:
            cost = np.round(cost)
        cols = evaluation._min_cost_matching(cost)
        rows, oracle = linear_sum_assignment(cost)
        assert sorted(cols) == list(range(n))
        assert cost[rows, cols].sum() == cost[rows, oracle].sum()
        assert cols == oracle.tolist()


def test_aligned_estimates_is_a_permutation_on_tied_lattices():
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(19)
    for _ in range(200):
        k = int(rng.integers(1, 15))
        est = rng.integers(0, 4, (k, 2)).astype(float)  # repeated points tie
        truth = rng.integers(0, 4, (k, 2)).astype(float)
        aligned = aligned_estimates(est, truth)
        assert sorted(map(tuple, aligned)) == sorted(map(tuple, est))
        cost = np.linalg.norm(est[:, None, :] - truth[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        assert match_and_error(est, truth) == float(np.mean(cost[rows, cols]))


def test_match_rejects_nan_positions():
    for est in ([[math.nan, 0.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, math.nan]]):
        with pytest.raises(ValueError, match="invalid numeric entries"):
            match_and_error(est, [[0.0, 0.0], [1.0, 1.0]])


def test_aligned_estimates_follow_the_matching():
    truth = np.array([[0.0, 0.0], [1.0, 0.0]])
    est = np.array([[1.0, 0.0], [0.0, 0.2]])
    aligned = aligned_estimates(est, truth)
    np.testing.assert_array_equal(aligned, np.array([[0.0, 0.2], [1.0, 0.0]]))


def test_quantization_floor_against_monte_carlo():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.5, 0.5, size=(1_000_000, 2))
    mc = float(np.mean(np.linalg.norm(pts, axis=1)))
    assert cell_quantization_floor(1.0) == pytest.approx(mc, abs=5e-4)
    assert cell_quantization_floor(0.2) == pytest.approx(0.0765, abs=2e-4)


def test_baseline_recovers_noiseless_target():
    cfg = SceneConfig()
    leds = place_leds(cfg)
    gains = gains_to_points(leds, np.array([[1.3, 2.7, 0.85]]), PD, 1.0)[:, 0]
    est = rss_baseline_locate(gains ** 2, lateration_of(leds))
    assert np.linalg.norm(est - [1.3, 2.7]) < 1e-6


def test_baseline_self_consistent_across_interior_positions():
    cfg = SceneConfig()
    leds = place_leds(cfg)
    xs = np.linspace(0.2, 3.8, 7)
    pts = np.array([[x, y, 0.85] for x in xs for y in xs])
    gains = gains_to_points(leds, pts, PD, 1.0)
    for col, pt in zip(gains.T, pts):
        est = rss_baseline_locate(col ** 2, lateration_of(leds))
        assert np.linalg.norm(est - pt[:2]) < 1e-6


def test_baseline_self_consistent_for_fractional_lambertian_order():
    from vlp_sparse import lambertian_order
    cfg = SceneConfig(half_power_angle=70.0)
    m = lambertian_order(70.0)  # ~= 0.65, non-integer exponent path
    leds = place_leds(cfg)
    gains = gains_to_points(leds, np.array([[3.1, 0.9, 0.85]]), PD, m)[:, 0]
    est = rss_baseline_locate(gains ** 2, lateration_of(leds, m))
    assert np.linalg.norm(est - [3.1, 0.9]) < 1e-6


def test_scene_baseline_inverts_the_law_with_the_scene_optics():
    # m = lambertian_order(35) ~= 3.47, FOV 60: the default optics (m = 1)
    # would invert every range wrongly
    scene = build_scene(SceneConfig(pd=PdOptics(fov=60.0), half_power_angle=35.0))
    pts = np.array([[1.3, 2.7], [2.0, 2.0], [3.4, 0.6], [0.3, 3.8]])
    rss = scene.gain_model.gains(pts) ** 2
    assert np.any(rss == 0.0)  # the narrow FOV cuts some links
    est = rss_baseline_locate(rss, scene.lateration)
    np.testing.assert_allclose(est, pts, rtol=0, atol=1e-6)


def test_baseline_range_inversion_at_nadir():
    cfg = SceneConfig()
    leds = place_leds(cfg)
    nadir_gain = gains_to_points(leds, np.array([[0.5, 0.5, 0.85]]), PD, 1.0)[0, 0]
    dist = float(gain_to_range(nadir_gain, 2.15, PD, 1.0))
    assert dist == pytest.approx(2.15, abs=1e-9)
    assert max(dist ** 2 - 2.15 ** 2, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_baseline_needs_three_usable_anchors():
    leds = place_leds(SceneConfig())
    with pytest.raises(ValueError, match="positive RSS"):
        rss_baseline_locate(np.zeros(16), lateration_of(leds))


def test_baseline_rejects_collinear_anchors():
    line = np.array([[1.0 + i, 2.0, 3.0] for i in range(3)])
    gains = gains_to_points(line, np.array([[2.0, 2.0, 0.85]]), PD, 1.0)[:, 0]
    with pytest.raises(ValueError, match="collinear"):
        rss_baseline_locate(gains ** 2, lateration_of(line))


def _batch_rss(leds):
    """Noisy squared gains of six targets with four different usable masks."""
    pts = np.array([[0.4, 0.4, 0.85], [3.5, 0.7, 0.85], [2.0, 2.0, 0.85],
                    [1.1, 3.3, 0.85], [2.9, 2.6, 0.85], [0.8, 1.9, 0.85]])
    rss = gains_to_points(leds, pts, PD, 1.0) ** 2
    rss *= np.random.default_rng(42).uniform(0.98, 1.02, rss.shape)
    rss[[0, 5, 9], 1] = 0.0
    rss[[3, 4], 2] = 0.0
    rss[[3, 4], 4] = 0.0
    rss[:, 5] = np.where(np.arange(16) % 2 == 0, rss[:, 5], 0.0)
    return pts, rss


def test_baseline_batch_equals_column_by_column():
    leds = place_leds(SceneConfig())
    _, rss = _batch_rss(leds)
    batch = rss_baseline_locate(rss, lateration_of(leds))
    assert batch.shape == (6, 2)
    for t in range(6):
        single = rss_baseline_locate(rss[:, t], lateration_of(leds))
        assert single.shape == (2,)
        np.testing.assert_allclose(batch[t], single, rtol=0, atol=1e-12)


def _lstsq_lateration(rss, leds, m, receiver_height):
    """Reference: one column at a time through ``lstsq``, nothing cached."""
    usable = rss > 0
    pos = leds[usable]
    gap = pos[:, 2] - receiver_height
    dist = gain_to_range(np.sqrt(rss[usable]), gap, PD, m)
    range_sq = np.maximum(dist * dist - gap * gap, 0.0)
    i, j = np.triu_indices(len(pos), k=1)
    anchor_sq = pos[:, 0] ** 2 + pos[:, 1] ** 2
    rhs = (anchor_sq[i] - range_sq[i]) - (anchor_sq[j] - range_sq[j])
    x, _, rank, _ = np.linalg.lstsq(2.0 * (pos[i, :2] - pos[j, :2]), rhs,
                                    rcond=None)
    return x, rank


def _masked_rss(leds):
    """Squared gains of 7 targets: the full mask, two different 15-anchor
    masks, two different 13-anchor masks, and a repeat of each 15-anchor one."""
    rng = np.random.default_rng(43)
    pts = np.column_stack([rng.uniform(0.2, 3.8, (7, 2)), np.full(7, 0.85)])
    rss = gains_to_points(leds, pts, PD, 1.0) ** 2
    rss *= rng.uniform(0.98, 1.02, rss.shape)
    for t, dropped in ((1, [4]), (2, [11]), (3, [0, 6, 9]), (4, [2, 7, 15]),
                       (5, [4]), (6, [11])):
        rss[dropped, t] = 0.0
    return rss


def test_mask_solves_agree_with_lstsq_column_by_column():
    scene = build_scene(SceneConfig())
    rss = _masked_rss(scene.gain_model.anchors)
    batch = rss_baseline_locate(rss, scene.lateration)
    for t in range(rss.shape[1]):
        ref, rank = _lstsq_lateration(rss[:, t], scene.gain_model.anchors,
                                      scene.gain_model.m, 0.85)
        assert rank == 2
        single = rss_baseline_locate(rss[:, t], scene.lateration)
        np.testing.assert_allclose(single, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch[t], ref, rtol=0, atol=1e-12)
    # the scene's cached solves and a fresh lateration from the anchors agree
    assert np.array_equal(
        batch, rss_baseline_locate(rss, Lateration(scene.gain_model)))


def test_collinear_error_fires_exactly_where_lstsq_rank_is_below_2():
    # 3-anchor masks of the 4 x 4 layout: those on one row, column or
    # diagonal are collinear
    leds = place_leds(SceneConfig())
    lateration = lateration_of(leds)
    gains = gains_to_points(leds, np.array([[2.1, 1.7, 0.85]]), PD, 1.0)[:, 0]
    collinear = 0
    for trio in combinations(range(16), 3):
        rss = np.zeros(16)
        rss[list(trio)] = gains[list(trio)] ** 2
        _, rank = _lstsq_lateration(rss, leds, 1.0, 0.85)
        if rank < 2:
            collinear += 1
            with pytest.raises(ValueError, match="collinear"):
                rss_baseline_locate(rss, lateration)
        else:
            rss_baseline_locate(rss, lateration)
    assert collinear == 44  # 4 rows, 4 columns, 2 diagonals, 4 off-diagonals
    assert len(lateration.solves) == Lateration.MAX_MASKS  # collinear ones kept out


def test_scene_lateration_keeps_the_baseline_errors():
    scene = build_scene(SceneConfig())
    with pytest.raises(ValueError, match="positive RSS"):
        rss_baseline_locate(np.zeros(16), scene.lateration)
    gains = gains_to_points(scene.gain_model.anchors, np.array([[2.1, 1.7, 0.85]]),
                            PD, scene.gain_model.m)[:, 0]
    rss = np.where(np.arange(16) < 4, gains ** 2, 0.0)  # one row of anchors
    with pytest.raises(ValueError, match="collinear"):
        rss_baseline_locate(rss, scene.lateration)


def test_mask_solves_stay_within_their_bound():
    scene = build_scene(SceneConfig())
    lateration = scene.lateration
    gains = gains_to_points(scene.gain_model.anchors, np.array([[1.3, 2.2, 0.85]]),
                            PD, scene.gain_model.m)[:, 0]
    masks = [np.isin(np.arange(16), pair, invert=True)
             for pair in combinations(range(16), 2)]  # 120 14-anchor masks
    for mask in masks + masks:
        rss = np.where(mask, gains ** 2, 0.0)
        est = rss_baseline_locate(rss, lateration)
        assert len(lateration.solves) <= Lateration.MAX_MASKS
        np.testing.assert_allclose(est, [1.3, 2.2], rtol=0, atol=1e-9)
    assert len(lateration.solves) == Lateration.MAX_MASKS


def test_mask_solves_difference_the_upper_triangle_and_are_read_only():
    lateration = build_scene(SceneConfig()).lateration
    rng = np.random.default_rng(44)
    for n in (3, 13, 16):
        mask = np.isin(np.arange(16), [0, 1, 4] if n == 3 else range(n))
        solve = lateration.for_mask(mask)
        # the map is the least-squares solve of the pairs i < j, differenced
        pos = lateration.gain_model.anchors[mask]
        i, j = np.triu_indices(n, k=1)
        x = rng.uniform(-5.0, 5.0, n)
        ref, _, _, _ = np.linalg.lstsq(2.0 * (pos[i, :2] - pos[j, :2]),
                                       x[i] - x[j], rcond=None)
        np.testing.assert_allclose(solve[2] @ x, ref, rtol=0, atol=1e-12)
        assert lateration.for_mask(mask.copy()) is solve  # built once per mask
        for array in solve:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


def test_scene_arrays_are_read_only():
    scene = build_scene(SceneConfig())
    arrays = [scene.gains, scene.grid.centers,
              scene.pairs.first, scene.pairs.second, scene.pairs.diagonal_rows,
              scene.gain_model.anchors]
    for data in (scene.corr_dict, scene.power_dict):
        # the matrix is a view that flags its own: its base is read-only too
        arrays += [data.matrix, data.matrix.base, data.norms, data.inv_norms]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1.0


def test_baseline_batch_recovers_noiseless_targets():
    leds = place_leds(SceneConfig())
    pts, _ = _batch_rss(leds)
    rss = gains_to_points(leds, pts, PD, 1.0) ** 2
    rss[[0, 5, 9], 1] = 0.0
    est = rss_baseline_locate(rss, lateration_of(leds))
    assert np.max(np.linalg.norm(est - pts[:, :2], axis=1)) < 1e-6


def test_baseline_batch_fails_whole_call_on_one_short_column():
    leds = place_leds(SceneConfig())
    _, rss = _batch_rss(leds)
    rss[2:, 3] = 0.0
    with pytest.raises(ValueError, match="fewer than 3 anchors with positive RSS"):
        rss_baseline_locate(rss, lateration_of(leds))


def test_trial_noiseless_multi_target_baseline_is_exact():
    cfg = SceneConfig(targets_k=6, noise_variance=0.0, snapshots=100, seed=13)
    results = run_trial(cfg, _trial_rng(cfg.seed, 0, 0),
                        schemes=("rss_baseline",))
    baseline = results["rss_baseline"]
    assert baseline.error_m < 1e-6
    assert baseline.measurement.shape == (16, 6)


def test_trial_csm_alone_equals_csm_beside_cocsm(monkeypatch):
    # csm reads the correlation diagonal of the trial's one snapshot-sum draw
    draws = []
    second_moment = measurement._second_moment
    monkeypatch.setattr(measurement, "_second_moment",
                        lambda *a: draws.append(a) or second_moment(*a))
    cfg = SceneConfig(targets_k=4, snapshots=300, seed=14)
    both = run_trial(cfg, _trial_rng(cfg.seed, 0, 0), snr_db=20.0)
    assert len(draws) == 1
    alone = run_trial(cfg, _trial_rng(cfg.seed, 0, 0), snr_db=20.0,
                      schemes=("csm",))
    assert len(draws) == 2
    np.testing.assert_array_equal(both["csm"].measurement,
                                  alone["csm"].measurement)
    assert both["csm"].error_m == alone["csm"].error_m


def test_trial_on_grid_noiseless_single_target_is_exact():
    cfg = SceneConfig(targets_k=1, on_grid=True, noise_variance=0.0,
                      snapshots=10, seed=5)
    results = run_trial(cfg, _trial_rng(cfg.seed, 0, 0))
    assert results["csm"].error_m == 0.0
    assert results["cocsm"].error_m == 0.0
    assert results["csm"].exact_support and results["cocsm"].exact_support
    assert results["rss_baseline"].error_m < 1e-6


def test_trial_is_deterministic_per_seed():
    cfg = SceneConfig(targets_k=4, snapshots=50, seed=6)
    a = run_trial(cfg, _trial_rng(cfg.seed, 0, 0), snr_db=25.0)
    b = run_trial(cfg, _trial_rng(cfg.seed, 0, 0), snr_db=25.0)
    for scheme in a:
        assert a[scheme].error_m == b[scheme].error_m
        assert a[scheme].exact_support == b[scheme].exact_support
        assert np.array_equal(a[scheme].est_positions, b[scheme].est_positions)


# (support, error_m) per scheme at 20 dB, so that a change that moves any draw
# fails here: the explicit sampler (L = 100), pattern-count (K = 4) and
# packed-word (K = 10) Gram draws at L = 10^4, K = 8 at L = 10^6, and
# K = 6 at L = 300 (pattern counts, where a rule by word count alone packs)
PINNED_TRIALS = [
    (100, 4, 0, 0, {
        "csm": ([185, 389, 5, 249], 0.9040354345626807),
        "cocsm": ([185, 389, 5, 380], 0.8903601943225379),
        "rss_baseline": ([126, 145, 180, 369], 0.10978617813369798)}),
    (10 ** 4, 4, 1, 2, {
        "csm": ([333, 51, 265, 399], 0.4478405755910081),
        "cocsm": ([312, 11, 262, 399], 0.5846994139707606),
        "rss_baseline": ([12, 268, 353, 377], 0.013095468134936084)}),
    (10 ** 4, 10, 2, 5, {
        "csm": ([271, 70, 179, 389, 102, 399, 149, 2, 383, 19],
                0.8516022658927653),
        "cocsm": ([251, 10, 395, 139, 385, 102, 340, 129, 19, 390],
                  0.8655809530828191),
        "rss_baseline": ([5, 117, 147, 152, 217, 270, 349, 350, 358, 390],
                         0.019195148608281157)}),
    (10 ** 6, 8, 3, 1, {
        "csm": ([290, 339, 103, 119, 303, 254, 19, 151], 1.0883306798330228),
        "cocsm": ([270, 399, 120, 119, 384, 107, 17, 245], 1.0767728934305074),
        "rss_baseline": ([60, 158, 207, 288, 315, 327, 396, 399],
                         0.0031422066830039327)}),
    (300, 6, 4, 0, {
        "csm": ([195, 85, 398, 285, 15, 219], 0.47929998688658365),
        "cocsm": ([194, 84, 399, 304, 19, 199], 0.6394999831749009),
        "rss_baseline": ([47, 135, 196, 227, 238, 379], 0.07270472656848227)}),
]


@pytest.mark.parametrize("snapshots,k,cell,trial,expected", PINNED_TRIALS)
def test_trial_draws_are_pinned(snapshots, k, cell, trial, expected):
    cfg = SceneConfig(targets_k=k, snapshots=snapshots, seed=25)
    results = run_trial(cfg, _trial_rng(cfg.seed, cell, trial), snr_db=20.0)
    assert list(results) == list(expected)
    for scheme, (support, error_m) in expected.items():
        assert results[scheme].support.tolist() == support, scheme
        assert results[scheme].error_m == pytest.approx(error_m, rel=1e-9), scheme


# the nnls path at two addresses of PINNED_TRIALS
NNLS_PINNED_TRIALS = [
    (100, 4, 0, 0, {
        "csm": ([145, 368, 202, 126], 0.15567208752552078),
        "cocsm": ([126, 348, 145, 202], 0.2006715444962433),
        "rss_baseline": ([126, 145, 180, 369], 0.10978617813369798)}),
    (300, 6, 4, 0, {
        "csm": ([177, 135, 47, 379, 227, 257], 0.1828508646519851),
        "cocsm": ([378, 135, 47, 177, 227, 257], 0.18812637377268024),
        "rss_baseline": ([47, 135, 196, 227, 238, 379], 0.07270472656848227)}),
]


@pytest.mark.parametrize("snapshots,k,cell,trial,expected", NNLS_PINNED_TRIALS)
def test_nnls_trial_draws_are_pinned(snapshots, k, cell, trial, expected):
    # refinement's trf stops at xtol = 1e-8, so errors are pinned to 1e-6
    cfg = SceneConfig(targets_k=k, snapshots=snapshots, seed=25, solver="nnls")
    results = run_trial(cfg, _trial_rng(cfg.seed, cell, trial), snr_db=20.0)
    assert list(results) == list(expected)
    for scheme, (support, error_m) in expected.items():
        assert results[scheme].support.tolist() == support, scheme
        assert results[scheme].error_m == pytest.approx(error_m, rel=1e-6), scheme


def test_trial_keeps_the_failure_reason(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular design")

    monkeypatch.setattr(evaluation, "rss_baseline_locate", singular)
    cfg = SceneConfig(targets_k=2, snapshots=50, seed=6)
    results = run_trial(cfg, _trial_rng(cfg.seed, 0, 0), snr_db=25.0,
                        schemes=("csm", "rss_baseline", "bogus"))
    baseline = results["rss_baseline"]
    assert baseline.failed and math.isnan(baseline.error_m)
    assert baseline.failure == "LinAlgError: singular design"
    assert results["bogus"].failure == "ValueError: unknown scheme 'bogus'"
    assert not results["csm"].failed and results["csm"].failure is None


@pytest.mark.parametrize("changes,key", [
    ({"pd": PdOptics(detector_area=4e-4), "receiver_height": 0.5}, "pd"),
    ({"receiver_height": 0.5}, "receiver_height"),
    ({"led_cols": 3}, "led_cols"),
    ({"grid_pitch": 0.25}, "grid_pitch"),
    ({"half_power_angle": 50.0}, "half_power_angle"),
    ({"room_size": (4.0, 4.0, 3.5)}, "room_size"),
])
def test_trial_rejects_a_scene_of_another_room(changes, key):
    scene = build_scene(SceneConfig())
    config = dataclasses.replace(SceneConfig(targets_k=2), **changes)
    with pytest.raises(ValueError, match=f"^{key}: "):
        run_trial(config, _trial_rng(0, 0, 0), scene=scene)


def test_trial_accepts_a_scene_of_the_same_room():
    scene = build_scene(SceneConfig(room_size=(4, 4, 3)))
    config = SceneConfig(room_size=[4.0, 4.0, 3.0], targets_k=2, snapshots=10,
                         solver="nnls", scheme="csm", noise_variance=1e-12)
    alone = run_trial(config, _trial_rng(0, 0, 0))
    shared = run_trial(config, _trial_rng(0, 0, 0), scene=scene)
    for scheme in alone:
        assert alone[scheme].error_m == shared[scheme].error_m


def test_trial_fails_on_a_short_support(monkeypatch):
    def short_support(meas, corr_fp, k, grid, pairs, **kwargs):
        return np.arange(k - 1)

    monkeypatch.setattr(evaluation, "locate_cocsm", short_support)
    cfg = SceneConfig(targets_k=3, snapshots=50, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = run_trial(cfg, _trial_rng(cfg.seed, 0, 0), snr_db=25.0)
    cocsm = results["cocsm"]
    assert cocsm.failed and math.isnan(cocsm.error_m)
    assert cocsm.failure == ("ValueError: fewer estimates than "
                             "ground-truth targets")
    assert not results["csm"].failed and results["csm"].error_m < 1e5
    assert not results["rss_baseline"].failed


def test_scene_and_gain_model_compare_by_identity_and_hash():
    a, b = build_scene(SceneConfig()), build_scene(SceneConfig())
    assert a == a and a != b
    assert a.gain_model == a.gain_model and a.gain_model != b.gain_model
    assert len({a, b, a.gain_model, b.gain_model}) == 4


def test_scene_power_fingerprint_is_the_squared_gains():
    scene = build_scene(SceneConfig())
    assert scene.power_dict.matrix.shape == scene.gains.shape
    assert np.array_equal(scene.power_dict.matrix, np.square(scene.gains))  # bit-exact


def test_trial_with_nnls_solver_is_deterministic():
    cfg = SceneConfig(targets_k=4, snapshots=50, seed=6, solver="nnls")
    scene = build_scene(cfg)
    a = run_trial(cfg, _trial_rng(cfg.seed, 0, 0), scene=scene, snr_db=25.0)
    b = run_trial(cfg, _trial_rng(cfg.seed, 0, 0), scene=scene, snr_db=25.0)
    for scheme in ("csm", "cocsm"):
        assert not a[scheme].failed
        assert a[scheme].est_positions.shape == (4, 2)
        assert np.array_equal(a[scheme].est_positions,
                              scene.grid.centers_of(a[scheme].support))
        assert a[scheme].error_m == b[scheme].error_m
        assert np.array_equal(a[scheme].support, b[scheme].support)


def test_trial_quantization_error_under_exact_support():
    cfg = SceneConfig(targets_k=1, on_grid=False, noise_variance=0.0,
                      snapshots=10, seed=7)
    scene = build_scene(cfg)
    results = run_trial(cfg, _trial_rng(cfg.seed, 0, 0), scene=scene)
    res = results["cocsm"]
    assert res.exact_support
    offset = np.linalg.norm(
        res.true_positions[0] - scene.grid.centers_of(res.support)[0])
    assert res.error_m == pytest.approx(offset, rel=1e-12)


def test_trial_realized_snr_matches_request():
    cfg = SceneConfig(targets_k=2, snapshots=20, seed=8)
    results = run_trial(cfg, _trial_rng(cfg.seed, 0, 0), snr_db=17.0)
    assert results["csm"].snr_db == pytest.approx(17.0, abs=1e-9)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_trial_rejects_an_snr_that_names_no_noise_level(snr_db):
    cfg = SceneConfig(targets_k=3, snapshots=100)
    with pytest.raises(ValueError, match=f"snr_db={snr_db}"):
        run_trial(cfg, _trial_rng(cfg.seed, 0, 0), snr_db=snr_db)


def test_trial_at_infinite_snr_is_noiseless():
    cfg = SceneConfig(targets_k=3, snapshots=100)
    results = run_trial(cfg, _trial_rng(cfg.seed, 0, 0), snr_db=math.inf)
    assert all(r.snr_db == math.inf and not r.failed for r in results.values())
    noiseless = run_trial(cfg, _trial_rng(cfg.seed, 0, 0))  # the config's noise is 0
    np.testing.assert_array_equal(results["cocsm"].measurement,
                                  noiseless["cocsm"].measurement)


def test_campaign_single_cell_matches_run_trial():
    cfg = SceneConfig(targets_k=3, snapshots=30, seed=9)
    report = run_campaign(cfg, [3], [20.0], trials=1)
    direct = run_trial(dataclasses.replace(cfg, targets_k=3),
                       _trial_rng(cfg.seed, 0, 0), snr_db=20.0)
    for row in report.rows:
        assert row["trials"] == 1
        assert row["mean_error_m"] == direct[row["scheme"]].error_m
        assert row["std_error_m"] == 0.0


def test_campaign_prefix_is_stable_when_trials_grow():
    cfg = SceneConfig(targets_k=2, snapshots=20, seed=10)
    short = run_campaign(cfg, [2], [15.0], trials=2)
    long = run_campaign(cfg, [2], [15.0], trials=4)
    for scheme in SCHEMES:
        a = short.trial_records[(2, 15.0, scheme)]
        b = long.trial_records[(2, 15.0, scheme)][:2]
        assert [t.error_m for t in a] == [t.error_m for t in b]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_campaign_rows_independent_of_jobs():
    # and every trial's error and support, on 4 cells: 4 units (fewer than 7
    # jobs) and 20 units (not a multiple of 3 or 7)
    cfg = SceneConfig(targets_k=2, snapshots=20, seed=11)
    for trials in (1, 5):
        outcomes = []
        for jobs in (1, 2, 3, 7):
            report = run_campaign(cfg, [2, 4], [18.0, math.inf], trials, jobs=jobs)
            assert_no_child_left()
            outcomes.append((report.rows, {
                key: [(t.error_m, t.support) for t in records]
                for key, records in report.trial_records.items()}))
        for outcome in outcomes[1:]:
            np.testing.assert_equal(outcome, outcomes[0])


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_builds_one_scene(monkeypatch, tmp_path, jobs):
    # a file, not a list, so calls made in forked pool workers count too
    log = tmp_path / "build_scene.log"

    def counting_build_scene(config):
        with open(log, "a") as f:
            f.write("call\n")
        return build_scene(config)

    monkeypatch.setattr(evaluation, "build_scene", counting_build_scene)
    cfg = SceneConfig(snapshots=20, seed=15)
    report = run_campaign(cfg, [2, 3], [10.0, 20.0], trials=1, jobs=jobs)
    assert log.read_text().count("call") == 1
    assert all(row["failures"] == 0 for row in report.rows)


def test_serial_campaign_releases_its_scene():
    # a scene left behind would be inherited by the next campaign's children
    cfg = SceneConfig(snapshots=20, seed=15)
    run_campaign(cfg, [2], [10.0], trials=1, jobs=1)
    assert not [name for name, value in vars(evaluation).items()
                if isinstance(value, Scene)]


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its args do not fit ``__init__``."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


@pytest.mark.parametrize("where,fail,match", [
    ("child", "raise", "^trial failed$"),
    ("caller", "raise", "^trial failed$"),
    ("child", "unpicklable", "LocalError: trial failed"),
    ("child", "unloadable", "TwoArgError: trial failed"),
    ("child", "exit", "exit status 3 and no result"),
])
def test_a_share_that_fails_raises_in_the_caller(monkeypatch, where, fail, match):
    class LocalError(Exception):
        pass

    caller = os.getpid()
    run_trial = evaluation.run_trial

    def failing_run_trial(*args, **kwargs):
        if (os.getpid() == caller) != (where == "caller"):
            return run_trial(*args, **kwargs)
        if fail == "unpicklable":
            raise LocalError("trial failed")
        if fail == "unloadable":
            raise TwoArgError("trial", "failed")
        if fail == "exit":
            os._exit(3)
        raise RuntimeError("trial failed")

    monkeypatch.setattr(evaluation, "run_trial", failing_run_trial)
    with pytest.raises(RuntimeError, match=match):
        run_campaign(SceneConfig(snapshots=20, seed=3), [2, 3], [10.0], 2, jobs=3)
    assert_no_child_left()


def test_campaign_row_order_and_counts():
    cfg = SceneConfig(snapshots=10, seed=12)
    report = run_campaign(cfg, [2, 4], [10.0, 20.0], trials=1)
    assert len(report.rows) == 2 * 2 * 3
    keys = [(r["K"], r["snr_db"], r["scheme"]) for r in report.rows]
    assert keys == [(k, s, sch) for k in (2, 4) for s in (10.0, 20.0)
                    for sch in SCHEMES]


@pytest.mark.parametrize("k_list,snr_list,trials,jobs,key", [
    ([2], [10.0], 0, 1, "trials"),
    ([2], [10.0], 1, 0, "jobs"),
    ([2], [10.0], 1, -1, "jobs"),
    ([], [10.0], 1, 1, "k_list"),
    ([2], [], 1, 1, "snr_list"),
    ([2], [10.0, -math.inf], 1, 1, "snr_list"),
    ([2], [math.nan], 1, 1, "snr_list"),
    ("ab", [10.0], 1, 1, "k_list"),
    ([2.5], [10.0], 1, 1, "k_list"),
    ([True], [10.0], 1, 1, "k_list"),
    ([2], ["x"], 1, 1, "snr_list"),
    ([2], "20", 1, 1, "snr_list"),
    ([2], [True], 1, 1, "snr_list"),
    ([2], [10 ** 400], 1, 1, "snr_list"),
    ([2], [10.0], "x", 1, "trials"),
    ([2], [10.0], True, 1, "trials"),
    ([2], [10.0], 1.5, 1, "trials"),
    ([2], [10.0], 1, True, "jobs"),
    ([2], [10.0], 1, "2", "jobs"),
    ([2, 2], [20.0], 1, 1, "k_list"),
    ([2], [20, 20.0], 1, 1, "snr_list"),
    ([2], [math.inf, math.inf], 1, 1, "snr_list"),
    ([2], ["20"], 1, 1, "snr_list"),
    ([2], ["inf"], 1, 1, "snr_list"),
    ([0], [10.0], 1, 1, "k_list"),
])
def test_campaign_rejects_bad_inputs_before_building_the_scene(
        monkeypatch, k_list, snr_list, trials, jobs, key):
    def no_scene(config):
        raise AssertionError("the scene was built")

    monkeypatch.setattr(evaluation, "build_scene", no_scene)
    with pytest.raises(ConfigError, match=f"^{key}: "):
        run_campaign(SceneConfig(snapshots=10), k_list, snr_list, trials,
                     jobs=jobs)
