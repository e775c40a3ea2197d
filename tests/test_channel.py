import math

import numpy as np
import pytest

from vlp_sparse import (GainModel, PdOptics, SceneConfig,
                        build_correlation_fingerprint, build_gain_matrix,
                        build_grid, effective_area, gains_to_points,
                        lambertian_order, place_leds, radiant_intensity)
from vlp_sparse.channel import PairIndexMap

PD = PdOptics()


def closed_form_gain(dz, dist, pd, m):
    """Independent oracle: h = (m+1)/(2 pi) * area * gains * dz^(m+1) / d^(m+3)."""
    coeff = (m + 1) / (2 * math.pi) * pd.detector_area * pd.filter_gain \
        * pd.concentrator_gain
    return coeff * dz ** (m + 1) / dist ** (m + 3)


def link_gain(led, point, pd, m):
    """Gain of the single link from ``led`` to ``point`` (3,)."""
    return float(gains_to_points([led], np.asarray(point)[None, :], pd, m)[0, 0])


def test_lambertian_order_examples():
    assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-12)
    assert lambertian_order(45.0) == pytest.approx(2.0, abs=1e-12)
    # -ln 2 / ln cos 30deg, hand-evaluated
    assert lambertian_order(30.0) == pytest.approx(4.8188, abs=1e-3)


@pytest.mark.parametrize("angle", [0.0, 90.0])
def test_lambertian_order_rejects_domain_edges(angle):
    with pytest.raises(ValueError):
        lambertian_order(angle)


def test_radiant_intensity_peak_and_half():
    assert radiant_intensity(1.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-12)
    assert radiant_intensity(1.0, math.radians(60)) == pytest.approx(0.15915, abs=1e-5)
    assert radiant_intensity(3.7, math.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_effective_area_values_and_cutoff():
    assert float(effective_area(0.0, PD)) == pytest.approx(1e-4, rel=1e-15)
    assert float(effective_area(math.radians(60), PD)) == pytest.approx(5e-5, rel=1e-12)
    # hard zero just beyond the field of view
    assert float(effective_area(math.radians(85.0001), PD)) == 0.0
    assert float(effective_area(math.radians(85.0), PD)) > 0.0


def test_nadir_link_gain_matches_hand_value():
    cfg = SceneConfig()
    led = place_leds(cfg)[0]
    h = link_gain(led, np.array([0.5, 0.5, 0.85]), PD, 1.0)
    assert abs(h - 6.886e-6) <= 1e-9


def test_gain_zero_outside_fov():
    cfg = SceneConfig()
    led = place_leds(cfg)[0]
    # 60 deg incidence against a 30 deg field of view
    narrow = PdOptics(fov=30.0)
    point = np.array([0.5 + 2.15 * math.tan(math.radians(60)), 0.5, 0.85])
    assert link_gain(led, point, narrow, 1.0) == 0.0
    assert link_gain(led, point, PD, 1.0) > 0.0


def test_gain_linear_in_detector_area():
    led = place_leds(SceneConfig())[0]
    point = np.array([1.0, 2.0, 0.85])
    h1 = link_gain(led, point, PD, 1.0)
    h2 = link_gain(led, point, PdOptics(detector_area=2e-4), 1.0)
    assert h2 == pytest.approx(2 * h1, rel=1e-12)


def test_gain_requires_point_below_leds():
    led = place_leds(SceneConfig())[0]
    with pytest.raises(ValueError, match="below"):
        link_gain(led, np.array([0.5, 0.5, 3.0]), PD, 1.0)


def test_gain_matches_closed_form_on_random_links():
    rng = np.random.default_rng(0)
    cfg = SceneConfig()
    leds = place_leds(cfg)
    pts = np.column_stack([rng.uniform(0, 4, 1000), rng.uniform(0, 4, 1000),
                           rng.uniform(0.1, 2.0, 1000)])
    for m in (1.0, 2.0, 4.8188):
        gains = gains_to_points(leds, pts, PD, m)
        pos = np.array([led.position for led in leds])
        delta = pos[:, None, :] - pts[None, :, :]
        dz = delta[:, :, 2]
        dist = np.linalg.norm(delta, axis=2)
        expected = closed_form_gain(dz, dist, PD, m)
        expected[dz / dist < math.cos(math.radians(PD.fov))] = 0.0
        np.testing.assert_allclose(gains, expected, rtol=1e-12)


def test_gain_model_matches_gains_and_finite_differences():
    leds = place_leds(SceneConfig())
    model = GainModel(leds, PD, 1.5, 0.85)
    xy = np.random.default_rng(1).uniform(0.0, 4.0, (5, 2))
    gains, grads = model.gains_and_gradients(xy)
    points = np.column_stack([xy, np.full(5, 0.85)])
    assert np.array_equal(gains, gains_to_points(leds, points, PD, 1.5))
    step = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = step
        upper, _ = model.gains_and_gradients(xy + shift)
        lower, _ = model.gains_and_gradients(xy - shift)
        np.testing.assert_allclose(grads[:, :, axis],
                                   (upper - lower) / (2 * step),
                                   rtol=1e-6, atol=1e-9 * np.max(gains))


def test_gain_model_gradient_zero_outside_fov():
    led = place_leds(SceneConfig())[0]
    far = np.array([[0.5 + 2.15 * math.tan(math.radians(60)), 0.5]])
    gains, grads = GainModel([led], PdOptics(fov=30.0), 1.0, 0.85) \
        .gains_and_gradients(far)
    assert gains[0, 0] == 0.0
    assert np.all(grads == 0.0)


def test_gain_decays_with_horizontal_distance():
    led = place_leds(SceneConfig(led_rows=1, led_cols=1))[0]
    radii = np.linspace(0.0, 1.5, 40)
    pts = np.column_stack([led.position[0] + radii,
                           np.full(40, led.position[1]), np.full(40, 0.85)])
    gains = gains_to_points([led], pts, PD, 1.0)[0]
    assert np.all(np.diff(gains) < 0)


def test_gain_matrix_shape_and_entries():
    cfg = SceneConfig()
    grid = build_grid(cfg)
    leds = place_leds(cfg)
    H = build_gain_matrix(leds, grid, PD, 1.0)
    assert H.shape == (16, 400)
    assert H[3, 17] == link_gain(leds[3], grid.centers[17], PD, 1.0)
    assert np.all(H >= 0)


def test_single_link_gain_matrix():
    cfg = SceneConfig(room_size=(1.0, 1.0, 3.0), grid_pitch=1.0,
                      led_rows=1, led_cols=1)
    H = build_gain_matrix(place_leds(cfg), build_grid(cfg), PD, 1.0)
    assert H.shape == (1, 1)
    assert abs(H[0, 0] - 6.886e-6) <= 1e-9  # nadir link again


def test_gain_matrix_all_zero_outside_fov():
    cfg = SceneConfig()
    pin = PdOptics(fov=1.0)  # nothing within 1 degree of vertical off-nadir grid
    H = build_gain_matrix(place_leds(cfg), build_grid(cfg), pin, 1.0)
    assert np.count_nonzero(H) < H.size  # clipped links are exact zeros
    assert np.all(H[H == 0] == 0.0)


def test_power_fingerprint_squares_entries():
    H = np.array([[3.0, 0.0], [1.5, 2.0]])
    psi, pairs = build_correlation_fingerprint(H)
    J = psi[pairs.diagonal_rows]
    assert np.array_equal(J, np.array([[9.0, 0.0], [2.25, 4.0]]))


def test_default_scene_fingerprint_rows_all_positive():
    # FOV 85 deg from 2.15 m above the plane covers the whole 4x4 m floor
    cfg = SceneConfig()
    J = np.square(build_gain_matrix(place_leds(cfg), build_grid(cfg), PD, 1.0))
    assert np.all(J.max(axis=1) > 0)
    assert np.all(J > 0)


def test_default_scene_fingerprint_columns_distinct():
    cfg = SceneConfig()
    J = np.square(build_gain_matrix(place_leds(cfg), build_grid(cfg), PD, 1.0))
    assert np.unique(J.T, axis=0).shape[0] == J.shape[1]


def test_correlation_fingerprint_two_anchor_example():
    H = np.array([[3.0], [4.0]])
    psi, pairs = build_correlation_fingerprint(H)
    assert psi.shape == (3, 1)
    np.testing.assert_array_equal(psi[:, 0], [9.0, 12.0, 16.0])
    assert list(zip(pairs.first, pairs.second)) == [(0, 0), (0, 1), (1, 1)]


def test_correlation_fingerprint_row_count_and_diagonal():
    cfg = SceneConfig()
    H = build_gain_matrix(place_leds(cfg), build_grid(cfg), PD, 1.0)
    psi, pairs = build_correlation_fingerprint(H)
    assert psi.shape == (136, 400)
    assert np.array_equal(psi[pairs.diagonal_rows], np.square(H))  # bit-exact


def test_pair_index_map_is_a_bijection():
    for m in (1, 2, 5, 7, 16):
        pairs = PairIndexMap.for_anchor_count(m)
        assert pairs.n_pairs == m * (m + 1) // 2
        rows = list(zip(pairs.first.tolist(), pairs.second.tolist()))
        assert len(rows) == pairs.n_pairs
        # every pair i <= j has exactly one row
        assert sorted(rows) == [(i, j) for i in range(m) for j in range(i, m)]


def test_pair_order_is_lexicographic():
    pairs = PairIndexMap.for_anchor_count(4)
    listed = list(zip(pairs.first.tolist(), pairs.second.tolist()))
    assert listed == sorted(listed)


def test_correlation_consistency_with_dense_outer_product():
    # Psi @ theta must equal the upper triangle of H diag(theta) H^T
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(2, 6)
        n = rng.integers(2, 11)
        H = rng.uniform(0.0, 2.0, size=(m, n))
        psi, pairs = build_correlation_fingerprint(H)
        theta = (rng.random(n) < 0.4).astype(float)
        dense = H @ np.diag(theta) @ H.T
        np.testing.assert_allclose(psi @ theta,
                                   dense[pairs.first, pairs.second],
                                   rtol=1e-12, atol=0)
