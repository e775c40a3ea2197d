import math

import numpy as np
import pytest

from vlp_sparse import (GainModel, PdOptics, SceneConfig,
                        build_correlation_fingerprint, build_grid, build_scene,
                        gain_to_range, gains_to_points, lambertian_order,
                        place_leds)
from vlp_sparse.channel import PairIndexMap

PD = PdOptics()


def closed_form_gain(dz, dist, pd, m):
    """Independent oracle: h = (m+1)/(2 pi) * area * gains * dz^(m+1) / d^(m+3)."""
    coeff = (m + 1) / (2 * math.pi) * pd.detector_area * pd.filter_gain \
        * pd.concentrator_gain
    return coeff * dz ** (m + 1) / dist ** (m + 3)


def link_gain(led, point, pd, m):
    """Gain of the single link from ``led`` to ``point`` (3,)."""
    return float(gains_to_points(led[None], np.asarray(point)[None, :], pd, m)[0, 0])


def cell_points(cfg):
    """The grid's (N, 2) cell centers as (N, 3) points at the receiver height."""
    centers = build_grid(cfg).centers
    return np.column_stack([centers, np.full(len(centers), cfg.receiver_height)])


def test_lambertian_order_examples():
    assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-12)
    assert lambertian_order(45.0) == pytest.approx(2.0, abs=1e-12)
    # -ln 2 / ln cos 30deg, hand-evaluated
    assert lambertian_order(30.0) == pytest.approx(4.8188, abs=1e-3)


@pytest.mark.parametrize("angle", [0.0, 90.0])
def test_lambertian_order_rejects_domain_edges(angle):
    with pytest.raises(ValueError):
        lambertian_order(angle)


def angle_form_gain(dz, dist, pd, m):
    """Independent oracle in the angle form: (m+1)/(2 pi) cos^m(alpha) times
    area * gains * cos(phi) / d^2, zero beyond the field of view."""
    angle = np.arccos(np.minimum(dz / dist, 1.0))
    intensity = (m + 1) / (2 * math.pi) * np.cos(angle) ** m
    area = pd.detector_area * pd.filter_gain * pd.concentrator_gain * np.cos(angle)
    return np.where(angle <= math.radians(pd.fov), intensity * area / dist ** 2, 0.0)


def edge_links(led, fov_deg, offset_rad, dz):
    """Points at vertical gaps ``dz`` below ``led`` whose links leave the
    vertical at ``fov_deg`` degrees plus ``offset_rad`` radians."""
    reach = dz * math.tan(math.radians(fov_deg) + offset_rad)
    return np.column_stack([led[0] + reach, np.full(len(dz), led[1]),
                            led[2] - dz])


def test_nadir_peak_and_sixty_degree_link():
    led = place_leds(SceneConfig())[0]
    gap = 2.15
    nadir = link_gain(led, led - [0.0, 0.0, gap], PD, 1.0)
    # radiant intensity 1/pi at nadir times the full 1 cm^2 area
    assert nadir == pytest.approx(1 / math.pi * 1e-4 / gap ** 2, rel=1e-13)
    # m = 1 at 60 deg: intensity cos(60)/pi, area 1e-4 cos(60), distance 2 gap
    sixty = edge_links(led, 60.0, 0.0, np.array([gap]))[0]
    assert link_gain(led, sixty, PD, 1.0) == pytest.approx(
        0.5 / math.pi * 0.5e-4 / (2 * gap) ** 2, rel=1e-12)
    ring = np.random.default_rng(3).uniform(-2, 2, (500, 2))
    plane = np.column_stack([led[:2] + ring, np.full(500, led[2] - gap)])
    assert np.all(gains_to_points(led[None], plane, PD, 1.0) < nadir)


def test_gain_cutoff_at_85_degree_edge():
    led = place_leds(SceneConfig())[0]
    gaps = np.array([0.5, 2.15])
    assert np.all(gains_to_points(led[None], edge_links(led, 85.0001, 0.0, gaps), PD, 1.0) == 0.0)
    assert np.all(gains_to_points(led[None], edge_links(led, 84.9999, 0.0, gaps), PD, 1.0) > 0.0)


def test_gains_match_angle_form_on_random_links():
    # angles up to 88 deg: beyond that the oracle's cos(arccos(x)) alone
    # loses about 1e-16 / x relative, more than the tolerance
    rng = np.random.default_rng(16)
    led = place_leds(SceneConfig())[5]
    for fov in (20.0, 37.5, 55.0, 72.5, 85.0, 90.0):
        for m in (0.65, 1.7, 4.82):
            pd = PdOptics(detector_area=rng.uniform(1e-5, 1e-3),
                          filter_gain=rng.uniform(0.5, 2.0),
                          concentrator_gain=rng.uniform(1.0, 3.0), fov=fov)
            dz = rng.uniform(0.05, 2.95, 12000)
            reach = dz * np.tan(np.radians(rng.uniform(0.0, 88.0, 12000)))
            azimuth = rng.uniform(0.0, 2 * math.pi, 12000)
            pts = led - np.column_stack([reach * np.cos(azimuth),
                                                  reach * np.sin(azimuth), dz])
            delta = led - pts
            expected = angle_form_gain(delta[:, 2], np.linalg.norm(delta, axis=1), pd, m)
            gains = gains_to_points(led[None], pts, pd, m)[0]
            assert np.array_equal(gains == 0.0, expected == 0.0)
            np.testing.assert_allclose(gains, expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("fov", [20.0, 45.0, 60.0, 85.0, 89.9])
def test_fov_edge_links_fall_on_the_right_side(fov):
    led = place_leds(SceneConfig())[0]
    gaps = np.random.default_rng(int(fov * 10)).uniform(0.1, 2.9, 200)
    pd = PdOptics(fov=fov)
    assert np.all(gains_to_points(led[None], edge_links(led, fov, 1e-9, gaps), pd, 1.3) == 0.0)
    assert np.all(gains_to_points(led[None], edge_links(led, fov, -1e-9, gaps), pd, 1.3) > 0.0)


def test_fov_of_90_degrees_counts_every_link_below_the_leds():
    rng = np.random.default_rng(90)
    leds = place_leds(SceneConfig())
    pts = np.column_stack([rng.uniform(-20, 24, 2000), rng.uniform(-20, 24, 2000),
                           3.0 - 10.0 ** rng.uniform(-15, 0.4, 2000)])
    assert np.all(gains_to_points(leds, pts, PdOptics(fov=90.0), 2.5) > 0.0)


def test_gain_to_range_inverts_gains_on_random_links():
    rng = np.random.default_rng(17)
    anchors = place_leds(SceneConfig())
    pd = PdOptics(fov=90.0)
    for m in (0.65, 1.0, 3.3, 4.82):
        pts = np.column_stack([rng.uniform(-1, 5, 1000), rng.uniform(-1, 5, 1000),
                               rng.uniform(0.1, 2.9, 1000)])
        delta = anchors[:, None, :] - pts[None, :, :]
        ranges = gain_to_range(gains_to_points(anchors, pts, pd, m), delta[:, :, 2], pd, m)
        np.testing.assert_allclose(ranges, np.linalg.norm(delta, axis=2),
                                   rtol=1e-12, atol=0)


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
        delta = leds[:, None, :] - pts[None, :, :]
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
    assert np.array_equal(model.gains(xy), gains)
    delta = leds[:, None, :] - points[None, :, :]
    np.testing.assert_allclose(gains, closed_form_gain(delta[:, :, 2],
                                                       np.linalg.norm(delta, axis=2),
                                                       PD, 1.5), rtol=1e-13, atol=0)
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
    gains, grads = GainModel(led[None], PdOptics(fov=30.0), 1.0, 0.85) \
        .gains_and_gradients(far)
    assert gains[0, 0] == 0.0
    assert np.all(grads == 0.0)


def test_gain_decays_with_horizontal_distance():
    led = place_leds(SceneConfig(led_rows=1, led_cols=1))[0]
    radii = np.linspace(0.0, 1.5, 40)
    pts = np.column_stack([led[0] + radii,
                           np.full(40, led[1]), np.full(40, 0.85)])
    gains = gains_to_points(led[None], pts, PD, 1.0)[0]
    assert np.all(np.diff(gains) < 0)


def test_gain_matrix_shape_and_entries():
    cfg = SceneConfig()
    points = cell_points(cfg)
    leds = place_leds(cfg)
    H = gains_to_points(leds, points, PD, 1.0)
    assert H.shape == (16, 400)
    assert H[3, 17] == link_gain(leds[3], points[17], PD, 1.0)
    assert np.all(H >= 0)


def test_single_link_gain_matrix():
    cfg = SceneConfig(room_size=(1.0, 1.0, 3.0), grid_pitch=1.0,
                      led_rows=1, led_cols=1)
    H = gains_to_points(place_leds(cfg), cell_points(cfg), PD, 1.0)
    assert H.shape == (1, 1)
    assert abs(H[0, 0] - 6.886e-6) <= 1e-9  # nadir link again


def test_gain_matrix_all_zero_outside_fov():
    cfg = SceneConfig()
    pin = PdOptics(fov=1.0)  # nothing within 1 degree of vertical off-nadir grid
    H = gains_to_points(place_leds(cfg), cell_points(cfg), pin, 1.0)
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
    J = np.square(gains_to_points(place_leds(cfg), cell_points(cfg), PD, 1.0))
    assert np.all(J.max(axis=1) > 0)
    assert np.all(J > 0)


def test_default_scene_fingerprint_columns_distinct():
    cfg = SceneConfig()
    J = np.square(gains_to_points(place_leds(cfg), cell_points(cfg), PD, 1.0))
    assert np.unique(J.T, axis=0).shape[0] == J.shape[1]


def test_scene_gains_sample_the_law_at_the_receiver_height():
    # the grid has no height: the scene's gain model supplies it
    cfg = SceneConfig(grid_pitch=0.25, led_rows=3, receiver_height=1.1)
    ix, iy = np.meshgrid(np.arange(16), np.arange(16))
    points = np.column_stack([(ix.ravel() + 0.5) * 0.25, (iy.ravel() + 0.5) * 0.25,
                              np.full(256, 1.1)])
    expected = gains_to_points(place_leds(cfg), points, PD,
                               lambertian_order(cfg.half_power_angle))
    assert np.array_equal(build_scene(cfg).gains, expected)  # bit for bit


def test_correlation_fingerprint_two_anchor_example():
    H = np.array([[3.0], [4.0]])
    psi, pairs = build_correlation_fingerprint(H)
    assert psi.shape == (3, 1)
    np.testing.assert_array_equal(psi[:, 0], [9.0, 12.0, 16.0])
    assert list(zip(pairs.first, pairs.second)) == [(0, 0), (0, 1), (1, 1)]


def test_correlation_fingerprint_row_count_and_diagonal():
    cfg = SceneConfig()
    H = gains_to_points(place_leds(cfg), cell_points(cfg), PD, 1.0)
    psi, pairs = build_correlation_fingerprint(H)
    assert psi.shape == (136, 400)
    assert np.array_equal(psi[pairs.diagonal_rows], np.square(H))  # bit-exact


def test_pair_index_map_is_a_bijection():
    for m in (1, 2, 5, 7, 16):
        pairs = PairIndexMap.for_anchor_count(m)
        rows = list(zip(pairs.first.tolist(), pairs.second.tolist()))
        assert len(rows) == m * (m + 1) // 2
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
