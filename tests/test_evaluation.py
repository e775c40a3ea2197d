import dataclasses
import math
from itertools import permutations

import numpy as np
import pytest

from vlp_sparse import (PdOptics, SceneConfig, aligned_estimates, build_scene,
                        cell_quantization_floor, gain_to_range,
                        gains_to_points, match_and_error, place_leds,
                        rss_baseline_locate, run_campaign, run_trial)
from vlp_sparse import evaluation, measurement
from vlp_sparse.evaluation import _trial_rng
from vlp_sparse.scenario import LedAnchor

PD = PdOptics()


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


def test_match_pads_underreturned_estimates():
    truth = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.warns(UserWarning, match="under-returned"):
        delta = match_and_error(np.array([[0.0, 0.0]]), truth)
    assert delta > 1e5  # sentinel dominates


def test_match_rejects_empty_and_excess():
    with pytest.raises(ValueError):
        match_and_error(np.empty((0, 2)), np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError, match="more estimates"):
        match_and_error(np.zeros((3, 2)), np.zeros((2, 2)))


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
    est = rss_baseline_locate(gains ** 2, leds, PD, 1.0, 0.85)
    assert np.linalg.norm(est - [1.3, 2.7]) < 1e-6


def test_baseline_self_consistent_across_interior_positions():
    cfg = SceneConfig()
    leds = place_leds(cfg)
    xs = np.linspace(0.2, 3.8, 7)
    pts = np.array([[x, y, 0.85] for x in xs for y in xs])
    gains = gains_to_points(leds, pts, PD, 1.0)
    for col, pt in zip(gains.T, pts):
        est = rss_baseline_locate(col ** 2, leds, PD, 1.0, 0.85)
        assert np.linalg.norm(est - pt[:2]) < 1e-6


def test_baseline_self_consistent_for_fractional_lambertian_order():
    from vlp_sparse import lambertian_order
    cfg = SceneConfig(half_power_angle=70.0)
    m = lambertian_order(70.0)  # ~= 0.65, non-integer exponent path
    leds = place_leds(cfg)
    gains = gains_to_points(leds, np.array([[3.1, 0.9, 0.85]]), PD, m)[:, 0]
    est = rss_baseline_locate(gains ** 2, leds, PD, m, 0.85)
    assert np.linalg.norm(est - [3.1, 0.9]) < 1e-6


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
        rss_baseline_locate(np.zeros(16), leds, PD, 1.0, 0.85)


def test_baseline_rejects_collinear_anchors():
    line = [LedAnchor(i, np.array([1.0 + i, 2.0, 3.0])) for i in range(3)]
    gains = gains_to_points(line, np.array([[2.0, 2.0, 0.85]]), PD, 1.0)[:, 0]
    with pytest.raises(ValueError, match="collinear"):
        rss_baseline_locate(gains ** 2, line, PD, 1.0, 0.85)


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
    batch = rss_baseline_locate(rss, leds, PD, 1.0, 0.85)
    assert batch.shape == (6, 2)
    for t in range(6):
        single = rss_baseline_locate(rss[:, t], leds, PD, 1.0, 0.85)
        assert single.shape == (2,)
        np.testing.assert_allclose(batch[t], single, rtol=0, atol=1e-12)


def test_baseline_batch_recovers_noiseless_targets():
    leds = place_leds(SceneConfig())
    pts, _ = _batch_rss(leds)
    rss = gains_to_points(leds, pts, PD, 1.0) ** 2
    rss[[0, 5, 9], 1] = 0.0
    est = rss_baseline_locate(rss, leds, PD, 1.0, 0.85)
    assert np.max(np.linalg.norm(est - pts[:, :2], axis=1)) < 1e-6


def test_baseline_batch_fails_whole_call_on_one_short_column():
    leds = place_leds(SceneConfig())
    _, rss = _batch_rss(leds)
    rss[2:, 3] = 0.0
    with pytest.raises(ValueError, match="fewer than 3 anchors with positive RSS"):
        rss_baseline_locate(rss, leds, PD, 1.0, 0.85)


def test_trial_noiseless_multi_target_baseline_is_exact():
    cfg = SceneConfig(targets_k=6, noise_variance=0.0, snapshots=100, seed=13)
    results = run_trial(cfg, _trial_rng(cfg.seed, 0, 0),
                        schemes=("rss_baseline",))
    baseline = results["rss_baseline"]
    assert baseline.error_m < 1e-6
    assert len(baseline.measurement) == 6
    assert all(m.model == "power" and m.values.shape == (16,)
               for m in baseline.measurement)


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
    np.testing.assert_array_equal(both["csm"].measurement.values,
                                  alone["csm"].measurement.values)
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
    for scheme in short.schemes:
        a = short.trial_records[(2, 15.0, scheme)]
        b = long.trial_records[(2, 15.0, scheme)][:2]
        assert [t.error_m for t in a] == [t.error_m for t in b]


def test_campaign_rows_independent_of_jobs():
    cfg = SceneConfig(targets_k=2, snapshots=20, seed=11)
    r1 = run_campaign(cfg, [2, 4], [18.0], trials=3, jobs=1)
    r2 = run_campaign(cfg, [2, 4], [18.0], trials=3, jobs=2)
    assert r1.rows == r2.rows


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
    # a scene left behind would be inherited by the next campaign's workers
    cfg = SceneConfig(snapshots=20, seed=15)
    run_campaign(cfg, [2], [10.0], trials=1, jobs=1)
    with pytest.raises(RuntimeError, match="no scene"):
        evaluation._run_cell((cfg, 0, 2, 10.0, 1, ("csm",)))


def test_campaign_row_order_and_counts():
    cfg = SceneConfig(snapshots=10, seed=12)
    report = run_campaign(cfg, [2, 4], [10.0, 20.0], trials=1)
    assert len(report.rows) == 2 * 2 * 3
    keys = [(r["K"], r["snr_db"], r["scheme"]) for r in report.rows]
    assert keys == [(k, s, sch) for k in (2, 4) for s in (10.0, 20.0)
                    for sch in report.schemes]
