"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 7 runs the
``nnls`` solver (nonnegative grid recovery plus off-grid refinement); greedy
OMP cannot recover multi-target supports on these all-positive fingerprint
dictionaries, whose columns share a large common component.  Criterion 6
runs the campaign with the default OMP solver and is a known failure, kept
as stated rather than weakened; its docstring gives both causes.
"""

import math
import time
from itertools import permutations

import numpy as np
import pytest

from oracles import brute_force_support
from vlp_sparse import (SCHEMES, PdOptics, SceneConfig, build_scene,
                        cell_quantization_floor, gains_to_points,
                        indicator_from_cells, locate_cocsm, locate_csm,
                        match_and_error, omp, recoverability_advisory,
                        remove_noise_floor, sample_targets, snr_to_noise_variance,
                        synthesize_ideal_correlation, synthesize_ideal_power,
                        synthesize_snapshot_correlation,
                        synthesize_snapshot_power)
from vlp_sparse.cli import main as cli_main
from vlp_sparse.evaluation import run_campaign


def _report(n, name, started, detail=""):
    print(f"CRITERION {n:02d} {name}: PASS ({time.monotonic() - started:.1f}s)"
          + (f" {detail}" if detail else ""))


def test_criterion_01_channel_closed_form():
    """1e5 random links match the analytic gain law to 1e-12; FOV cutoff exact."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    links = 0
    for _ in range(100):
        pd = PdOptics(detector_area=float(rng.uniform(1e-5, 5e-4)),
                      filter_gain=float(rng.uniform(0.5, 3.0)),
                      concentrator_gain=float(rng.uniform(0.5, 3.0)),
                      fov=float(rng.uniform(20.0, 90.0)))
        m = float(rng.uniform(0.7, 5.0))
        anchor = np.array([[rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(2.0, 3.0)]])
        pts = np.column_stack([rng.uniform(-2, 6, 1000), rng.uniform(-2, 6, 1000),
                               rng.uniform(0.05, anchor[0, 2] - 0.05, 1000)])
        gains = gains_to_points(anchor, pts, pd, m)[0]
        delta = anchor - pts
        dz = delta[:, 2]
        dist = np.linalg.norm(delta, axis=1)
        coeff = (m + 1) / (2 * math.pi) * pd.detector_area * pd.filter_gain \
            * pd.concentrator_gain
        expected = coeff * dz ** (m + 1) / dist ** (m + 3)
        inside = dz / dist >= math.cos(math.radians(pd.fov))
        np.testing.assert_allclose(gains[inside], expected[inside], rtol=1e-12)
        assert np.all(gains[~inside] == 0.0), "FOV cutoff must be an exact zero"
        links += 1000
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    _report(1, "channel-closed-form", started, f"{links} links")


def test_criterion_02_fingerprint_structure():
    """Psi has M(M+1)/2 rows, embeds J on i==j rows, and matches the dense model."""
    started = time.monotonic()
    scene = build_scene(SceneConfig())
    assert scene.corr_dict.matrix.shape == (136, 400)
    assert np.array_equal(scene.corr_dict.matrix[scene.pairs.diagonal_rows],
                          scene.power_dict.matrix)
    rng = np.random.default_rng(102)
    for _ in range(100):
        k = int(rng.integers(1, 11))
        cells = rng.choice(400, size=k, replace=False)
        theta = indicator_from_cells(cells, 400)
        dense = scene.gains @ np.diag(theta) @ scene.gains.T
        np.testing.assert_allclose(
            scene.corr_dict.matrix @ theta,
            dense[scene.pairs.first, scene.pairs.second], rtol=1e-12, atol=0)
    _report(2, "fingerprint-structure", started)


def test_criterion_03_single_target_exhaustive_sweep():
    """Noiseless ideal measurements recover every one of the 400 cells exactly."""
    started = time.monotonic()
    scene = build_scene(SceneConfig())
    for cell in range(scene.grid.n):
        theta = indicator_from_cells([cell], scene.grid.n)
        meas_p = synthesize_ideal_power(scene.power_dict.matrix, theta, 0.0)
        support_p = locate_csm(meas_p, scene.power_dict.matrix, 1, scene.grid,
                               solver="omp")
        assert support_p.tolist() == [cell], f"csm missed cell {cell}"
        meas_c = synthesize_ideal_correlation(scene.corr_dict.matrix, theta, 0.0,
                                              scene.pairs)
        support_c = locate_cocsm(meas_c, scene.corr_dict.matrix, 1, scene.grid,
                                 scene.pairs, solver="omp")
        assert support_c.tolist() == [cell], f"cocsm missed cell {cell}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(3, "single-target-sweep", started, "400/400 both schemes")


def test_criterion_04_oracle_equivalence():
    """OMP equals the exhaustive oracle on 200 noiseless exact-sparse instances."""
    started = time.monotonic()
    rng = np.random.default_rng(104)
    agree = 0
    for _ in range(200):
        rows = int(rng.integers(12, 25))
        cols = int(rng.integers(8, 25))
        k = int(rng.integers(1, 3))
        A = rng.standard_normal((rows, cols))
        support = np.sort(rng.choice(cols, size=k, replace=False))
        b = A[:, support] @ rng.uniform(0.5, 2.0, size=k)
        got = set(omp(A, b, k).support.tolist())
        oracle = set(brute_force_support(A, b, k).support.tolist())
        assert got == oracle == set(support.tolist()), \
            f"disagreement: omp={got} oracle={oracle} truth={set(support.tolist())}"
        agree += 1
    _report(4, "oracle-equivalence", started, f"{agree}/200")


def test_criterion_05_snapshot_convergence():
    """Empirical estimators approach the ideal models as snapshots grow."""
    started = time.monotonic()
    scene = build_scene(SceneConfig())
    _, true_cells = sample_targets(scene.grid, 4, True, np.random.default_rng(105))
    theta = indicator_from_cells(true_cells, scene.grid.n)
    gains = scene.gains[:, true_cells]
    ideal_p = scene.power_dict.matrix @ theta
    ideal_c = scene.corr_dict.matrix @ theta
    errs_p, errs_c = [], []
    for snaps in (10 ** 2, 10 ** 4, 10 ** 6):
        mp = synthesize_snapshot_power(gains, 0.0, snaps, 1050,
                                       np.random.default_rng(1051))
        mc = synthesize_snapshot_correlation(gains, 0.0, snaps, 1050,
                                             np.random.default_rng(1051),
                                             scene.pairs)
        errs_p.append(float(np.max(np.abs(mp - ideal_p) / ideal_p)))
        errs_c.append(float(np.max(np.abs(mc - ideal_c)
                                   / np.abs(ideal_c))))
    for errs, tag in ((errs_p, "power"), (errs_c, "correlation")):
        assert errs[0] >= errs[1] >= errs[2], f"{tag} error not non-increasing: {errs}"
        assert errs[2] < 1e-2, f"{tag} error at 1e6 snapshots: {errs[2]:.2e}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(5, "snapshot-convergence", started,
            f"power {errs_p[2]:.1e}, correlation {errs_c[2]:.1e} at 1e6")


def test_criterion_06_scheme_ordering_benchmark():
    """Campaign at 20 dB, 1e4 snapshots: correlation <= power <= baseline per K.

    Known-failing benchmark, for two causes.  The campaign runs the default
    OMP solver, whose first pick for two or more targets on this
    all-positive dictionary is a cell between them, so both cooperative
    schemes plateau near 0.6-0.9 m (the ``nnls`` solver removes this cause).
    And the ``csm <= rss_baseline`` leg cannot hold for any scheme that
    reports cell centers: the per-target lateration baseline, averaging 1e4
    snapshots of each target alone over 16 anchors, reaches 1-3 cm, below the
    0.0765 m grid quantization floor that exact-support trials sit at.
    The assertions are kept as stated rather than loosened to match.
    """
    started = time.monotonic()
    k_list = [2, 4, 6, 8, 10]
    config = SceneConfig(snapshots=10 ** 4, seed=106)
    report = run_campaign(config, k_list, [20.0], trials=200)
    elapsed = time.monotonic() - started
    means = {(row["K"], row["scheme"]): row["mean_error_m"]
             for row in report.rows}
    lines = [f"K={k}: " + " ".join(f"{s}={means[(k, s)]:.3f}"
                                   for s in SCHEMES) for k in k_list]
    detail = "; ".join(lines)
    assert elapsed < 900.0, f"runtime {elapsed:.1f}s exceeds 15min"
    for k in k_list:
        assert means[(k, "cocsm")] <= means[(k, "csm")], \
            f"cocsm > csm at K={k}: {detail}"
        assert means[(k, "csm")] <= means[(k, "rss_baseline")], \
            f"csm > baseline at K={k}: {detail}"
    for scheme in SCHEMES:
        series = [means[(k, scheme)] for k in k_list]
        inversions = sum(b < a - 1e-12 for a, b in zip(series, series[1:]))
        assert inversions <= 1, \
            f"{scheme} series not non-decreasing in K (>{inversions} inversions): {series}"
    _report(6, "scheme-ordering-benchmark", started, detail)


def test_criterion_07_quantization_floor():
    """Off-grid K=8 at 40 dB, 1e6 snapshots: sub-0.2 m mean, floor when exact.

    Uses the ``nnls`` solver: nonnegative least squares finds the grid
    support, and off-grid refinement against the continuous gain model
    removes the mismatch of positions inside their cells; the reported
    positions stay cell centers, so exact-support trials sit at the floor.
    """
    started = time.monotonic()
    config = SceneConfig()
    scene = build_scene(config)
    floor = cell_quantization_floor(config.grid_pitch)
    assert floor == pytest.approx(0.0765, abs=2e-4)
    trials = 100
    errors, exact_offsets = [], []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(107, spawn_key=(t,)))
        true_positions, true_cells = sample_targets(scene.grid, 8, False, rng)
        theta = indicator_from_cells(true_cells, scene.grid.n)
        noise_var = snr_to_noise_variance(
            float(np.mean(scene.power_dict.matrix @ theta)), 40.0)
        pts = np.column_stack([true_positions, np.full(8, 0.85)])
        gains = gains_to_points(scene.gain_model.anchors, pts, config.pd,
                                scene.gain_model.m)
        seeds = rng.integers(0, 2 ** 63, size=2)
        meas = synthesize_snapshot_correlation(
            gains, noise_var, 10 ** 6, int(seeds[0]),
            np.random.default_rng(int(seeds[1])), scene.pairs)
        support = locate_cocsm(remove_noise_floor(meas, noise_var, scene.pairs),
                               scene.corr_dict.matrix, 8, scene.grid,
                               scene.pairs, solver="nnls",
                               gain_model=scene.gain_model)
        err = match_and_error(scene.grid.centers_of(support), true_positions)
        errors.append(err)
        if set(support.tolist()) == set(true_cells.tolist()):
            exact_offsets.append(err)
    mean_err = float(np.mean(errors))
    assert mean_err < 0.2, \
        (f"cocsm mean error {mean_err:.3f} m >= 0.2 m "
         f"({len(exact_offsets)}/{trials} exact-support trials)")
    assert exact_offsets, "no exact-support trials to compare with the floor"
    exact_mean = float(np.mean(exact_offsets))
    assert abs(exact_mean - floor) <= 0.2 * floor, \
        f"exact-support mean {exact_mean:.4f} not within 20% of floor {floor:.4f}"
    _report(7, "quantization-floor", started,
            f"mean {mean_err:.4f}, exact-support mean {exact_mean:.4f}")


def test_criterion_08_recoverability_advisory():
    """Advisory output matches the hand computation for the default scene."""
    started = time.monotonic()
    csm = recoverability_advisory(16, 400, 8)
    assert round(csm.threshold, 1) == 31.3
    assert round(csm.ratio, 2) == 0.51
    assert csm.flagged
    cocsm = recoverability_advisory(136, 400, 8)
    assert round(cocsm.threshold, 1) == 31.3
    assert round(cocsm.ratio, 2) == 4.35
    assert not cocsm.flagged
    _report(8, "recoverability-advisory", started,
            "16 flagged, 136 clear vs threshold 31.3")


def test_criterion_09_matching_equals_exhaustive():
    """Assignment matcher equals brute-force permutation matching, exactly."""
    started = time.monotonic()
    rng = np.random.default_rng(109)
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        est = rng.uniform(0, 4, (k, 2))
        truth = rng.uniform(0, 4, (k, 2))
        cost = np.linalg.norm(est[:, None, :] - truth[None, :, :], axis=2)
        best = min(float(np.mean(cost[np.arange(k), perm]))
                   for perm in permutations(range(k)))
        assert match_and_error(est, truth) == best
    _report(9, "matching-vs-exhaustive", started, "1000/1000 exact")


def test_criterion_10_sweep_reproducibility(tmp_path):
    """A sweep rerun from its manifest is byte-identical for any --jobs."""
    started = time.monotonic()
    first = tmp_path / "first"
    args = ["sweep", "--K-list", "2,4", "--snr-list", "15,30", "--trials", "3",
            "--set", "snapshots=100", "--seed", "1234"]
    assert cli_main(args + ["--jobs", "1", "--out-dir", str(first)]) == 0
    for jobs in (1, 2, 4):
        rerun = tmp_path / f"jobs{jobs}"
        assert cli_main(["sweep", "--from-manifest",
                         str(first / "manifest.json"), "--jobs", str(jobs),
                         "--out-dir", str(rerun)]) == 0
        for name in ("report.csv", "report.json"):
            assert (first / name).read_bytes() == (rerun / name).read_bytes(), \
                f"{name} differs for --jobs {jobs}"
    _report(10, "sweep-reproducibility", started, "jobs 1/2/4 byte-identical")
