"""Positioning-error metric, RSS-lateration baseline and experiment harness.

Sparse recovery returns an unordered support, so the per-trial error pairs
estimates with ground truth by minimum-cost assignment (Euclidean cost)
before averaging the matched distances.  The conventional baseline locates
each target separately: invert the vertical-orientation gain law per anchor
for a link distance, reduce to horizontal ranges, and solve the
pairwise-differenced circle equations by linear least squares.

Trials are deterministic given (config, seed): every trial derives its own
substreams, so campaigns can run cells in parallel and still aggregate
results that are independent of the job count.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .channel import (GainModel, PairIndexMap,
                      build_correlation_fingerprint, build_gain_matrix,
                      build_power_fingerprint, gains_to_points,
                      lambertian_order, led_positions)
from .measurement import (POWER, DitherPlan, MeasurementVector,
                          indicator_from_cells, remove_noise_floor,
                          synthesize_single_target_powers,
                          synthesize_snapshot_correlation)
# unused here, but perfbench/spans.py times the power synthesis under this name
from .measurement import synthesize_snapshot_power  # noqa: F401
from .recovery import locate_cocsm, locate_csm
from .scenario import (SCHEMES, GridModel, LedAnchor, SceneConfig, TargetSet,
                       build_grid, place_leds, sample_targets,
                       snr_to_noise_variance)

_PAD_SENTINEL = 1e6  # meters; far enough that a padded match is always wrong


@dataclass(frozen=True)
class Scene:
    """Everything derived from a config that is shared across trials."""

    config: SceneConfig
    grid: GridModel
    leds: list[LedAnchor]
    m: float
    gains: np.ndarray  # (M, N)
    power_fp: np.ndarray  # (M, N)
    corr_fp: np.ndarray  # (M(M+1)/2, N)
    pairs: PairIndexMap

    @property
    def gain_model(self) -> GainModel:
        return GainModel(self.leds, self.config.pd, self.m,
                         self.config.receiver_height)


def build_scene(config: SceneConfig) -> Scene:
    grid = build_grid(config)
    leds = place_leds(config)
    m = lambertian_order(config.half_power_angle)
    gains = build_gain_matrix(leds, grid, config.pd, m)
    corr_fp, pairs = build_correlation_fingerprint(gains)
    return Scene(config=config, grid=grid, leds=leds, m=m, gains=gains,
                 power_fp=build_power_fingerprint(gains), corr_fp=corr_fp,
                 pairs=pairs)


@dataclass(frozen=True)
class TrialResult:
    scheme: str
    k: int
    snr_db: float  # realized SNR of the trial
    snapshots: int
    error_m: float
    exact_support: bool
    runtime_s: float
    failed: bool = False
    failure: str | None = None  # "ExceptionType: message" when failed
    support: np.ndarray | None = None
    est_positions: np.ndarray | None = None
    true_positions: np.ndarray | None = None
    measurement: object = None  # MeasurementVector, or list of them (baseline)


@dataclass(frozen=True)
class CampaignReport:
    config: SceneConfig
    k_list: list[int]
    snr_list: list[float]
    trials: int
    schemes: tuple[str, ...]
    rows: list[dict]  # aggregates in (K, snr, scheme) order
    trial_records: dict = field(repr=False, default_factory=dict)


def cell_quantization_floor(pitch: float) -> float:
    """Mean distance from a uniform point in a square cell to its center."""
    return pitch * (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 6.0


def _as_points(points, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.size == 0:
        raise ValueError(f"{name}: needs at least one position")
    if arr.shape[1] != 2:
        raise ValueError(f"{name}: expected (K, 2) positions")
    return arr


def _assignment(est: np.ndarray, truth: np.ndarray):
    if est.shape[0] > truth.shape[0]:
        raise ValueError("more estimates than ground-truth targets")
    if est.shape[0] < truth.shape[0]:
        warnings.warn("solver under-returned; padding estimates with a far sentinel")
        pad = np.full((truth.shape[0] - est.shape[0], 2), _PAD_SENTINEL)
        est = np.vstack([est, pad])
    cost = np.linalg.norm(est[:, None, :] - truth[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return est, cost, rows, cols


def match_and_error(est, truth) -> float:
    """Mean Euclidean distance under the minimum-cost estimate/truth pairing."""
    est = _as_points(est, "est")
    truth = _as_points(truth, "truth")
    est, cost, rows, cols = _assignment(est, truth)
    return float(np.mean(cost[rows, cols]))


def aligned_estimates(est, truth) -> np.ndarray:
    """Estimates reordered so row k is the one matched to truth row k."""
    est = _as_points(est, "est")
    truth = _as_points(truth, "truth")
    est, _, rows, cols = _assignment(est, truth)
    aligned = np.empty_like(truth)
    aligned[cols] = est[rows]
    return aligned


def gain_to_range(gain, vertical_gap, pd, m: float):
    """Invert the vertical-orientation gain law for the link distance.

    With both devices vertical, ``gain = C * dz^(m+1) / d^(m+3)`` where
    ``C = (m+1)/(2 pi) * area * filter * concentrator``; solve for ``d``.
    """
    coeff = (m + 1.0) / (2.0 * math.pi) * pd.detector_area * pd.filter_gain \
        * pd.concentrator_gain
    return (coeff * vertical_gap ** (m + 1.0) / gain) ** (1.0 / (m + 3.0))


def rss_baseline_locate(rss, leds, pd, m: float,
                        receiver_height: float) -> np.ndarray:
    """Per-target lateration from per-anchor received powers.

    ``rss`` holds noise-floor-removed squared gains, (M,) for one target or
    (M, K) with one column per target; anchors with nonpositive entries are
    unusable.  Every target needs at least three usable, non-collinear
    anchors.  Targets with the same usable anchors share one least-squares
    solve.  Returns (2,) or (K, 2) positions.
    """
    rss = np.asarray(rss, dtype=float)
    columns = rss.reshape(rss.shape[0], -1)
    usable = columns > 0
    if np.any(usable.sum(axis=0) < 3):
        raise ValueError("fewer than 3 anchors with positive RSS")
    anchors = led_positions(leds)
    positions = np.empty((columns.shape[1], 2))
    groups: dict[bytes, list[int]] = {}
    for t, column in enumerate(usable.T):
        groups.setdefault(column.tobytes(), []).append(t)
    for targets in groups.values():
        mask = usable[:, targets[0]]
        pos = anchors[mask]
        vertical_gap = (pos[:, 2] - receiver_height)[:, None]
        dist = gain_to_range(np.sqrt(columns[mask][:, targets]), vertical_gap,
                             pd, m)
        range_sq = np.maximum(dist * dist - vertical_gap * vertical_gap, 0.0)
        i, j = np.triu_indices(pos.shape[0], k=1)
        design = 2.0 * (pos[i, :2] - pos[j, :2])
        anchor_sq = (pos[:, 0] ** 2 + pos[:, 1] ** 2)[:, None]
        rhs = (anchor_sq[i] - range_sq[i]) - (anchor_sq[j] - range_sq[j])
        solution, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
        if rank < 2:
            raise ValueError("anchor geometry is collinear")
        positions[targets] = solution.T
    return positions if rss.ndim > 1 else positions[0]


def _realized_snr_db(mean_signal: float, noise_variance: float) -> float:
    if noise_variance <= 0:
        return math.inf
    return 10.0 * math.log10(mean_signal / noise_variance)


def _synthesize_cs(scene: Scene, config: SceneConfig,
                   target_gains: np.ndarray, noise_variance: float,
                   dither_seed: int, noise_seed: int) -> dict:
    """csm and cocsm measurements from one draw of the snapshot sum.

    Power is bit for bit the correlation diagonal for the same seeds, so csm
    reads the diagonal rows of the cocsm measurement.
    """
    corr = synthesize_snapshot_correlation(
        target_gains, noise_variance, config.snapshots,
        DitherPlan.from_seed(dither_seed), np.random.default_rng(noise_seed),
        scene.pairs)
    power = MeasurementVector(corr.values[scene.pairs.diagonal_rows], POWER,
                              noise_variance, config.snapshots)
    return {"csm": power, "cocsm": corr}


def _locate_cs(scheme: str, scene: Scene, config: SceneConfig, k: int,
               meas: MeasurementVector, noise_variance: float):
    start = time.perf_counter()
    if scheme == "csm":
        loc = locate_csm(meas, scene.power_fp, k, noise_variance, scene.grid,
                         solver=config.solver, gain_model=scene.gain_model)
    else:
        loc = locate_cocsm(meas, scene.corr_fp, k, noise_variance, scene.grid,
                           scene.pairs, solver=config.solver,
                           gain_model=scene.gain_model)
    runtime = time.perf_counter() - start
    return loc.positions, loc.support, runtime, meas


def _locate_baseline(scene: Scene, config: SceneConfig,
                     target_gains: np.ndarray, noise_variance: float,
                     rss_rng: np.random.Generator):
    powers = synthesize_single_target_powers(target_gains, noise_variance,
                                             config.snapshots, rss_rng)
    measurements = [MeasurementVector(column, POWER, noise_variance,
                                      config.snapshots) for column in powers.T]
    rss = remove_noise_floor(
        MeasurementVector(powers, POWER, noise_variance, config.snapshots),
        noise_variance).values
    start = time.perf_counter()
    positions = rss_baseline_locate(rss, scene.leds, config.pd, scene.m,
                                    config.receiver_height)
    runtime = time.perf_counter() - start
    support = np.sort(scene.grid.cell_of(positions))
    return positions, support, runtime, measurements


def run_trial(config: SceneConfig, rng: np.random.Generator,
              scene: Scene | None = None, snr_db: float | None = None,
              schemes=None) -> dict[str, TrialResult]:
    """One Monte-Carlo trial: sample targets, synthesize, locate, score.

    All schemes see the same target sample and, for the cooperative schemes,
    the same dither/noise substreams, so comparisons are paired.  When
    ``snr_db`` is given the noise variance is derived per trial from the mean
    ideal signal power of the sampled targets.
    """
    scene = scene if scene is not None else build_scene(config)
    schemes = tuple(schemes) if schemes is not None else SCHEMES
    k = config.targets_k
    seeds = [int(s) for s in rng.integers(0, 2 ** 63, size=4)]
    targets = sample_targets(scene.grid, k, config.on_grid,
                             np.random.default_rng(seeds[0]))
    indicator = indicator_from_cells(targets.true_cells, scene.grid.n)
    mean_signal = float(np.mean(scene.power_fp @ indicator))
    noise_variance = (config.noise_variance if snr_db is None
                      else snr_to_noise_variance(mean_signal, snr_db))
    realized_snr = _realized_snr_db(mean_signal, noise_variance)
    points = np.column_stack([targets.true_positions,
                              np.full(k, config.receiver_height)])
    target_gains = gains_to_points(scene.leds, points, config.pd, scene.m)

    results: dict[str, TrialResult] = {}
    cs_meas = None
    for scheme in schemes:
        try:
            if scheme in ("csm", "cocsm"):
                if cs_meas is None:
                    cs_meas = _synthesize_cs(scene, config, target_gains,
                                             noise_variance, seeds[1],
                                             seeds[2])
                est, support, runtime, meas = _locate_cs(
                    scheme, scene, config, k, cs_meas[scheme], noise_variance)
            elif scheme == "rss_baseline":
                est, support, runtime, meas = _locate_baseline(
                    scene, config, target_gains, noise_variance,
                    np.random.default_rng(seeds[3]))
            else:
                raise ValueError(f"unknown scheme '{scheme}'")
            results[scheme] = TrialResult(
                scheme=scheme, k=k, snr_db=realized_snr,
                snapshots=config.snapshots,
                error_m=match_and_error(est, targets.true_positions),
                exact_support=set(np.asarray(support).tolist())
                == set(targets.true_cells.tolist()),
                runtime_s=runtime, support=np.asarray(support),
                est_positions=est, true_positions=targets.true_positions,
                measurement=meas)
        except (ValueError, np.linalg.LinAlgError) as exc:
            results[scheme] = TrialResult(
                scheme=scheme, k=k, snr_db=realized_snr,
                snapshots=config.snapshots, error_m=math.nan,
                exact_support=False, runtime_s=0.0, failed=True,
                failure=f"{type(exc).__name__}: {exc}",
                true_positions=targets.true_positions)
    return results


def _trial_rng(seed: int, cell_idx: int, trial: int) -> np.random.Generator:
    # spawn-key addressing keeps trials independent of execution order
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(cell_idx, trial)))


_worker_scene: Scene | None = None  # set per pool worker or per serial run


def _init_worker(scene: Scene | None) -> None:
    global _worker_scene
    _worker_scene = scene


def _run_cell(args) -> list[dict[str, TrialResult]]:
    config, cell_idx, k, snr_db, trials, schemes = args
    if _worker_scene is None:
        raise RuntimeError("no scene: call _init_worker before _run_cell")
    cell_config = dataclasses.replace(config, targets_k=k)
    return [run_trial(cell_config, _trial_rng(config.seed, cell_idx, t),
                      scene=_worker_scene, snr_db=snr_db, schemes=schemes)
            for t in range(trials)]


def run_campaign(config: SceneConfig, k_list, snr_list, trials: int,
                 schemes=None, jobs: int = 1) -> CampaignReport:
    """Full factorial campaign over target counts and SNRs, all schemes.

    Per-trial substreams depend only on (seed, cell index, trial index), so
    the report is identical for any ``jobs``.  Solver failures inside a trial
    are counted and excluded from the error statistics.  The scene depends on
    neither K nor SNR, so it is built once and handed to each pool worker
    when the worker starts, not with every cell.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k_list = [int(k) for k in k_list]
    snr_list = [float(s) for s in snr_list]
    schemes = tuple(schemes) if schemes is not None else SCHEMES
    cells = [(k, snr) for k in k_list for snr in snr_list]
    tasks = [(config, idx, k, snr, trials, schemes)
             for idx, (k, snr) in enumerate(cells)]
    scene = build_scene(config)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(scene,)) as pool:
            cell_results = list(pool.map(_run_cell, tasks))
    else:
        _init_worker(scene)
        try:
            cell_results = [_run_cell(task) for task in tasks]
        finally:
            _init_worker(None)

    rows: list[dict] = []
    records: dict = {}
    for (k, snr), per_trial in zip(cells, cell_results):
        for scheme in schemes:
            trial_list = [d[scheme] for d in per_trial]
            records[(k, snr, scheme)] = trial_list
            ok = [t for t in trial_list if not t.failed]
            errors = np.array([t.error_m for t in ok])
            rows.append({
                "scheme": scheme, "K": k, "snr_db": snr,
                "L": config.snapshots, "trials": trials,
                "mean_error_m": float(np.mean(errors)) if ok else math.nan,
                "std_error_m": float(np.std(errors)) if ok else math.nan,
                "success_rate": sum(t.exact_support for t in ok) / trials,
                "failures": trials - len(ok),
            })
    return CampaignReport(config=config, k_list=k_list, snr_list=snr_list,
                          trials=trials, schemes=schemes, rows=rows,
                          trial_records=records)
