"""Positioning-error metric, RSS-lateration baseline and experiment harness.

Sparse recovery returns an unordered support, so the per-trial error pairs
estimates with ground truth by minimum-cost assignment (Euclidean cost,
matched by the Hungarian method in plain Python) before averaging the
matched distances.  The conventional baseline locates each target
separately: invert the vertical-orientation gain law per anchor for a link
distance, reduce to horizontal ranges, and solve the pairwise-differenced
circle equations by linear least squares.

Trials are deterministic given (config, seed): every trial derives its own
substreams, so campaigns can run trials in parallel and still aggregate
results that are independent of the job count.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from .channel import (GainModel, PairIndexMap, build_correlation_fingerprint,
                      gain_to_range, gains_to_points, lambertian_order)
from .measurement import (indicator_from_cells, remove_noise_floor,
                          synthesize_single_target_powers,
                          synthesize_snapshot_correlation)
# unused here, but perfbench/spans.py times the power synthesis under this name
from .measurement import synthesize_snapshot_power  # noqa: F401
from .recovery import Dictionary, locate_cocsm, locate_csm
from .scenario import (SCHEMES, ConfigError, GridModel, SceneConfig, _is_integer,
                       _is_real, build_grid, check_targets_k, place_leds,
                       realized_snr_db, sample_targets, snr_to_noise_variance)


@dataclass(frozen=True, eq=False)
class Scene:
    """Everything derived from a config that trials share, read-only."""

    config: SceneConfig
    grid: GridModel
    gain_model: GainModel  # the anchors and the law of every link
    gains: np.ndarray  # (M, N): gain_model at the cell centers
    pairs: PairIndexMap
    corr_dict: Dictionary  # the correlation fingerprint (M(M+1)/2, N)
    power_dict: Dictionary  # the power fingerprint (M, N): its diagonal-pair rows
    lateration: Lateration  # the baseline's per-mask solves


def build_scene(config: SceneConfig) -> Scene:
    grid = build_grid(config)
    model = GainModel(place_leds(config), config.pd,
                      lambertian_order(config.half_power_angle),
                      config.receiver_height)
    gains = model.gains(grid.centers)
    corr_fp, pairs = build_correlation_fingerprint(gains)
    power_fp = corr_fp[pairs.diagonal_rows]
    for array in (gains, corr_fp, power_fp):  # and so the bases of the dicts' views
        array.setflags(write=False)
    return Scene(config=config, grid=grid, gain_model=model, gains=gains, pairs=pairs,
                 corr_dict=Dictionary.of(corr_fp), power_dict=Dictionary.of(power_fp),
                 lateration=Lateration(model))


@dataclass(frozen=True)
class TrialResult:
    snr_db: float  # realized SNR of the trial
    error_m: float  # NaN when failed
    exact_support: bool
    failure: str | None  # "ExceptionType: message" when failed
    support: np.ndarray | None
    est_positions: np.ndarray | None
    true_positions: np.ndarray
    measurement: np.ndarray | None  # as drawn, before floor removal

    @property
    def failed(self) -> bool:
        return self.failure is not None


@dataclass(frozen=True)
class CampaignReport:
    rows: list[dict]  # aggregates in (K, snr, scheme) order; keys = report columns
    trial_records: dict = field(repr=False)  # (K, snr, scheme) -> TrialResults


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


def _min_cost_matching(cost: np.ndarray) -> list[int]:
    """Column matched to each row of the square ``cost``, at least total cost.

    The Hungarian method as shortest augmenting paths (Kuhn 1955; Crouse
    2016), in the row order, arithmetic and tie rules of scipy's
    ``linear_sum_assignment``, so both return the same matching.  Each row
    joins by a Dijkstra search over reduced costs ``cost - u - v`` that
    ends at the first free column; among equal path costs a free column
    wins.  A row whose first minimum is a free column with ``v = 0`` joins
    at once: searches only lower ``v``, so its search would stop there
    after one step.  Raises ``ValueError`` with scipy's messages on a NaN
    entry or when no finite matching exists.
    """
    n = len(cost)
    first = cost.argmin(axis=1).tolist()
    cost = cost.tolist()
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col = [-1] * n, [-1] * n
    for cur, j in enumerate(first):
        low = cost[cur][j]  # NaN if the row holds one: argmin returns it
        if low != low:
            raise ValueError("matrix contains invalid numeric entries")
        if row4col[j] < 0 and v[j] == 0 and low < math.inf:
            u[cur], row4col[j], col4row[cur] = low, cur, j
            continue
        dist, path = [math.inf] * n, [-1] * n  # path cost, last row per column
        remaining = list(range(n - 1, -1, -1))  # scan order, as scipy's
        rows, cols = [], []  # reached by the search
        i, min_val = cur, 0.0
        while True:
            rows.append(i)
            index, lowest, row, ui = -1, math.inf, cost[i], u[i]
            for it, t in enumerate(remaining):
                r, dt = min_val + row[t] - ui - v[t], dist[t]
                if r < dt:
                    path[t] = i
                    dist[t] = dt = r
                if dt < lowest or (dt == lowest and row4col[t] < 0):
                    index, lowest = it, dt
            if lowest == math.inf:
                raise ValueError("cost matrix is infeasible")
            min_val, j = lowest, remaining[index]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for t in cols:
            v[t] -= min_val - dist[t]
        while True:  # augment along the path back to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _assignment(est: np.ndarray, truth: np.ndarray):
    """The (K, K) distance matrix and the truth row matched to each estimate."""
    if est.shape[0] > truth.shape[0]:
        raise ValueError("more estimates than ground-truth targets")
    if est.shape[0] < truth.shape[0]:
        raise ValueError("fewer estimates than ground-truth targets")
    d = est[:, None, :] - truth[None, :, :]
    cost = np.sqrt(np.add.reduce(d * d, axis=2))  # np.linalg.norm's bits
    return cost, _min_cost_matching(cost)


def match_and_error(est, truth) -> float:
    """Mean Euclidean distance under the minimum-cost estimate/truth pairing."""
    est = _as_points(est, "est")
    truth = _as_points(truth, "truth")
    cost, cols = _assignment(est, truth)
    matched = cost[np.arange(len(cols)), cols]
    return float(matched.sum() / matched.size)


def aligned_estimates(est, truth) -> np.ndarray:
    """Estimates reordered so row k is the one matched to truth row k."""
    est = _as_points(est, "est")
    truth = _as_points(truth, "truth")
    _, cols = _assignment(est, truth)
    aligned = np.empty_like(truth)
    aligned[cols] = est
    return aligned


@dataclass(frozen=True, eq=False)
class Lateration:
    """Pairwise-differenced circle equations of a gain model's anchors: each
    usable mask's least-squares map is built on first use and kept (``MAX_MASKS``)."""

    MAX_MASKS = 64
    gain_model: GainModel
    solves: dict = field(default_factory=dict, init=False, repr=False)

    def for_mask(self, mask: np.ndarray) -> tuple[np.ndarray, ...]:
        """Over the n anchors of boolean ``mask``: (n, 1) squared x-y norms and
        vertical gaps, and the (2, n) map from ``|a|^2 - r^2`` to the position."""
        solve = self.solves.get(mask.tobytes())
        if solve is None:
            pos = self.gain_model.anchors[mask]
            i, j = np.triu_indices(len(pos), k=1)
            design = 2.0 * (pos[i, :2] - pos[j, :2])
            if np.linalg.matrix_rank(design) < 2:  # lstsq(rcond=None)'s rule
                raise ValueError("anchor geometry is collinear")
            eye = np.eye(len(pos))
            solve = ((pos[:, 0] ** 2 + pos[:, 1] ** 2)[:, None],
                     (pos[:, 2] - self.gain_model.height)[:, None],
                     np.linalg.pinv(design) @ (eye[i] - eye[j]))
            for array in solve:
                array.setflags(write=False)
            if len(self.solves) < self.MAX_MASKS:
                self.solves[mask.tobytes()] = solve
        return solve


def rss_baseline_locate(rss, lateration: Lateration) -> np.ndarray:
    """Per-target lateration from per-anchor received powers.

    ``rss`` holds noise-floor-removed squared gains, (M,) for one target or
    (M, K) with one column per target; anchors with nonpositive entries are
    unusable.  ``lateration`` inverts its gain model's law and anchors.
    Every target needs at least three usable, non-collinear anchors; targets
    with the same usable anchors share one solve.  Returns (2,) or (K, 2).
    """
    rss = np.asarray(rss, dtype=float)
    columns = rss.reshape(rss.shape[0], -1)
    usable = columns > 0
    if np.any(usable.sum(axis=0) < 3):
        raise ValueError("fewer than 3 anchors with positive RSS")
    positions = np.empty((columns.shape[1], 2))
    groups: dict[bytes, list[int]] = {}
    for t, column in enumerate(usable.T):
        groups.setdefault(column.tobytes(), []).append(t)
    for targets in groups.values():
        mask = usable[:, targets[0]]
        anchor_sq, vertical_gap, weights = lateration.for_mask(mask)
        dist = gain_to_range(np.sqrt(columns[mask][:, targets]), vertical_gap,
                             lateration.gain_model.pd, lateration.gain_model.m)
        range_sq = np.maximum(dist * dist - vertical_gap * vertical_gap, 0.0)
        positions[targets] = (weights @ (anchor_sq - range_sq)).T
    return positions if rss.ndim > 1 else positions[0]


def run_trial(config: SceneConfig, rng: np.random.Generator,
              scene: Scene | None = None, snr_db: float | None = None,
              schemes=None) -> dict[str, TrialResult]:
    """One Monte-Carlo trial: sample targets, synthesize, locate, score.

    All schemes see the same target sample and, for the cooperative schemes,
    the same dither/noise substreams, so comparisons are paired.  When
    ``snr_db`` is given the noise variance is derived per trial from the mean
    ideal signal power of the sampled targets.  A ``scene`` built for another
    room, grid, LED layout, optics or receiver height raises ``ValueError``.
    """
    scene = scene if scene is not None else build_scene(config)
    for key in ("room_size", "grid_pitch", "led_rows", "led_cols", "led_height",
                "pd", "half_power_angle", "receiver_height"):
        ours, theirs = getattr(config, key), getattr(scene.config, key)
        if ours != theirs:
            raise ValueError(f"{key}: the config has {ours!r}, its scene {theirs!r}")
    schemes = tuple(schemes) if schemes is not None else SCHEMES
    k = config.targets_k
    seeds = [int(s) for s in rng.integers(0, 2 ** 63, size=4)]
    true_positions, true_cells = sample_targets(scene.grid, k, config.on_grid,
                                                np.random.default_rng(seeds[0]))
    indicator = indicator_from_cells(true_cells, scene.grid.n)
    signal = scene.power_dict.matrix @ indicator
    mean_signal = float(signal.sum() / signal.size)
    noise_variance = (config.noise_variance if snr_db is None
                      else snr_to_noise_variance(mean_signal, snr_db))
    realized_snr = realized_snr_db(mean_signal, noise_variance)
    model = scene.gain_model
    points = np.column_stack([true_positions, np.full(k, model.height)])
    target_gains = gains_to_points(model.anchors, points, model.pd, model.m)

    results: dict[str, TrialResult] = {}
    corr = None
    for scheme in schemes:
        try:
            if scheme in ("csm", "cocsm") and corr is None:
                corr = synthesize_snapshot_correlation(
                    target_gains, noise_variance, config.snapshots, seeds[1],
                    np.random.default_rng(seeds[2]), scene.pairs)
                b = remove_noise_floor(corr, noise_variance, scene.pairs)
            if scheme == "csm":  # the anchor-with-itself rows are powers
                diagonal = scene.pairs.diagonal_rows
                meas = corr[diagonal]
                support = locate_csm(b[diagonal], scene.power_dict, k, scene.grid,
                                     solver=config.solver, gain_model=scene.gain_model)
                est = scene.grid.centers_of(support)
            elif scheme == "cocsm":
                meas = corr
                support = locate_cocsm(b, scene.corr_dict, k, scene.grid, scene.pairs,
                                       solver=config.solver, gain_model=scene.gain_model)
                est = scene.grid.centers_of(support)
            elif scheme == "rss_baseline":  # each target measured alone
                meas = synthesize_single_target_powers(
                    target_gains, noise_variance, config.snapshots,
                    np.random.default_rng(seeds[3]))
                est = rss_baseline_locate(remove_noise_floor(meas, noise_variance),
                                          scene.lateration)
                support = np.sort(scene.grid.cell_of(est))
            else:
                raise ValueError(f"unknown scheme '{scheme}'")
            error_m, failure = match_and_error(est, true_positions), None
            exact = set(support.tolist()) == set(true_cells.tolist())
        except (ValueError, np.linalg.LinAlgError) as exc:
            error_m, failure = math.nan, f"{type(exc).__name__}: {exc}"
            exact, support, est, meas = False, None, None, None
        results[scheme] = TrialResult(
            snr_db=realized_snr, error_m=error_m, exact_support=exact,
            failure=failure, support=support, est_positions=est,
            true_positions=true_positions, measurement=meas)
    return results


def _trial_rng(seed: int, cell_idx: int, trial: int) -> np.random.Generator:
    # spawn-key addressing keeps trials independent of execution order
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(cell_idx, trial)))


def _run_share(units, share: int, jobs: int,
               scene: Scene) -> list[dict[str, TrialResult]]:
    """Units ``share``, ``share + jobs``, ... of (config, cell, SNR, trial)."""
    return [run_trial(config, _trial_rng(config.seed, cell_idx, t), scene=scene,
                      snr_db=snr_db, schemes=SCHEMES)
            for config, cell_idx, snr_db, t in units[share::jobs]]


def _fork_share(units, share: int, jobs: int, scene: Scene) -> tuple[int, object]:
    """Fork a child that runs ``_run_share`` and leaves by ``os._exit``, never
    returning into the caller's code; return its pid and a pipe that brings
    back its pickled trials or exception (as traceback text if unpicklable)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    try:
        try:
            data = pickle.dumps(_run_share(units, share, jobs, scene))
        except BaseException as exc:
            try:
                data = pickle.dumps(exc)
                pickle.loads(data)  # would it unpickle in the parent?
            except Exception:
                data = pickle.dumps(RuntimeError(
                    "".join(traceback.format_exception(exc))))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        os._exit(0)
    finally:
        os._exit(1)


def run_campaign(config: SceneConfig, k_list, snr_list, trials: int,
                 jobs: int = 1) -> CampaignReport:
    """Full factorial campaign over target counts and SNRs, all schemes.

    Per-trial substreams depend only on (seed, cell index, trial index), so
    the report is identical for any ``jobs``.  Solver failures inside a trial
    are counted and excluded from the error statistics.  The scene depends on
    neither K nor SNR, so it is built once.  Unit u, the u-th (cell, trial)
    pair, goes to share ``u % jobs``: the caller runs share 0 and forked
    children the rest (the caller runs all where ``os.fork`` does not exist).

    Raises :class:`ConfigError` before the scene is built on a nonzero
    ``config.noise_variance`` (the SNRs set the noise), ``trials`` or ``jobs``
    no integer >= 1, a ``k_list`` no nonempty list, a K that ``SceneConfig``
    rejects as ``targets_k``, an ``snr_list`` no nonempty list of numbers each
    finite or ``inf`` (noiseless), or a value repeated in either list; on a K
    beyond N/4, once the scene is built.
    """
    for key, value, valid, rule in (
            ("trials", trials, _is_integer(trials) and trials >= 1,
             "must be an integer >= 1"),
            ("jobs", jobs, _is_integer(jobs) and jobs >= 1, "must be an integer >= 1"),
            ("k_list", k_list, isinstance(k_list, (list, tuple)) and k_list,
             "must be a nonempty list"),
            ("snr_list", snr_list, isinstance(snr_list, (list, tuple)) and snr_list
             and all(_is_real(s) and (s == math.inf or abs(s) <= sys.float_info.max)
                     for s in snr_list),
             "must be a nonempty list of numbers, each finite or inf"),
            ("noise_variance", config.noise_variance, config.noise_variance == 0,
             "must be 0, as snr_list sets each cell's noise")):
        if not valid:
            raise ConfigError(f"{key}: {rule}, got {value!r}")
    try:  # SceneConfig judges each K
        cell_configs = {k: dataclasses.replace(config, targets_k=k) for k in k_list}
    except ConfigError as exc:
        raise ConfigError(f"k_list: {exc}") from None
    k_list, snr_list = [int(k) for k in k_list], [float(s) for s in snr_list]
    for key, values in (("k_list", k_list), ("snr_list", snr_list)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:  # two cells would share one key in trial_records
            raise ConfigError(f"{key}: must hold no value twice, got "
                              f"{repeated[0]} more than once")
    cells = [(k, snr) for k in k_list for snr in snr_list]
    scene = build_scene(config)
    for k in k_list:
        check_targets_k(scene.grid, k)
    if config.solver == "nnls":  # once here, not in each forked child
        import scipy.optimize  # noqa: F401
    units = [(cell_configs[k], idx, snr, t)
             for idx, (k, snr) in enumerate(cells) for t in range(trials)]
    jobs = min(jobs, len(units)) if hasattr(os, "fork") else 1
    children, statuses = [], []
    try:
        for share in range(1, jobs):
            children.append(_fork_share(units, share, jobs, scene))
        shares = [_run_share(units, 0, jobs, scene)]
        replies = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for data, status in zip(replies, statuses):
        reply = pickle.loads(data) if data else RuntimeError(
            f"a campaign child ended with exit status {status} and no result")
        if isinstance(reply, BaseException):
            raise reply
        shares.append(reply)
    trial_results = [shares[u % jobs][u // jobs] for u in range(len(units))]

    rows: list[dict] = []
    records: dict = {}
    for idx, (k, snr) in enumerate(cells):
        per_trial = trial_results[idx * trials:(idx + 1) * trials]
        for scheme in SCHEMES:
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
    return CampaignReport(rows=rows, trial_records=records)
