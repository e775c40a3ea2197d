"""Room geometry, localization grid, LED layout and target placement.

Everything downstream (channel gains, fingerprints, measurements) is derived
from a single validated :class:`SceneConfig`.  All types are frozen and safe
to share across parallel workers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

SOLVERS = ("omp", "nnls")
SCHEMES = ("csm", "cocsm", "rss_baseline")
# max(M(M+1)/2, 3) x N: a 512 MiB correlation fingerprint, built at ~3x that
MAX_SCENE_ENTRIES = 2 ** 26


class ConfigError(ValueError):
    """Raised when a configuration value violates a scene invariant."""


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return _is_real(value) and isinstance(value, numbers.Integral)


def _require_field_types(config) -> None:
    """Reject by name a float field that holds no finite real number, an int
    field no integer, or a bool field no bool; a bool is no number."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type == "float":
            _require(_is_real(value), f.name, f"must be a real number, got {value!r}")
            _require(abs(value) <= sys.float_info.max,  # no inf, NaN or huge int
                     f.name, f"must be finite, got {value!r}")
        elif f.type == "int":
            _require(_is_integer(value), f.name, f"must be an integer, got {value!r}")
        elif f.type == "bool":
            _require(isinstance(value, bool), f.name, f"must be true or false, got {value!r}")


@dataclass(frozen=True)
class PdOptics:
    """Photodetector optics: physical area, optical gains and field of view."""

    detector_area: float = 1e-4  # m^2 (1 cm^2)
    filter_gain: float = 1.0
    concentrator_gain: float = 1.0
    fov: float = 85.0  # degrees, max incidence angle that still registers

    def __post_init__(self) -> None:
        _require_field_types(self)
        _require(self.detector_area > 0, "detector_area", "must be > 0")
        _require(self.filter_gain > 0, "filter_gain", "must be > 0")
        _require(self.concentrator_gain > 0, "concentrator_gain", "must be > 0")
        _require(0 < self.fov <= 90, "fov", "must be in (0, 90] degrees")


@dataclass(frozen=True)
class SceneConfig:
    """Single source of truth for a simulation run.

    Geometry: a ``room_size[0] x room_size[1]`` floor tiled into square cells
    of side ``grid_pitch``; receivers sit at height ``receiver_height``, LEDs
    on a ``led_rows x led_cols`` ceiling lattice at ``led_height``.
    ``noise_variance`` is the variance of the additive noise on each received
    signal sample, in squared signal-power units; ``snapshots`` is the number
    of pilot intervals averaged to estimate power/correlation measurements.
    """

    room_size: tuple[float, float, float] = (4.0, 4.0, 3.0)
    grid_pitch: float = 0.2
    receiver_height: float = 0.85
    led_rows: int = 4
    led_cols: int = 4
    led_height: float = 3.0
    pd: PdOptics = field(default_factory=PdOptics)
    half_power_angle: float = 60.0  # degrees
    noise_variance: float = 0.0
    snapshots: int = 1
    seed: int = 0
    solver: str = "omp"
    scheme: str = "cocsm"
    # experiment parameters (number of targets, on-grid vs continuous truth)
    targets_k: int = 8
    on_grid: bool = False

    def __post_init__(self) -> None:
        _require_field_types(self)
        room = self.room_size  # a list, a tuple or a 1-d array
        _require(isinstance(room, (list, tuple, np.ndarray))
                 and getattr(room, "ndim", 1) == 1 and len(room) == 3
                 and all(_is_real(s) and 0 < s <= sys.float_info.max for s in room),
                 "room_size", "must be three finite positive extents (x, y, z)")
        object.__setattr__(self, "room_size", tuple(float(s) for s in room))
        _require(isinstance(self.pd, PdOptics), "pd",
                 f"must be a PdOptics (an object in JSON), got {self.pd!r}")
        _require(self.grid_pitch > 0, "grid_pitch", "must be > 0")
        _require(self.led_rows >= 1 and self.led_cols >= 1,
                 "led_rows/led_cols", "must each be >= 1")
        anchors = self.led_rows * self.led_cols  # int: no float overflow below
        n_cells = (self.room_size[0] / self.grid_pitch
                   * self.room_size[1] / self.grid_pitch)
        _require(n_cells <= MAX_SCENE_ENTRIES / max(anchors * (anchors + 1) // 2, 3),
                 "grid_pitch/led_rows/led_cols",
                 f"must keep each scene array within {MAX_SCENE_ENTRIES} entries")
        for axis, extent in zip("xy", self.room_size[:2]):
            cells = extent / self.grid_pitch
            _require(abs(cells - round(cells)) < 1e-9 and round(cells) >= 1,
                     "grid_pitch",
                     f"must tile the {axis} extent {extent} into whole cells")
        _require(0 < self.receiver_height < self.led_height,
                 "receiver_height", "must satisfy 0 < receiver_height < led_height")
        _require(self.led_height <= self.room_size[2],
                 "led_height", "must not exceed the room height")
        _require(0 < self.half_power_angle < 90,
                 "half_power_angle", "must be in (0, 90) degrees")
        _require(self.noise_variance >= 0, "noise_variance", "must be >= 0")
        _require(1 <= self.snapshots < 2 ** 63, "snapshots",  # numpy draws take int64
                 f"must be in [1, 2^63 - 1], got {self.snapshots}")
        _require(0 <= self.seed < 2 ** 64, "seed", "must be an unsigned 64-bit integer")
        _require(self.solver in SOLVERS, "solver",
                 f"must be one of {SOLVERS}, got {self.solver!r}")
        _require(self.scheme in SCHEMES, "scheme",
                 f"must be one of {SCHEMES}, got {self.scheme!r}")
        _require(self.targets_k >= 1, "targets_k", "must be >= 1")

    @property
    def grid_shape(self) -> tuple[int, int]:
        """(cells along x, cells along y)."""
        return (round(self.room_size[0] / self.grid_pitch),
                round(self.room_size[1] / self.grid_pitch))


@dataclass(frozen=True)
class GridModel:
    """Discrete localization grid on the floor plan, which has no height.

    Cells are indexed row-major with x fastest: cell ``j`` covers
    ``(ix, iy) = (j % nx, j // nx)`` and its center is
    ``((ix + 0.5) * pitch, (iy + 0.5) * pitch)``.
    """

    nx: int
    ny: int
    pitch: float
    centers: np.ndarray  # (N, 2), read-only

    @property
    def n(self) -> int:
        return self.nx * self.ny

    def cell_of(self, xy: np.ndarray) -> np.ndarray:
        """Cell index containing each (x, y) position (positions inside the floor)."""
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        ix = np.clip((xy[:, 0] / self.pitch).astype(int), 0, self.nx - 1)
        iy = np.clip((xy[:, 1] / self.pitch).astype(int), 0, self.ny - 1)
        return iy * self.nx + ix

    def centers_of(self, cells: Sequence[int]) -> np.ndarray:
        """(len(cells), 2) array of cell-center (x, y) coordinates."""
        return self.centers[np.asarray(cells, dtype=int)]


def build_grid(config: SceneConfig) -> GridModel:
    """Tile the floor into square cells and return their centers.

    Deterministic; raises :class:`ConfigError` if the pitch does not divide
    both floor extents exactly (validated by SceneConfig).
    """
    nx, ny = config.grid_shape
    pitch = config.grid_pitch
    ix = np.arange(nx)
    iy = np.arange(ny)
    gx, gy = np.meshgrid(ix, iy)  # iy varies along rows -> x fastest when flattened
    centers = np.column_stack([(gx.ravel() + 0.5) * pitch, (gy.ravel() + 0.5) * pitch])
    centers.setflags(write=False)
    return GridModel(nx=nx, ny=ny, pitch=pitch, centers=centers)


def place_leds(config: SceneConfig) -> np.ndarray:
    """Uniform ceiling lattice with half-spacing margins: read-only (M, 3)
    positions of downward LEDs, x fastest (row-major).

    ``led_cols`` positions along x at ``(i + 0.5) * X / led_cols`` and
    ``led_rows`` along y, all at ``led_height``.
    """
    x_extent, y_extent, _ = config.room_size
    cols, rows = np.meshgrid(np.arange(config.led_cols), np.arange(config.led_rows))
    anchors = np.column_stack([
        (cols.ravel() + 0.5) * (x_extent / config.led_cols),
        (rows.ravel() + 0.5) * (y_extent / config.led_rows),
        np.full(cols.size, config.led_height),
    ])
    anchors.setflags(write=False)
    return anchors


def check_targets_k(grid: GridModel, k: int) -> None:
    """Raise :class:`ConfigError` unless ``k`` targets fit the grid: 1..N/4."""
    _require(1 <= k <= grid.n // 4, "targets_k",
             f"must be in [1, {grid.n // 4}] for this grid, got {k}")


def sample_targets(grid: GridModel, k: int, on_grid: bool,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``k`` targets in distinct cells, uniformly without replacement.

    Returns read-only (K, 2) true positions and their (K,) cells, sorted.
    With ``on_grid`` the true position is the cell center, otherwise uniform
    within the cell.  Deterministic for a given generator state.
    """
    check_targets_k(grid, k)
    cells = np.sort(rng.choice(grid.n, size=k, replace=False))
    positions = grid.centers_of(cells).copy()
    if not on_grid:
        positions += rng.uniform(-grid.pitch / 2, grid.pitch / 2, size=(k, 2))
    positions.setflags(write=False)
    cells.setflags(write=False)
    return positions, cells


# --- configuration I/O ----------------------------------------------------

def config_to_dict(config: SceneConfig) -> dict:
    return dataclasses.asdict(config)


def _from_dict(cls, data: dict, what: str):
    """``cls`` from JSON ``data`` that names only its fields; ``cls`` judges them."""
    _require(isinstance(data, dict), what, f"must be an object, got {data!r}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    data = dict(data)  # the caller's dict stays as it was
    for key, value in data.items():
        # a JSON number such as 1e4 names an integer when its value is whole
        if types[key] == "int" and isinstance(value, float) and value.is_integer():
            data[key] = int(value)
        elif types[key] == "PdOptics" and isinstance(value, dict):
            data[key] = _from_dict(PdOptics, value, key)
    return cls(**data)


def config_from_dict(data: dict) -> SceneConfig:
    return _from_dict(SceneConfig, data, "config")


def load_json(path: str):
    """The JSON value in file ``path``; what is not JSON raises ConfigError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or bytes that are no text
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None


def load_config(path: str) -> SceneConfig:
    """Load a JSON config file whose keys are SceneConfig field names; a
    ConfigError names the file."""
    data = load_json(path)
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare strings like omp/cocsm


def apply_overrides(config: SceneConfig, assignments: Sequence[str]) -> SceneConfig:
    """Apply ``key=value`` overrides; ``pd.<field>=value`` reaches the optics."""
    data = config_to_dict(config)
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        value = _parse_value(raw)
        if key.startswith("pd."):
            _require(isinstance(data["pd"], dict), "pd",
                     f"must be an object to take {key}")
            data["pd"][key[3:]] = value
        else:
            data[key] = value
    return config_from_dict(data)


def snr_to_noise_variance(mean_signal_power: float, snr_db: float) -> float:
    """Noise variance that realizes a target SNR over a given mean signal power.

    ``inf`` means noiseless; NaN and ``-inf`` name no noise level and raise.
    """
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db={snr_db}: need a finite SNR or inf (noiseless)")
    return mean_signal_power / (10.0 ** (snr_db / 10.0)) if math.isfinite(snr_db) else 0.0


def realized_snr_db(mean_signal_power: float, noise_variance: float) -> float:
    """Inverse of snr_to_noise_variance: inf without noise, -inf without signal."""
    if noise_variance <= 0:
        return math.inf
    if mean_signal_power <= 0:
        return -math.inf
    return 10.0 * math.log10(mean_signal_power / noise_variance)
