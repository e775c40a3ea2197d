import copy
import math
import re

import numpy as np
import pytest

from vlp_sparse import (SCHEMES, SOLVERS, ConfigError, PdOptics, SceneConfig,
                        apply_overrides, build_grid, config_from_dict,
                        config_to_dict, load_config, place_leds,
                        realized_snr_db, sample_targets, snr_to_noise_variance)


def test_default_grid_has_400_cells():
    grid = build_grid(SceneConfig())
    assert grid.n == 400
    assert grid.nx == 20 and grid.ny == 20


def test_first_center_is_cell_midpoint():
    grid = build_grid(SceneConfig())
    assert grid.centers.shape == (400, 2)  # the floor plan: no height
    assert np.allclose(grid.centers[0], [0.1, 0.1])


def test_single_cell_grid():
    cfg = SceneConfig(room_size=(1.0, 1.0, 3.0), grid_pitch=1.0)
    grid = build_grid(cfg)
    assert grid.n == 1
    assert np.allclose(grid.centers[0], [0.5, 0.5])


def test_pitch_must_tile_floor():
    with pytest.raises(ConfigError, match="grid_pitch"):
        SceneConfig(grid_pitch=0.3)


def test_grid_and_led_builders_are_pure():
    cfg = SceneConfig()
    a, b = build_grid(cfg), build_grid(cfg)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(place_leds(cfg), place_leds(cfg))


def test_cell_of_roundtrips_centers():
    grid = build_grid(SceneConfig())
    cells = grid.cell_of(grid.centers)
    assert np.array_equal(cells, np.arange(grid.n))


def test_led_lattice_default():
    leds = place_leds(SceneConfig())
    # row-major, x fastest: row c + 4 r is the LED in column c and row r
    expected = [[0.5 + c, 0.5 + r, 3.0] for r in range(4) for c in range(4)]
    assert leds.tolist() == expected
    assert not leds.flags.writeable


def test_single_led_sits_at_room_center():
    leds = place_leds(SceneConfig(led_rows=1, led_cols=1))
    assert np.allclose(leds, [[2.0, 2.0, 3.0]])


def test_two_by_one_lattice():
    # 2 columns along x, 1 row along y
    pos = place_leds(SceneConfig(led_rows=1, led_cols=2))
    assert sorted(pos[:, 0].tolist()) == [1.0, 3.0]
    assert set(pos[:, 1].tolist()) == {2.0}


def test_sample_targets_at_precondition_boundary():
    grid = build_grid(SceneConfig())
    positions, cells = sample_targets(grid, grid.n // 4, False,
                                      np.random.default_rng(0))
    assert positions.shape == (100, 2) and cells.shape == (100,)
    assert len(set(cells.tolist())) == 100


def test_sample_targets_rejects_excess_k():
    grid = build_grid(SceneConfig())
    with pytest.raises(ValueError, match="targets_k"):
        sample_targets(grid, grid.n // 4 + 1, False, np.random.default_rng(0))


def test_on_grid_targets_sit_on_centers():
    grid = build_grid(SceneConfig())
    positions, cells = sample_targets(grid, 5, True, np.random.default_rng(3))
    assert np.array_equal(positions, grid.centers_of(cells))


def test_off_grid_targets_stay_inside_their_cells():
    grid = build_grid(SceneConfig())
    positions, cells = sample_targets(grid, 50, False, np.random.default_rng(4))
    offsets = positions - grid.centers_of(cells)
    assert np.all(np.abs(offsets) <= grid.pitch / 2)
    assert np.array_equal(grid.cell_of(positions), cells)


def test_sampling_is_deterministic_per_seed():
    grid = build_grid(SceneConfig())
    a = sample_targets(grid, 8, False, np.random.default_rng(42))
    b = sample_targets(grid, 8, False, np.random.default_rng(42))
    for ours, theirs in zip(a, b):  # the positions, then the cells
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("field,value", [
    ("room_size", (0.0, 4.0, 3.0)),
    ("receiver_height", 3.5),
    ("led_height", 5.0),
    ("half_power_angle", 90.0),
    ("noise_variance", -1.0),
    ("snapshots", 0),
    ("solver", "cvx"),
    ("scheme", "knn"),
    ("seed", -1),
    ("noise_variance", "abc"),
    ("grid_pitch", "abc"),
    ("seed", "abc"),
    ("seed", 1.5),
    ("led_rows", 2.5),
    ("snapshots", 1.5),
    ("snapshots", True),
    ("half_power_angle", None),
    ("room_size", (4.0, 4.0, "a")),
    ("on_grid", 2),
    ("noise_variance", math.inf),
    ("noise_variance", math.nan),
    ("noise_variance", 10 ** 400),
    ("grid_pitch", math.inf),
    ("room_size", (1e400, 4.0, 3.0)),
    ("room_size", (10 ** 400, 4.0, 3.0)),
    ("snapshots", 2 ** 63),
    ("snapshots", 10 ** 19),
    ("room_size", 5),
    ("room_size", None),
    ("pd", 5),
    ("pd", {"fov": 60}),
])
def test_config_invariants_rejected(field, value):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        SceneConfig(**{field: value})


@pytest.mark.parametrize("changes", [
    {"grid_pitch": 1e-300}, {"grid_pitch": 1e-320}, {"led_rows": 100000},
    {"led_rows": 10 ** 400}, {"grid_pitch": 4.0 / 703},
])
def test_scene_beyond_the_size_bound_rejected(changes):
    with pytest.raises(ConfigError, match="^grid_pitch/led_rows/led_cols: "):
        SceneConfig(**changes)


def test_scene_at_the_size_bound_accepted():
    # 16 anchors: 136 pair rows x 702^2 cells is within 2^26, 703^2 is not
    assert SceneConfig(grid_pitch=4.0 / 702).grid_shape == (702, 702)


def test_room_size_is_kept_as_float_extents():
    assert SceneConfig(room_size=[4, 4, 3]).room_size == (4.0, 4.0, 3.0)
    assert SceneConfig(room_size=[4, 4, 3]) == SceneConfig()
    assert SceneConfig(room_size=np.array([4, 4, 3])) == SceneConfig()


@pytest.mark.parametrize("field,value,allowed", [("solver", "ista", SOLVERS),
                                                 ("scheme", "knn", SCHEMES)])
def test_config_error_names_the_rejected_choice(field, value, allowed):
    with pytest.raises(ConfigError) as exc:
        SceneConfig(**{field: value})
    assert str(exc.value) == f"{field}: must be one of {allowed}, got {value!r}"


def test_pd_optics_invariants():
    with pytest.raises(ConfigError, match="fov"):
        PdOptics(fov=0.0)
    with pytest.raises(ConfigError, match="^fov: must be a real number"):
        PdOptics(fov="abc")
    with pytest.raises(ConfigError, match="detector_area"):
        PdOptics(detector_area=0.0)
    with pytest.raises(ConfigError, match="^detector_area: must be finite"):
        PdOptics(detector_area=math.inf)


def test_config_json_roundtrip(tmp_path):
    cfg = SceneConfig(grid_pitch=0.5, noise_variance=1e-13, seed=9,
                      pd=PdOptics(detector_area=2e-4))
    path = tmp_path / "scene.json"
    path.write_text(__import__("json").dumps(config_to_dict(cfg)))
    assert load_config(str(path)) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"room_sz": [4, 4, 3]})


@pytest.mark.parametrize("data", [5, None, [1], "x"])
def test_config_from_dict_rejects_a_non_object(data):
    message = f"config: must be an object, got {data!r}"
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        config_from_dict(data)


def test_config_from_dict_leaves_its_input_as_it_was():
    data = {"pd": {"fov": 60.0}, "snapshots": 1e4, "room_size": [4, 4, 3]}
    before = copy.deepcopy(data)
    cfg = config_from_dict(data)
    assert data == before
    assert type(data["snapshots"]) is float and isinstance(data["pd"], dict)
    assert cfg.pd == PdOptics(fov=60.0) and cfg.snapshots == 10 ** 4


def test_overrides_reach_nested_optics():
    cfg = apply_overrides(SceneConfig(), ["pd.detector_area=2e-4", "seed=5",
                                          "solver=nnls", "snapshots=1e4"])
    assert cfg.pd.detector_area == 2e-4
    assert cfg.seed == 5
    assert cfg.snapshots == 10 ** 4 and isinstance(cfg.snapshots, int)
    assert cfg.solver == "nnls"


def test_override_requires_key_value_form():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(SceneConfig(), ["seed"])


def test_optics_override_needs_an_optics_object():
    with pytest.raises(ConfigError, match="^pd: must be an object to take pd.fov"):
        apply_overrides(SceneConfig(), ["pd=5", "pd.fov=60"])
    assert apply_overrides(SceneConfig(), ['pd={"fov": 50}', "pd.fov=60"]) \
        == SceneConfig(pd=PdOptics(fov=60))


def test_realized_snr_db_inverts_snr_to_noise_variance():
    assert realized_snr_db(1.0, 0.0) == math.inf
    assert realized_snr_db(0.0, 1e-9) == -math.inf
    assert realized_snr_db(10.0, 1.0) == 10.0
    assert realized_snr_db(3.0, snr_to_noise_variance(3.0, 17.0)) == \
        pytest.approx(17.0)
