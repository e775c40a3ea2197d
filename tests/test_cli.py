import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from vlp_sparse import cli, evaluation
from vlp_sparse.cli import main


def run_cli(args):
    return main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_fingerprint_writes_expected_shapes(tmp_path):
    assert run_cli(["fingerprint", "--out-dir", str(tmp_path)]) == 0
    J = np.loadtxt(tmp_path / "J.csv", delimiter=",")
    H = np.loadtxt(tmp_path / "H.csv", delimiter=",")
    psi = np.loadtxt(tmp_path / "Psi.csv", delimiter=",")
    assert J.shape == (16, 400)
    assert H.shape == (16, 400)
    assert psi.shape == (136, 400)
    meta = json.loads(read(tmp_path / "meta.json"))
    assert meta["shapes"]["Psi"] == [136, 400]
    assert len(meta["pairs"]) == 136
    assert meta["config"]["grid_pitch"] == 0.2


def test_fingerprint_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["fingerprint", "--out-dir", str(a)])
    run_cli(["fingerprint", "--out-dir", str(b)])
    for name in ("H.csv", "J.csv", "Psi.csv", "meta.json"):
        assert read(a / name) == read(b / name)


def test_fingerprint_csv_roundtrips_exactly(tmp_path):
    run_cli(["fingerprint", "--out-dir", str(tmp_path)])
    from vlp_sparse import SceneConfig, build_scene
    scene = build_scene(SceneConfig())
    H = np.loadtxt(tmp_path / "H.csv", delimiter=",")
    assert np.array_equal(H, scene.gains)  # 17 significant digits round-trip
    J = np.loadtxt(tmp_path / "J.csv", delimiter=",")
    psi = np.loadtxt(tmp_path / "Psi.csv", delimiter=",")
    assert np.array_equal(J, scene.power_dict.matrix)
    assert np.array_equal(psi, scene.corr_dict.matrix)
    assert np.array_equal(J, psi[scene.pairs.diagonal_rows])  # bit for bit
    shapes = json.loads(read(tmp_path / "meta.json"))["shapes"]
    assert shapes == {"H": list(H.shape), "J": list(J.shape), "Psi": list(psi.shape)}


def test_simulate_scatter_has_one_row_per_target(tmp_path):
    assert run_cli(["simulate", "--set", "targets_k=8", "--set",
                    "scheme=cocsm", "--out-dir", str(tmp_path)]) == 0
    lines = read(tmp_path / "scatter.csv").decode().strip().splitlines()
    assert lines[0] == "trial,scheme,true_x,true_y,est_x,est_y"
    assert len(lines) == 9
    assert all(line.split(",")[1] == "cocsm" for line in lines[1:])
    trial = json.loads(read(tmp_path / "trial.json"))
    assert trial["scheme"] == "cocsm"
    assert len(trial["est_positions"]) == 8


def test_simulate_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--set", "targets_k=4", "--set", "scheme=csm",
            "--seed", "123"]
    run_cli(args + ["--out-dir", str(a)])
    run_cli(args + ["--out-dir", str(b)])
    assert read(a / "scatter.csv") == read(b / "scatter.csv")
    assert read(a / "trial.json") == read(b / "trial.json")


def test_simulate_baseline_scheme_rows(tmp_path):
    assert run_cli(["simulate", "--set", "targets_k=8", "--set",
                    "scheme=rss_baseline", "--out-dir", str(tmp_path)]) == 0
    lines = read(tmp_path / "scatter.csv").decode().strip().splitlines()
    assert len(lines) == 9


def test_simulate_dumps_measurement_vector(tmp_path):
    assert run_cli(["simulate", "--set", "targets_k=2", "--set", "scheme=csm",
                    "--dump-measurements", "--out-dir", str(tmp_path)]) == 0
    lines = read(tmp_path / "measurements.csv").decode().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["model", "L", "sigma2"]
    assert len(header) == 3 + 16
    assert len(lines) == 2
    assert lines[1].startswith("power,")


def test_simulate_baseline_dumps_one_power_vector_per_target(tmp_path):
    assert run_cli(["simulate", "--set", "targets_k=3", "--set",
                    "scheme=rss_baseline", "--dump-measurements",
                    "--out-dir", str(tmp_path)]) == 0
    lines = read(tmp_path / "measurements.csv").decode().strip().splitlines()
    assert len(lines[0].split(",")) == 3 + 16
    assert len(lines) == 1 + 3
    assert all(line.startswith("power,") for line in lines[1:])


def test_sweep_report_shape_and_manifest(tmp_path):
    code = run_cli(["sweep", "--K-list", "2,4", "--snr-list", "20",
                    "--trials", "2", "--set", "snapshots=20",
                    "--out-dir", str(tmp_path)])
    assert code == 0
    lines = read(tmp_path / "report.csv").decode().strip().splitlines()
    assert lines[0] == ("scheme,K,snr_db,L,trials,mean_error_m,std_error_m,"
                        "success_rate,failures")
    assert len(lines) == 1 + 2 * 1 * 3
    manifest = json.loads(read(tmp_path / "manifest.json"))
    assert manifest["sweep"]["k_list"] == [2, 4]
    # digests must verify
    import hashlib
    for entry in manifest["outputs"]:
        digest = hashlib.sha256(read(tmp_path / entry["path"])).hexdigest()
        assert digest == entry["sha256"]
    report = json.loads(read(tmp_path / "report.json"))
    assert report["config"]["snapshots"] == 20
    assert {row["scheme"] for row in report["rows"]} \
        == {"csm", "cocsm", "rss_baseline"}


def test_sweep_report_counts_failed_trials(tmp_path, monkeypatch):
    def collinear(*args, **kwargs):
        raise ValueError("anchor geometry is collinear")

    monkeypatch.setattr(evaluation, "rss_baseline_locate", collinear)
    code = run_cli(["sweep", "--K-list", "2", "--snr-list", "20",
                    "--trials", "2", "--set", "snapshots=20", "--jobs", "1",
                    "--out-dir", str(tmp_path)])
    assert code == 1  # a report cell failed in every trial
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = {row["scheme"]: row for row in csv.DictReader(fh)}
    assert rows["rss_baseline"]["failures"] == "2"
    assert rows["rss_baseline"]["mean_error_m"] == "nan"
    assert rows["csm"]["failures"] == rows["cocsm"]["failures"] == "0"


def test_sweep_rerun_from_manifest_is_byte_identical(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    run_cli(["sweep", "--K-list", "2,3", "--snr-list", "15,25", "--trials", "2",
             "--set", "snapshots=10", "--seed", "77", "--jobs", "1",
             "--out-dir", str(first)])
    code = run_cli(["sweep", "--from-manifest", str(first / "manifest.json"),
                    "--jobs", "3", "--out-dir", str(second)])
    assert code == 0
    assert read(first / "report.csv") == read(second / "report.csv")
    assert read(first / "report.json") == read(second / "report.json")


def test_sweep_flags_override_the_manifest(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    assert run_cli(["sweep", "--K-list", "2", "--snr-list", "20", "--trials", "2",
                    "--set", "snapshots=10", "--out-dir", str(first)]) == 0
    assert run_cli(["sweep", "--from-manifest", str(first / "manifest.json"),
                    "--trials", "3", "--K-list", "4,6", "--snr-list", "10",
                    "--out-dir", str(second)]) == 0
    report = json.loads(read(second / "report.json"))
    assert report["axes"] == {"K": [4, 6], "snr_db": [10.0], "trials": 3,
                              "schemes": ["csm", "cocsm", "rss_baseline"]}
    assert [(row["K"], row["snr_db"], row["trials"]) for row in report["rows"]] \
        == [(4, 10.0, 3)] * 3 + [(6, 10.0, 3)] * 3
    assert report["config"]["snapshots"] == 10  # the manifest's config stays
    sweep = json.loads(read(second / "manifest.json"))["sweep"]
    assert (sweep["k_list"], sweep["snr_list"], sweep["trials"]) == ([4, 6], [10.0], 3)
    # one flag alone replaces only its own value
    third = tmp_path / "three"
    assert run_cli(["sweep", "--from-manifest", str(second / "manifest.json"),
                    "--trials", "1", "--out-dir", str(third)]) == 0
    sweep = json.loads(read(third / "manifest.json"))["sweep"]
    assert (sweep["k_list"], sweep["snr_list"], sweep["trials"]) == ([4, 6], [10.0], 1)


def test_sweep_report_csv_takes_its_columns_from_the_rows(tmp_path, monkeypatch):
    real = cli.run_campaign

    def campaign(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(
            report, rows=[{**row, "extra": 7} for row in report.rows])

    monkeypatch.setattr(cli, "run_campaign", campaign)
    assert run_cli(["sweep", "--K-list", "2", "--snr-list", "20", "--trials", "1",
                    "--set", "snapshots=10", "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "report.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["scheme", "K", "snr_db", "L", "trials",
                                     "mean_error_m", "std_error_m",
                                     "success_rate", "failures", "extra"]
        assert [row["extra"] for row in reader] == ["7"] * 3
    rows = json.loads(read(tmp_path / "report.json"))["rows"]
    assert [row["extra"] for row in rows] == [7] * 3


def test_manifest_snr_string_is_recorded_as_a_number(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "config": {"snapshots": 10},
        "sweep": {"k_list": [2], "snr_list": ["20", "inf", 30], "trials": 1}}))
    out = tmp_path / "out"
    assert run_cli(["sweep", "--from-manifest", str(manifest),
                    "--out-dir", str(out)]) == 0
    report = json.loads(read(out / "report.json"))
    sweep = json.loads(read(out / "manifest.json"))["sweep"]
    for recorded in (report["axes"]["snr_db"], sweep["snr_list"]):
        assert recorded == [20.0, "inf", 30.0]
        assert [type(v) for v in recorded] == [float, str, float]


def test_sweep_rejects_non_sweep_manifest(tmp_path, capsys):
    run_cli(["fingerprint", "--out-dir", str(tmp_path)])
    code = run_cli(["sweep", "--from-manifest", str(tmp_path / "manifest.json"),
                    "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "not a sweep manifest" in capsys.readouterr().err


def exit_code(argv):
    """Exit status of the CLI, whether ``main`` returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_sweep_rejects_the_ista_solver(tmp_path, capsys):
    out = tmp_path / "out"
    assert exit_code(["sweep", "--set", "solver=ista", "--K-list", "2",
                      "--trials", "1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "omp" in err and "nnls" in err
    assert not out.exists()


def test_sweep_from_manifest_rejects_a_recorded_ista_solver(tmp_path, capsys):
    first = tmp_path / "first"
    assert run_cli(["sweep", "--K-list", "2", "--snr-list", "20", "--trials",
                    "1", "--set", "snapshots=10", "--out-dir", str(first)]) == 0
    manifest = json.loads(read(first / "manifest.json"))
    manifest["config"]["solver"] = "ista"
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(["sweep", "--from-manifest", str(stale),
                    "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "omp" in err and "nnls" in err
    assert "'ista'" in err  # names the stale value, not only the choices
    assert not out.exists()


@pytest.mark.parametrize("missing", ["k_list", "snr_list", "trials"])
def test_sweep_from_manifest_names_a_missing_sweep_key(tmp_path, capsys, missing):
    sweep = {"k_list": [2], "snr_list": [20.0], "trials": 1}
    del sweep[missing]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": {"snapshots": 10}, "sweep": sweep}))
    out = tmp_path / "out"
    assert run_cli(["sweep", "--from-manifest", str(manifest),
                    "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{missing}'" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("manifest,key", [
    (5, "not a sweep manifest"),
    ({"config": 5}, "config"),
    ({"sweep": {"k_list": "ab"}}, "k_list"),
    ({"sweep": {"k_list": [2.5]}}, "k_list"),
    ({"sweep": {"k_list": [True]}}, "k_list"),
    ({"sweep": {"snr_list": ["x"]}}, "snr_list"),
    ({"sweep": {"snr_list": "20"}}, "snr_list"),
    ({"sweep": {"trials": "x"}}, "trials"),
    ({"sweep": {"trials": True}}, "trials"),
    ({"sweep": {"k_list": [2, 2]}}, "k_list"),
    ({"sweep": {"snr_list": ["inf", "inf"]}}, "snr_list"),
    ({"config": [1]}, "config: must be an object, got [1]"),
])
def test_sweep_from_manifest_rejects_malformed_input(tmp_path, capsys, manifest, key):
    if isinstance(manifest, dict):  # replace one part of a valid manifest
        valid = {"config": {"snapshots": 10},
                 "sweep": {"k_list": [2], "snr_list": ["inf"], "trials": 1}}
        valid["sweep"].update(manifest.pop("sweep", {}))
        manifest = {**valid, **manifest}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert run_cli(["sweep", "--from-manifest", str(path),
                    "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("content", [b'{"config": {}, "sweep": ', b"\xff\xfe"])
def test_sweep_from_manifest_that_is_not_json_exits_2(tmp_path, capsys, content):
    path = tmp_path / "manifest.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert run_cli(["sweep", "--from-manifest", str(path),
                    "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON (")
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_from_manifest_rejects_a_config_file(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "config": {"snapshots": 10},
        "sweep": {"k_list": [2], "snr_list": [20], "trials": 1}}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"snapshots": 50, "grid_pitch": 0.4}))
    out = tmp_path / "out"
    assert run_cli(["sweep", "--from-manifest", str(manifest),
                    "--config", str(config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--config" in err and "--from-manifest" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("installed", [True, False])
def test_manifest_records_library_versions(tmp_path, monkeypatch, installed):
    import importlib.metadata
    import platform
    scipy = importlib.metadata.version("scipy") if installed else None
    monkeypatch.setattr(cli, "_scipy_version", cli._scipy_version.__wrapped__)
    if not installed:
        def missing(name):
            raise importlib.metadata.PackageNotFoundError(name)
        monkeypatch.setattr(importlib.metadata, "version", missing)
    assert run_cli(["fingerprint", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads(read(tmp_path / "manifest.json"))
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy


def test_sweep_from_manifest_rejects_an_empty_sweep_block(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": {}, "sweep": {}}))
    assert run_cli(["sweep", "--from-manifest", str(manifest),
                    "--out-dir", str(tmp_path / "out")]) == 2
    assert "'k_list'" in capsys.readouterr().err


def test_baseline_subcommand_is_gone(tmp_path, capsys):
    assert exit_code(["baseline", "--set", "targets_k=2",
                      "--out-dir", str(tmp_path)]) == 2
    assert "simulate" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_with_nnls_solver_reruns_byte_identical(tmp_path):
    args = ["sweep", "--set", "solver=nnls", "--K-list", "2,4", "--snr-list",
            "25", "--trials", "2", "--set", "snapshots=50"]
    assert run_cli(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert run_cli(args + ["--jobs", "2", "--out-dir", str(tmp_path / "b")]) == 0
    report = json.loads(read(tmp_path / "a" / "report.json"))
    assert report["config"]["solver"] == "nnls"
    for name in ("report.csv", "report.json"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


def test_every_command_writes_verifying_manifest(tmp_path):
    import hashlib
    cases = [
        ("fp", ["fingerprint"]),
        ("sim", ["simulate", "--set", "targets_k=2", "--set", "scheme=csm"]),
        ("base", ["simulate", "--set", "targets_k=2",
                  "--set", "scheme=rss_baseline"]),
        ("sweep", ["sweep", "--K-list", "2", "--snr-list", "20", "--trials", "1"]),
    ]
    for name, args in cases:
        out = tmp_path / name
        assert run_cli(args + ["--out-dir", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["command"] == args[0]
        assert manifest["outputs"], "manifest must list the run outputs"
        for entry in manifest["outputs"]:
            digest = hashlib.sha256(read(out / entry["path"])).hexdigest()
            assert digest == entry["sha256"]


def test_invalid_config_value_exits_2(tmp_path, capsys):
    cases = [("fingerprint", "grid_pitch=0.3", "grid_pitch"),
             ("simulate", "noise_variance=abc", "noise_variance"),
             ("simulate", "grid_pitch=abc", "grid_pitch"),
             ("simulate", "pd.fov=abc", "fov"),
             ("simulate", "seed=abc", "seed"),
             ("simulate", "seed=1.5", "seed"),
             ("simulate", "led_rows=2.5", "led_rows"),
             ("simulate", "snapshots=1.5", "snapshots"),
             ("simulate", "snapshots=10000000000000000000", "snapshots"),
             ("simulate", "half_power_angle=null", "half_power_angle"),
             ("simulate", 'room_size=[4,4,"a"]', "room_size"),
             ("simulate", "on_grid=2", "on_grid"),
             ("simulate", "noise_variance=1e400", "noise_variance"),
             ("simulate", "room_size=[1e400,4,3]", "room_size"),
             ("simulate", "pd.detector_area=1e400", "detector_area"),
             ("simulate", "grid_pitch=1e-300", "grid_pitch/led_rows/led_cols"),
             ("simulate", "grid_pitch=1e-320", "grid_pitch/led_rows/led_cols"),
             ("fingerprint", "led_rows=100000", "grid_pitch/led_rows/led_cols")]
    for index, (command, assignment, key) in enumerate(cases):
        out = tmp_path / str(index)
        code = run_cli([command, "--set", assignment, "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2, assignment
        assert key in err and "Traceback" not in err, err
        assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("args", [["sweep", "--K-list", "2,150"],
                                  ["simulate", "--set", "targets_k=150"]])
def test_target_count_beyond_grid_exits_2(tmp_path, capsys, args):
    assert run_cli(args + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "targets_k" in err and "150" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.csv").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    assert run_cli(["fingerprint", "--set", "grid_pich=0.2",
                    "--out-dir", str(tmp_path)]) == 2
    # an override names no file
    assert capsys.readouterr().err == "error: unknown config keys: ['grid_pich']\n"


def test_bad_config_file_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid_pitch": }')
    code = run_cli(["fingerprint", "--config", str(bad),
                    "--out-dir", str(tmp_path)])
    assert code == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    ([1], "config: must be an object, got [1]"),
    ({"bogus": 1}, "unknown config keys: ['bogus']"),
], ids=["not-an-object", "unknown-key"])
def test_config_file_content_error_names_the_file(tmp_path, capsys, content,
                                                  message):
    path, out = tmp_path / "f.json", tmp_path / "out"
    path.write_text(json.dumps(content))
    assert run_cli(["fingerprint", "--config", str(path),
                    "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    missing, out = tmp_path / "missing.json", tmp_path / "out"
    assert run_cli(["fingerprint", "--config", str(missing),
                    "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not out.exists()


@pytest.mark.parametrize("sub", ["fingerprint", "simulate", "sweep"])
def test_help_exists_for_every_subcommand(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    assert "--out-dir" in capsys.readouterr().out


def test_invalid_flag_exits_2_without_outputs(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--nonsense", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "scene.json"
    cfg_path.write_text(json.dumps({"grid_pitch": 0.5, "seed": 3,
                                    "pd": {"detector_area": 2e-4}}))
    out = tmp_path / "out"
    assert run_cli(["fingerprint", "--config", str(cfg_path),
                    "--set", "led_rows=2", "--out-dir", str(out)]) == 0
    meta = json.loads(read(out / "meta.json"))
    assert meta["config"]["grid_pitch"] == 0.5
    assert meta["config"]["led_rows"] == 2
    assert meta["config"]["pd"]["detector_area"] == 2e-4
    assert meta["shapes"]["J"] == [8, 64]


@pytest.mark.parametrize("args,key,value", [
    (["--trials", "0"], "trials", "0"),
    (["--jobs", "0"], "jobs", "0"),
    (["--jobs", "-1"], "jobs", "-1"),
    (["--K-list", ""], "k_list", "[]"),
    (["--K-list", ","], "k_list", "[]"),
    (["--snr-list", ""], "snr_list", "[]"),
    (["--snr-list", ","], "snr_list", "[]"),
    (["--snr-list=-inf"], "snr_list", "-inf"),
    (["--snr-list", "20,nan"], "snr_list", "nan"),
    (["--K-list", "2,2"], "k_list", "2 more than once"),
    (["--snr-list", "20,20.0"], "snr_list", "20.0 more than once"),
])
def test_sweep_rejects_bad_campaign_inputs(tmp_path, capsys, args, key, value):
    assert exit_code(["sweep", "--K-list", "2", "--snr-list", "20",
                      "--trials", "1", "--set", "snapshots=10", *args,
                      "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{key}:" in err and value in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.csv").exists()


def test_sweep_accepts_an_inf_snr(tmp_path):
    assert run_cli(["sweep", "--K-list", "2", "--snr-list", "inf",
                    "--trials", "1", "--set", "snapshots=10",
                    "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "report.csv", newline="") as fh:
        assert {row["snr_db"] for row in csv.DictReader(fh)} == {"inf"}


@pytest.mark.parametrize("sub", ["fingerprint", "simulate"])
def test_jobs_is_a_sweep_option_only(tmp_path, capsys, sub):
    assert exit_code([sub, "--jobs", "2", "--out-dir", str(tmp_path)]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["simulate", "--K", "4"],
                                  ["simulate", "--scheme", "csm"],
                                  ["simulate", "--solver", "nnls"],
                                  ["sweep", "--solver", "nnls"]])
def test_config_keys_are_set_only_by_set(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert exit_code(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[1]}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_without_received_signal_exits_0(tmp_path, capsys):
    # a 5 degree field of view leaves this seed's target unseen by every
    # anchor: the realized SNR is -inf, written as "-inf", not a crash
    assert run_cli(["simulate", "--set", "targets_k=1", "--seed", "1",
                    "--set", "pd.fov=5", "--set", "noise_variance=1e-9",
                    "--out-dir", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    trial = json.loads(read(tmp_path / "trial.json"))
    assert trial["snr_db"] == "-inf"


def test_failed_simulate_trial_writes_its_manifest_and_exits_1(tmp_path, capsys):
    # without noise, the target that no anchor sees leaves a zero measurement
    out = tmp_path / "out"
    assert run_cli(["simulate", "--set", "targets_k=1", "--seed", "1",
                    "--set", "pd.fov=5", "--out-dir", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert err == ("error: trial failed for scheme 'cocsm': ValueError: zero "
                   "measurement: support of size k is undefined\n")
    assert stdout == f"{out / 'manifest.json'}\n"
    assert os.listdir(out) == ["manifest.json"]
    assert json.loads(read(out / "manifest.json"))["outputs"] == []


def strict_json(path):
    """Parse as standard JSON: NaN, Infinity and -Infinity are rejected."""
    def reject(constant):
        raise ValueError(f"{path.name}: non-standard JSON constant {constant}")

    return json.loads(read(path), parse_constant=reject)


def test_inf_snr_sweep_writes_standard_json_and_reruns(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    assert run_cli(["sweep", "--K-list", "2", "--snr-list", "20,inf",
                    "--trials", "1", "--set", "snapshots=10",
                    "--out-dir", str(first)]) == 0
    report = strict_json(first / "report.json")
    manifest = strict_json(first / "manifest.json")
    assert report["axes"]["snr_db"] == manifest["sweep"]["snr_list"] \
        == [20.0, "inf"]
    assert {row["snr_db"] for row in report["rows"]} == {20.0, "inf"}
    assert run_cli(["sweep", "--from-manifest", str(first / "manifest.json"),
                    "--out-dir", str(second)]) == 0
    assert read(first / "report.csv") == read(second / "report.csv")
    assert read(first / "report.json") == read(second / "report.json")


def test_dead_cell_sweep_writes_standard_json(tmp_path, monkeypatch):
    def collinear(*args, **kwargs):
        raise ValueError("anchor geometry is collinear")

    monkeypatch.setattr(evaluation, "rss_baseline_locate", collinear)
    assert run_cli(["sweep", "--K-list", "2", "--snr-list", "20",
                    "--trials", "2", "--set", "snapshots=20",
                    "--out-dir", str(tmp_path)]) == 1
    rows = {row["scheme"]: row
            for row in strict_json(tmp_path / "report.json")["rows"]}
    assert rows["rss_baseline"]["mean_error_m"] is None
    assert rows["rss_baseline"]["std_error_m"] is None
    assert rows["rss_baseline"]["failures"] == 2
    strict_json(tmp_path / "manifest.json")


@pytest.mark.parametrize("scheme", ["csm", "cocsm", "rss_baseline"])
def test_dumped_measurement_is_the_trial_measurement(tmp_path, scheme):
    from vlp_sparse import SceneConfig, run_trial
    assert run_cli(["simulate", "--set", "targets_k=3", "--seed", "3",
                    "--set", f"scheme={scheme}",
                    "--set", "snapshots=300", "--set", "noise_variance=1e-12",
                    "--dump-measurements", "--out-dir", str(tmp_path)]) == 0
    config = SceneConfig(targets_k=3, seed=3, scheme=scheme, snapshots=300,
                         noise_variance=1e-12)
    meas = run_trial(config, np.random.default_rng(np.random.SeedSequence(3)),
                     schemes=[scheme])[scheme].measurement
    with open(tmp_path / "measurements.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    model = "correlation" if scheme == "cocsm" else "power"
    lead = [model, "300", f"{1e-12:.17g}"]
    assert [row[:3] for row in rows] == [lead] * len(rows)
    dumped = np.array([[float(v) for v in row[3:]] for row in rows])
    assert np.array_equal(dumped, np.atleast_2d(meas.T))


def test_dead_cell_sweep_lists_outputs_then_fails(tmp_path, monkeypatch, capsys):
    def collinear(*args, **kwargs):
        raise ValueError("anchor geometry is collinear")

    monkeypatch.setattr(evaluation, "rss_baseline_locate", collinear)
    assert run_cli(["sweep", "--K-list", "2", "--snr-list", "20",
                    "--trials", "2", "--set", "snapshots=20",
                    "--out-dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [str(tmp_path / name) for name in
                                ("report.csv", "report.json", "manifest.json")]
    assert err == "error: 1 report cell(s) had 100% solver failure\n"


def test_bad_k_list_exits_2_before_the_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    for argv, message in (
            (["sweep", "--K-list", "2,x"], "expected comma-separated integers, got '2,x'"),
            (["sweep", "--trials", "0"], "trials: must be >= 1, got 0"),
            (["sweep", "--jobs", "0"], "jobs: must be >= 1, got 0"),
            (["sweep", "--K-list", "500"],
             "targets_k: must be in [1, 100] for this grid, got 500"),
            (["sweep", "--snr-list", "nan"],
             "snr_list: must be nonempty, each a number or inf, got [nan]"),
            (["sweep", "--set", "noise_variance=1e-9"],
             "noise_variance: must be 0, as snr_list sets each cell's noise, "
             "got 1e-09"),
            (["simulate", "--set", "targets_k=101"],
             "targets_k: must be in [1, 100] for this grid, got 101")):
        assert run_cli(argv + ["--out-dir", str(out)]) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists(), argv
