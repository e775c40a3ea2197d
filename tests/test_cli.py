import csv
import json
import os

import numpy as np
import pytest

from vlp_sparse import evaluation
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


def test_simulate_scatter_has_one_row_per_target(tmp_path):
    assert run_cli(["simulate", "--K", "8", "--scheme", "cocsm",
                    "--out-dir", str(tmp_path)]) == 0
    lines = read(tmp_path / "scatter.csv").decode().strip().splitlines()
    assert lines[0] == "trial,scheme,true_x,true_y,est_x,est_y"
    assert len(lines) == 9
    assert all(line.split(",")[1] == "cocsm" for line in lines[1:])
    trial = json.loads(read(tmp_path / "trial.json"))
    assert trial["scheme"] == "cocsm"
    assert len(trial["est_positions"]) == 8


def test_simulate_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--K", "4", "--scheme", "csm", "--seed", "123"]
    run_cli(args + ["--out-dir", str(a)])
    run_cli(args + ["--out-dir", str(b)])
    assert read(a / "scatter.csv") == read(b / "scatter.csv")
    assert read(a / "trial.json") == read(b / "trial.json")


def test_simulate_baseline_scheme_rows(tmp_path):
    assert run_cli(["simulate", "--K", "8", "--scheme", "rss_baseline",
                    "--out-dir", str(tmp_path)]) == 0
    lines = read(tmp_path / "scatter.csv").decode().strip().splitlines()
    assert len(lines) == 9


def test_baseline_subcommand_forces_scheme(tmp_path):
    assert run_cli(["baseline", "--K", "3", "--out-dir", str(tmp_path)]) == 0
    trial = json.loads(read(tmp_path / "trial.json"))
    assert trial["scheme"] == "rss_baseline"


def test_simulate_dumps_measurement_vector(tmp_path):
    assert run_cli(["simulate", "--K", "2", "--scheme", "csm",
                    "--dump-measurements", "--out-dir", str(tmp_path)]) == 0
    lines = read(tmp_path / "measurements.csv").decode().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["model", "L", "sigma2"]
    assert len(header) == 3 + 16
    assert len(lines) == 2
    assert lines[1].startswith("power,")


def test_simulate_baseline_dumps_one_power_vector_per_target(tmp_path):
    assert run_cli(["simulate", "--K", "3", "--scheme", "rss_baseline",
                    "--dump-measurements", "--out-dir", str(tmp_path)]) == 0
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


def test_sweep_rejects_non_sweep_manifest(tmp_path, capsys):
    run_cli(["fingerprint", "--out-dir", str(tmp_path)])
    code = run_cli(["sweep", "--from-manifest", str(tmp_path / "manifest.json"),
                    "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "not a sweep manifest" in capsys.readouterr().err


def test_sweep_with_ista_solver(tmp_path):
    code = run_cli(["sweep", "--solver", "ista", "--K-list", "2",
                    "--snr-list", "25", "--trials", "1",
                    "--set", "snapshots=50", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads(read(tmp_path / "report.json"))
    assert report["config"]["solver"] == "ista"


def test_sweep_with_nnls_solver_reruns_byte_identical(tmp_path):
    args = ["sweep", "--solver", "nnls", "--K-list", "2,4", "--snr-list",
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
        ("sim", ["simulate", "--K", "2", "--scheme", "csm"]),
        ("base", ["baseline", "--K", "2"]),
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
    code = run_cli(["fingerprint", "--set", "grid_pitch=0.3",
                    "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "grid_pitch" in err
    assert not (tmp_path / "J.csv").exists()


def test_unknown_config_key_exits_2(tmp_path):
    assert run_cli(["fingerprint", "--set", "grid_pich=0.2",
                    "--out-dir", str(tmp_path)]) == 2


def test_bad_config_file_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid_pitch": }')
    code = run_cli(["fingerprint", "--config", str(bad),
                    "--out-dir", str(tmp_path)])
    assert code == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["fingerprint", "simulate", "sweep", "baseline"])
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


def test_out_dir_env_default(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("VLP_SPARSE_OUT", str(target))
    assert run_cli(["fingerprint"]) == 0
    assert (target / "J.csv").exists()


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
