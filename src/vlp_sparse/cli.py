"""Command-line front end: fingerprint/simulate/sweep subcommands.

Outputs are plot-ready CSV tables (floats at 17 significant digits, so the
text round-trips) with JSON mirrors, plus a run manifest with content
digests.  Reruns with the same config and seed are byte-identical, for any
``--jobs``; volatile values (wall-clock runtimes, timestamps) never enter
the CSV/JSON result files, only the manifest.  Each command returns its
written paths, its manifest extras and its failure message (None, or exit 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .evaluation import (CampaignReport, aligned_estimates, build_scene,
                         run_campaign, run_trial)
from .scenario import (SCHEMES, SOLVERS, ConfigError, SceneConfig,
                       apply_overrides, config_from_dict, config_to_dict,
                       load_config)

REPORT_COLUMNS = ("scheme", "K", "snr_db", "L", "trials",
                  "mean_error_m", "std_error_m", "success_rate", "failures")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.17g")


def _jsonable(value):
    """Standard JSON: numpy to Python, +-inf as "inf"/"-inf" as in CSV, NaN null."""
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def cmd_fingerprint(config: SceneConfig, out_dir: str):
    """Write the gain matrix and both fingerprints plus a metadata sidecar."""
    scene = build_scene(config)
    paths = {
        "H.csv": scene.gains,
        "J.csv": scene.power_fp,
        "Psi.csv": scene.corr_fp,
    }
    written = []
    os.makedirs(out_dir, exist_ok=True)  # only now: a rejected input leaves none
    for name, matrix in paths.items():
        path = os.path.join(out_dir, name)
        _write_matrix_csv(path, matrix)
        written.append(path)
    meta = {
        "config": config_to_dict(config),
        "shapes": {"H": list(scene.gains.shape),
                   "J": list(scene.power_fp.shape),
                   "Psi": list(scene.corr_fp.shape)},
        "pair_order": "Psi rows follow anchor pairs (i, j), i <= j, "
                      "in lexicographic order; i == j rows equal rows of J",
        "pairs": [[int(i), int(j)] for i, j in
                  zip(scene.pairs.first, scene.pairs.second)],
        "csv_float_format": "%.17g",
    }
    meta_path = os.path.join(out_dir, "meta.json")
    _write_json(meta_path, meta)
    written.append(meta_path)
    return written, {}, None


def cmd_simulate(config: SceneConfig, out_dir: str,
                 dump_measurements: bool = False):
    """Run one trial of the configured scheme and write scatter + trial files."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    results = run_trial(config, rng, schemes=[config.scheme])
    result = results[config.scheme]
    if result.failed:
        raise ConfigError(f"trial failed for scheme '{config.scheme}': "
                          f"{result.failure}")

    os.makedirs(out_dir, exist_ok=True)
    scatter_path = os.path.join(out_dir, "scatter.csv")
    aligned = aligned_estimates(result.est_positions, result.true_positions)
    with open(scatter_path, "w") as fh:
        fh.write("trial,scheme,true_x,true_y,est_x,est_y\n")
        for truth, est in zip(result.true_positions, aligned):
            fh.write(",".join(["0", config.scheme, _fmt(float(truth[0])),
                               _fmt(float(truth[1])), _fmt(float(est[0])),
                               _fmt(float(est[1]))]) + "\n")

    trial_path = os.path.join(out_dir, "trial.json")
    _write_json(trial_path, {
        "config": config_to_dict(config),
        "scheme": config.scheme,
        "error_m": result.error_m,
        "exact_support": bool(result.exact_support),
        "snr_db": result.snr_db,
        "snapshots": result.snapshots,
        "support": result.support,
        "true_positions": result.true_positions,
        "est_positions": aligned,
    })
    written = [scatter_path, trial_path]

    if dump_measurements:
        meas = result.measurement
        rows = np.atleast_2d(meas.values.T)  # the baseline's: one per target
        meas_path = os.path.join(out_dir, "measurements.csv")
        header = ["model", "L", "sigma2"] + [f"v{i:03d}" for i in range(rows.shape[1])]
        lead = [meas.model, str(meas.snapshots), _fmt(meas.noise_variance)]
        with open(meas_path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(lead + [_fmt(float(v)) for v in row]) + "\n")
        written.append(meas_path)
    return written, {}, None


def _write_report(report: CampaignReport, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for row in report.rows:
            fh.write(",".join(_fmt(row[c]) for c in REPORT_COLUMNS) + "\n")
    json_path = os.path.join(out_dir, "report.json")
    _write_json(json_path, {
        "config": config_to_dict(report.config),
        "axes": {"K": report.k_list, "snr_db": report.snr_list,
                 "trials": report.trials, "schemes": list(report.schemes)},
        "rows": report.rows,
    })
    return [csv_path, json_path]


def _write_manifest(out_dir: str, command: str, config: SceneConfig,
                    written: list[str], started: str, **extras) -> str:
    """Digest every output and write the manifest atomically, last."""
    manifest = {
        "tool": "vlp-sparse",
        "version": __version__,
        "command": command,
        "config": config_to_dict(config),
        "seed": config.seed,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [{"path": os.path.basename(p), "sha256": _sha256(p)}
                    for p in written],
        **extras,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    tmp_path = manifest_path + ".tmp"
    _write_json(tmp_path, manifest)
    os.replace(tmp_path, manifest_path)
    return manifest_path


def cmd_sweep(config: SceneConfig, out_dir: str, k_list, snr_list,
              trials: int, jobs: int):
    """Run the campaign and write the report files; fail on a dead cell."""
    report = run_campaign(config, k_list, snr_list, trials, jobs=jobs)
    dead = sum(row["failures"] == report.trials for row in report.rows)
    return (_write_report(report, out_dir),
            {"sweep": {"k_list": report.k_list, "snr_list": report.snr_list,
                       "trials": report.trials, "schemes": report.schemes}},
            f"{dead} report cell(s) had 100% solver failure" if dead else None)


def _parse_list(text: str, kind, what: str) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated {what}, got '{text}'") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file (SceneConfig field names)")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config key (pd.* reaches the optics)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out-dir", default=None,
                        help="output directory (default: $VLP_SPARSE_OUT or .)")

    parser = argparse.ArgumentParser(
        prog="vlp-sparse",
        description="Sparse-recovery simulation of cooperative multi-target "
                    "visible light positioning")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fingerprint", parents=[common],
                   help="write gain matrix and fingerprint databases as CSV")

    sim = sub.add_parser("simulate", parents=[common],
                         help="run one trial and write a scatter table")
    sim.add_argument("--K", dest="targets_k", type=int, metavar="K",
                     help="number of targets")
    sim.add_argument("--scheme", choices=SCHEMES)
    sim.add_argument("--solver", choices=SOLVERS)
    sim.add_argument("--dump-measurements", action="store_true",
                     help="also write the raw measurement vector(s)")

    sweep = sub.add_parser("sweep", parents=[common],
                           help="Monte-Carlo campaign over K and SNR")
    sweep.add_argument("--solver", choices=SOLVERS)
    sweep.add_argument("--K-list", default="2,4,6,8,10", metavar="K1,K2,...")
    sweep.add_argument("--snr-list", default="20", metavar="DB1,DB2,...")
    sweep.add_argument("--trials", type=int, default=200)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="processes running the trials")
    sweep.add_argument("--from-manifest", metavar="PATH",
                       help="rerun the sweep recorded in a manifest")
    return parser


def _effective_config(args, manifest: dict | None) -> SceneConfig:
    """The config file or the manifest's config, then ``--set``, then flags."""
    if manifest is not None:
        config = config_from_dict(manifest["config"])
    else:
        config = load_config(args.config) if args.config else SceneConfig()
    if args.overrides:
        config = apply_overrides(config, args.overrides)
    return dataclasses.replace(config, **{  # each flag's dest is its config key
        key: getattr(args, key) for key in ("seed", "targets_k", "scheme", "solver")
        if getattr(args, key, None) is not None})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = args.out_dir or os.environ.get("VLP_SPARSE_OUT") or "."
    try:
        manifest = None
        if getattr(args, "from_manifest", None):
            with open(args.from_manifest) as fh:
                manifest = json.load(fh)
            if "config" not in manifest or "sweep" not in manifest:
                raise ConfigError(f"{args.from_manifest}: not a sweep manifest")
            for key in ("k_list", "snr_list", "trials"):
                if not isinstance(manifest["sweep"], dict) \
                        or key not in manifest["sweep"]:
                    raise ConfigError(f"{args.from_manifest}: the sweep block "
                                      f"lacks '{key}'")
        config = _effective_config(args, manifest)
        if args.command == "sweep":
            axes = manifest["sweep"] if manifest is not None else {
                "k_list": _parse_list(args.K_list, int, "integers"),
                "snr_list": _parse_list(args.snr_list, float, "numbers"),
                "trials": args.trials}

        started = datetime.now(timezone.utc).isoformat()
        if args.command == "fingerprint":
            written, extras, failure = cmd_fingerprint(config, out_dir)
        elif args.command == "simulate":
            written, extras, failure = cmd_simulate(config, out_dir,
                                                    args.dump_measurements)
        else:
            written, extras, failure = cmd_sweep(
                config, out_dir, axes["k_list"], axes["snr_list"],
                axes["trials"], jobs=args.jobs)
        written.append(_write_manifest(out_dir, args.command, config, written,
                                       started, **extras))
        for path in written:
            print(path)
        if failure:
            print(f"error: {failure}", file=sys.stderr)
            return 1
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
