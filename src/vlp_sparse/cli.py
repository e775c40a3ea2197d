"""Command-line front end: fingerprint/simulate/sweep subcommands.

Every ``SceneConfig`` key (``scheme``, ``solver``, ``targets_k``, ...) is
set by ``--config`` or ``--set KEY=VALUE``; only the seed has a flag of its
own, ``--seed``.  ``sweep --from-manifest`` reruns the recorded config and
axes; a ``--set``, ``--seed``, ``--K-list``, ``--snr-list`` or ``--trials``
that is given overrides the recorded value, and ``--config`` is rejected.

Outputs are plot-ready CSV tables (floats at 17 significant digits, so the
text round-trips) with JSON mirrors, plus a run manifest with content
digests.  Reruns with the same config and seed are byte-identical, for any
``--jobs``; volatile values (wall-clock runtimes, timestamps, the Python,
numpy and scipy versions) never enter the CSV/JSON result files, only the
manifest.  Each command returns its written paths, its manifest extras and
its failure message (None, or exit 1).
Exit 2 means an input was rejected before anything ran or was written; exit 1
that a command ran and failed (its manifest still written), or an I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import platform
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .evaluation import aligned_estimates, build_scene, run_campaign, run_trial
from .scenario import (SCHEMES, ConfigError, SceneConfig, apply_overrides,
                       config_from_dict, config_to_dict, load_config, load_json)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: str, rows) -> None:
    """One line per row (a header is a row), every cell by ``_fmt``."""
    with open(path, "w") as fh:
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


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
    matrices = {"H": scene.gains, "J": scene.power_dict.matrix,
                "Psi": scene.corr_dict.matrix}
    written = []
    os.makedirs(out_dir, exist_ok=True)  # only now: a rejected input leaves none
    for name, matrix in matrices.items():
        path = os.path.join(out_dir, f"{name}.csv")
        _write_csv(path, matrix.tolist())
        written.append(path)
    meta = {
        "config": config_to_dict(config),
        "shapes": {name: list(matrix.shape) for name, matrix in matrices.items()},
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
    result = run_trial(config, rng, schemes=[config.scheme])[config.scheme]
    os.makedirs(out_dir, exist_ok=True)  # the manifest goes here either way
    if result.failed:
        return [], {}, (f"trial failed for scheme '{config.scheme}': "
                        f"{result.failure}")

    scatter_path = os.path.join(out_dir, "scatter.csv")
    aligned = aligned_estimates(result.est_positions, result.true_positions)
    _write_csv(scatter_path, [["trial", "scheme", "true_x", "true_y", "est_x", "est_y"]]
               + [[0, config.scheme, *truth, *est] for truth, est in
                  zip(result.true_positions.tolist(), aligned.tolist())])

    trial_path = os.path.join(out_dir, "trial.json")
    _write_json(trial_path, {
        "config": config_to_dict(config),
        "scheme": config.scheme,
        "error_m": result.error_m,
        "exact_support": bool(result.exact_support),
        "snr_db": result.snr_db,
        "snapshots": config.snapshots,
        "support": result.support,
        "true_positions": result.true_positions,
        "est_positions": aligned,
    })
    written = [scatter_path, trial_path]

    if dump_measurements:
        rows = np.atleast_2d(result.measurement.T)  # the baseline's: one per target
        meas_path = os.path.join(out_dir, "measurements.csv")
        header = ["model", "L", "sigma2"] + [f"v{i:03d}" for i in range(rows.shape[1])]
        # simulate passes no snr_db: the trial's noise is the config's
        lead = ["correlation" if config.scheme == "cocsm" else "power",
                config.snapshots, config.noise_variance]
        _write_csv(meas_path, [header] + [lead + row for row in rows.tolist()])
        written.append(meas_path)
    return written, {}, None


@functools.cache
def _scipy_version() -> str | None:
    """scipy's installed version, read from its metadata without importing
    scipy.  ``importlib.metadata`` is loaded only here (about 3 MB), and the
    lookup (about 2 ms) is made once per process."""
    import importlib.metadata
    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return None


def _write_manifest(out_dir: str, command: str, config: SceneConfig,
                    written: list[str], started: str, **extras) -> str:
    """Digest every output and write the manifest atomically, last."""
    manifest = {
        "tool": "vlp-sparse",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _scipy_version(),
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
    """Run the campaign and write the report files; fail on a dead cell.

    The rows' keys are the columns of ``report.csv``; the K and SNR axes are
    read back from the rows, as ``run_campaign`` normalized them.
    """
    rows = run_campaign(config, k_list, snr_list, trials, jobs=jobs).rows
    k_list, snr_list = (list(dict.fromkeys(row[key] for row in rows))
                        for key in ("K", "snr_db"))
    os.makedirs(out_dir, exist_ok=True)
    written = [os.path.join(out_dir, name) for name in ("report.csv", "report.json")]
    _write_csv(written[0], [list(rows[0])] + [list(row.values()) for row in rows])
    _write_json(written[1], {"config": config_to_dict(config), "rows": rows,
                             "axes": {"K": k_list, "snr_db": snr_list,
                                      "trials": trials, "schemes": SCHEMES}})
    dead = sum(row["failures"] == trials for row in rows)
    return (written, {"sweep": {"k_list": k_list, "snr_list": snr_list,
                                "trials": trials, "schemes": SCHEMES}},
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
    common.add_argument("--out-dir", default=".",
                        help="output directory (default: .)")

    parser = argparse.ArgumentParser(
        prog="vlp-sparse",
        description="Sparse-recovery simulation of cooperative multi-target "
                    "visible light positioning")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fingerprint", parents=[common],
                   help="write gain matrix and fingerprint databases as CSV")

    sim = sub.add_parser("simulate", parents=[common],
                         help="run one trial and write a scatter table")
    sim.add_argument("--dump-measurements", action="store_true",
                     help="also write the raw measurement vector(s)")

    sweep = sub.add_parser("sweep", parents=[common],
                           help="Monte-Carlo campaign over K and SNR")
    sweep.add_argument("--K-list", metavar="K1,K2,...",
                       help="target counts (default: 2,4,6,8,10)")
    sweep.add_argument("--snr-list", metavar="DB1,DB2,...",
                       help="SNRs in dB, inf for none (default: 20)")
    sweep.add_argument("--trials", type=int, help="trials per cell (default: 200)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="processes running the trials")
    sweep.add_argument("--from-manifest", metavar="PATH",
                       help="rerun the sweep recorded in a manifest; the "
                            "sweep flags given override its values "
                            "(not with --config)")
    return parser


def _effective_config(args, manifest: dict | None) -> SceneConfig:
    """The config file or the manifest's config, then ``--set``, then ``--seed``."""
    if manifest is not None:
        config = config_from_dict(manifest["config"])
    else:
        config = load_config(args.config) if args.config else SceneConfig()
    if args.overrides:
        config = apply_overrides(config, args.overrides)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        manifest = None
        if getattr(args, "from_manifest", None):
            if args.config:
                raise ConfigError("--config and --from-manifest cannot be "
                                  "combined: the manifest holds the config")
            manifest = load_json(args.from_manifest)
            if not isinstance(manifest, dict) \
                    or "config" not in manifest or "sweep" not in manifest:
                raise ConfigError(f"{args.from_manifest}: not a sweep manifest")
            for key in ("k_list", "snr_list", "trials"):
                if not isinstance(manifest["sweep"], dict) \
                        or key not in manifest["sweep"]:
                    raise ConfigError(f"{args.from_manifest}: the sweep block "
                                      f"lacks '{key}'")
        config = _effective_config(args, manifest)
        if args.command == "sweep":
            axes = dict(manifest["sweep"]) if manifest is not None else {
                "k_list": [2, 4, 6, 8, 10], "snr_list": [20.0], "trials": 200}
            if args.K_list is not None:
                axes["k_list"] = _parse_list(args.K_list, int, "integers")
            if args.snr_list is not None:
                axes["snr_list"] = _parse_list(args.snr_list, float, "numbers")
            if args.trials is not None:
                axes["trials"] = args.trials

        started = datetime.now(timezone.utc).isoformat()
        if args.command == "fingerprint":
            written, extras, failure = cmd_fingerprint(config, args.out_dir)
        elif args.command == "simulate":
            written, extras, failure = cmd_simulate(config, args.out_dir,
                                                    args.dump_measurements)
        else:
            written, extras, failure = cmd_sweep(
                config, args.out_dir, axes["k_list"], axes["snr_list"],
                axes["trials"], jobs=args.jobs)
        written.append(_write_manifest(args.out_dir, args.command, config, written,
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
