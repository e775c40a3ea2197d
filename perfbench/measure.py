"""One measuring process: set-up, a timed closed loop, output checks.

Run by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``;
prints one JSON object as its last stdout line.  Only the standard library
is imported before the set-up clock starts, so ``setup_s`` covers
``import vlp_sparse`` (numpy and scipy with it) plus ``build_scene``.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

K_LIST = (2, 4, 6, 8, 10)
SCHEMES = ("csm", "cocsm", "rss_baseline")
# Library workloads: (snapshots L, K list, SNR dB, schemes, accuracy prefix).
# Accuracy covers the first `prefix` trials only, so it repeats exactly for a
# fixed seed however many trials fit in the run.
LIBRARY = {
    "cocsm_L1e6": (10 ** 6, (8,), 40.0, ("cocsm",), 44),
    "recovery_L1e2": (100, K_LIST, 20.0, SCHEMES, 1000),
}
# sweep_L1e4: `--trials` per cell of each command; accuracy covers the first
# SWEEP_PREFIX commands, each with its own seed.
SWEEP_TRIALS, SWEEP_PREFIX, SWEEP_JOBS = 4, 8, 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }


class Tally:
    """Scheme-trial outcomes: attempts, failures, errors, exact supports."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.trials = dict.fromkeys(SCHEMES, 0)
        self.ok = dict.fromkeys(SCHEMES, 0)
        self.error_sum = dict.fromkeys(SCHEMES, 0.0)
        self.exact = dict.fromkeys(SCHEMES, 0)
        self.problems: list[str] = []

    def add(self, scheme, trials, failures, mean_error, exact, accuracy):
        """`trials` scheme-trials, `mean_error` over the non-failed ones."""
        self.attempted += trials
        self.failed += failures
        if failures < trials and not math.isfinite(mean_error):
            self.problems.append(f"{scheme}: non-finite error on a trial "
                                 "not counted as failed")
        elif accuracy:
            self.trials[scheme] += trials
            self.ok[scheme] += trials - failures
            self.error_sum[scheme] += mean_error * (trials - failures)
            self.exact[scheme] += exact

    def accuracy(self) -> dict[str, tuple[float, str]]:
        out = {}
        for s in SCHEMES:
            if self.ok[s]:
                out[f"mean_error_m.{s}"] = (self.error_sum[s] / self.ok[s], "m")
            if self.trials[s]:
                out[f"exact_support_rate.{s}"] = (
                    self.exact[s] / self.trials[s], "ratio")
        out["failure_rate"] = (self.failed / max(self.attempted, 1), "ratio")
        return out


class Library:
    """cocsm_L1e6 and recovery_L1e2: serial `run_trial` calls."""

    jobs = 1
    cells_per_unit = 1

    def __init__(self, name, seed, scene, vlp):
        self.snapshots, self.k_list, self.snr, self.schemes, self.prefix = \
            LIBRARY[name]
        self.seed, self.scene, self.vlp = seed, scene, vlp
        self.configs = {k: vlp.SceneConfig(snapshots=self.snapshots,
                                           targets_k=k) for k in self.k_list}

    def rebuild_scene(self):
        self.scene = self.vlp.evaluation.build_scene(self.vlp.SceneConfig())

    def loop(self, seconds, prefix, tally):
        """Whole rounds of the K list until `seconds` and `prefix` are done.

        Returns the loop's start and each trial's end time, and per-trial
        latencies in seconds.
        """
        import numpy as np
        latencies = []
        marks = [time.perf_counter()]
        t = 0
        while t < prefix or marks[-1] - marks[0] < seconds:
            for k in self.k_list:
                rng = np.random.default_rng(
                    np.random.SeedSequence(self.seed, spawn_key=(0, t)))
                t0 = time.perf_counter()
                # looked up per call, so a traced phase sees the span wrapper
                results = self.vlp.evaluation.run_trial(
                    self.configs[k], rng, scene=self.scene, snr_db=self.snr,
                    schemes=self.schemes)
                latencies.append(time.perf_counter() - t0)
                if set(results) != set(self.schemes):
                    tally.problems.append(f"schemes {sorted(results)} returned")
                for scheme, r in results.items():
                    tally.add(scheme, 1, int(r.failed),
                              math.nan if r.failed else r.error_m,
                              int(r.exact_support and not r.failed),
                              accuracy=t < prefix)
                t += 1
                marks.append(time.perf_counter())
        return marks, latencies

    def check(self, tally):
        """Per-trial checks happen in `loop`."""


class Sweep:
    """sweep_L1e4: repeated `vlp-sparse sweep` commands at --jobs 2."""

    jobs = SWEEP_JOBS
    cells_per_unit = SWEEP_TRIALS * len(K_LIST)
    prefix = SWEEP_PREFIX

    def __init__(self, seed, out_dir, vlp):
        self.seed, self.out_dir, self.vlp = seed, out_dir, vlp
        self.first_digest = None

    def rebuild_scene(self):
        """Each command builds its scenes in its own workers."""

    def command(self, index, jobs, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        argv = ["sweep", "--K-list", ",".join(map(str, K_LIST)),
                "--snr-list", "20", "--set", "snapshots=10000",
                "--trials", str(SWEEP_TRIALS), "--jobs", str(jobs),
                "--seed", str(self.seed * 1_000_000 + index),
                "--out-dir", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.vlp.cli.main(argv)
        with open(os.path.join(out_dir, "report.csv"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(out_dir, "report.json")) as fh:
            rows = json.load(fh)["rows"]
        return code, digest, rows

    def loop(self, seconds, prefix, tally):
        """Commands until `seconds` and `prefix` are done.

        Returns the loop's start and each command's end time, and each
        command's wall seconds divided by its cell-trials.
        """
        latencies = []
        marks = [time.perf_counter()]
        c = 0
        while c < prefix or marks[-1] - marks[0] < seconds:
            code, digest, rows = self.command(c, self.jobs, self.out_dir)
            marks.append(time.perf_counter())
            latencies.append((marks[-1] - marks[-2]) / self.cells_per_unit)
            if self.first_digest is None:
                self.first_digest = digest
            elif c == 0 and digest != self.first_digest:
                tally.problems.append("report.csv differs on a repeat")
            if code != 0:
                tally.problems.append(f"sweep exited with {code}")
            for scheme in SCHEMES:
                mine = [r for r in rows if r["scheme"] == scheme]
                if sorted(r["K"] for r in mine) != list(K_LIST) or any(
                        r["trials"] != SWEEP_TRIALS for r in mine):
                    tally.problems.append(f"{scheme}: rows do not match "
                                          "the K list and trial count")
                for r in mine:
                    err = r["mean_error_m"]
                    tally.add(scheme, r["trials"], r["failures"],
                              math.nan if err is None else float(err),
                              round(r["success_rate"] * r["trials"]),
                              accuracy=c < prefix)
            c += 1
        return marks, latencies

    def check(self, tally):
        """report.csv of command 0 is the same at --jobs 1.

        Every loop, the warm-up included, starts with command 0, so the
        repeats at --jobs 2 are checked in `loop`.
        """
        code, digest, _ = self.command(0, 1, os.path.join(self.out_dir, "jobs1"))
        if code != 0 or digest != self.first_digest:
            tally.problems.append("report.csv at --jobs 1 differs")


def block_rate(marks, cells_per_unit, blocks=10):
    """Median cell-trials per second over equal blocks of consecutive units.

    The median keeps a burst of load from other processes on the machine
    from moving the figure as much as it would move the overall mean.
    """
    n = len(marks) - 1
    blocks = min(blocks, n)
    bounds = [i * n // blocks for i in range(blocks + 1)]
    return statistics.median(
        (b - a) * cells_per_unit / (marks[b] - marks[a])
        for a, b in zip(bounds, bounds[1:]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import vlp_sparse
    import vlp_sparse.cli
    scene = vlp_sparse.build_scene(vlp_sparse.SceneConfig())
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(vlp_sparse.__file__).startswith(src + os.sep):
        print(f"error: vlp_sparse imported from {vlp_sparse.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    if args.workload == "sweep_L1e4":
        workload = Sweep(args.seed, os.path.join(args.out_dir, "sweep"),
                         vlp_sparse)
    else:
        workload = Library(args.workload, args.seed, scene, vlp_sparse)
    # A traced run splits its time between an untraced and a traced phase;
    # it reports per-layer metrics only, so it needs no accuracy prefix.
    seconds = args.seconds / 2 if args.trace else args.seconds
    prefix = 1 if args.trace else workload.prefix

    tally, warm_up = Tally(), Tally()
    workload.loop(0, 1, warm_up)  # lazy imports and first-call costs
    tally.problems += warm_up.problems
    marks, latencies = workload.loop(seconds, prefix, tally)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if isinstance(workload, Sweep):
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workload.check(tally)
    rate = block_rate(marks, workload.cells_per_unit)
    ms = sorted(1e3 * v for v in latencies)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] \
        if len(ms) > 1 else ms[0]
    result = {
        "setup_s": setup_s, "facts": machine_facts(),
        "samples": len(ms),
        "above_p90": sum(v > p90 for v in ms),
        "end_to_end": {
            "trials_per_s": (rate, "1/s"),
            "trial_ms.p50": (statistics.median(ms), "ms"),
            "trial_ms.p90": (p90, "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            **tally.accuracy(),
        },
    }
    if args.trace:
        from spans import Tracer
        tracer = Tracer(os.path.join(args.out_dir, "spans"))
        tracer.install()
        workload.rebuild_scene()
        cpu0 = cpu_seconds()
        marks, _ = workload.loop(seconds, 1, tally)
        cpu = cpu_seconds() - cpu0
        wall = marks[-1] - marks[0]
        layer = tracer.metrics((len(marks) - 1) * workload.cells_per_unit,
                               wall, workload.jobs, cpu)
        layer["trace.overhead"] = (
            block_rate(marks, workload.cells_per_unit) - rate, "1/s")
        result["per_layer"] = layer
    result.update(attempted=tally.attempted, failed=tally.failed,
                  problems=collections.Counter(tally.problems))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
