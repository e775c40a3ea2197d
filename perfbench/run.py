"""vlp-sparse benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from ``src/`` (pure
Python, nothing to build).  Workloads, all on the default scene (4 x 4 m
room, 0.2 m grid, 16 LEDs), off-grid targets and the default solver, each a
closed loop where a trial starts only after the previous one finished:

* ``sweep_L1e4``: ``vlp_sparse.cli.main(["sweep", ...])`` at ``--jobs 2``,
  K = 2..10, 20 dB, L = 10^4, all three schemes, 4 trials per cell; repeated
  commands with a seed each.  The only workload using the process pool and
  the report/manifest writer.
* ``cocsm_L1e6``: serial ``run_trial`` with cocsm only, K = 8, 40 dB,
  L = 10^6 (the large-L correlation synthesis).
* ``recovery_L1e2``: serial ``run_trial``, all schemes, K = 2..10, 20 dB,
  L = 100 (recovery, lateration and matching dominate).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with span wrappers installed (``spans.py``) and
prints the per-layer metrics.  Both print every metric by name and unit,
then the machine facts, then, as the last line, the JSON result with the
metrics BENCHMARK.json names.  ``mean_error_m.csm``/``.rss_baseline``,
``exact_support_rate.*`` and ``failure_rate`` are printed but not in the
JSON: not every workload runs every scheme, and the exact-support rates
of csm and cocsm are often 0.

``trials_per_s`` is the median rate over ten equal blocks of the run.
``trial_ms`` is per ``run_trial`` call on the library workloads, and each
command's wall time over its cell-trials on ``sweep_L1e4``.  Accuracy covers
a fixed number of leading trials, so it repeats exactly for a seed.

``setup_s`` is the median over several fresh processes of ``import
vlp_sparse`` plus ``build_scene``; the first probe warms the file cache and
is discarded.  The benchmark leaves the BLAS thread variables as it finds
them: pinning them would hide the contention between pool workers and BLAS
threads on the sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_L1e4", "cocsm_L1e6", "recovery_L1e2")
SETUP_PROBES = 5  # after one discarded warm-up probe
DEADLINE_S = 170  # a run must end within 180 s


def child(args, env, out_dir, deadline, *extra):
    """Run measure.py in its own session; kill the whole group on timeout."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, *extra]
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # measure.py and its workers
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vlp_sparse", "__init__.py")):
        print(f"error: no vlp_sparse sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        setups = [child(args, env, out_dir, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES + 1)][1:]
        result = child(args, env, out_dir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass  # another run still uses it

    setups.append(result["setup_s"])
    if args.trace:
        shown = result["per_layer"]
    else:
        shown = {**result["end_to_end"],
                 "setup_s": (statistics.median(setups), "s")}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    for name, (value, unit) in sorted(shown.items()):
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"# samples: {result['samples']} trial latencies, "
          f"{result['above_p90']} above p90; setup_s over {len(setups)} "
          f"processes; {result['attempted']} scheme-trials attempted, "
          f"{result['failed']} failed")
    print(f"# machine: {json.dumps(result['facts'], sort_keys=True)}")
    for problem, times in result["problems"].items():
        print(f"# check failed {times}x: {problem}")
    # a metric whose function a later version lacks is absent, not an error
    metrics = {m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]}
               for m in spec if m["name"] in shown}
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
