"""Outside-in spans around the public functions of ``vlp_sparse``.

Each wrapper replaces a module attribute *where callers look it up* (for
example ``vlp_sparse.evaluation.synthesize_snapshot_power``, not the name in
``measurement``), so nothing under ``src/`` changes.  A function that a later
version of the package no longer has is skipped: its metrics are absent.

Spans live in memory per process and are appended to one file per PID each
time the process's outermost span closes.  Pool workers forked by
``run_campaign`` inherit the wrappers and write their own files, so worker
busy time is measured, not inferred.  (This needs the pool to fork, the
Linux default before Python 3.14; with another start method the worker
spans are absent.)  Self time is a span's duration minus the time covered
by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

CS_SCHEMES = ("csm", "cocsm")


def _synth_attrs(bound, result):
    gains = bound["target_gains"]
    return {"M": int(gains.shape[0]), "K": int(gains.shape[1]),
            "L": int(bound["snapshots"])}


def _trial_attrs(bound, result):
    cs = [r for name, r in result.items() if name in CS_SCHEMES]
    return {"k": int(bound["config"].targets_k), "cs": len(cs),
            "exact": sum(bool(r.exact_support) for r in cs)}


# (module where callers look the name up, attribute, span name, annotator)
TARGETS = (
    ("vlp_sparse.cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("vlp_sparse.cli", "run_campaign", "evaluation.run_campaign", None),
    ("vlp_sparse.evaluation", "build_scene", "evaluation.build_scene",
     lambda b, r: {"k": int(b["config"].targets_k)}),
    ("vlp_sparse.evaluation", "run_trial", "evaluation.run_trial", _trial_attrs),
    ("vlp_sparse.evaluation", "sample_targets", "scenario.sample_targets", None),
    ("vlp_sparse.evaluation", "gains_to_points", "channel.gains_to_points", None),
    ("vlp_sparse.evaluation", "synthesize_snapshot_power",
     "measurement.synthesize_snapshot_power", _synth_attrs),
    ("vlp_sparse.evaluation", "synthesize_snapshot_correlation",
     "measurement.synthesize_snapshot_correlation", _synth_attrs),
    ("vlp_sparse.evaluation", "locate_csm", "recovery.locate_csm", None),
    ("vlp_sparse.evaluation", "locate_cocsm", "recovery.locate_cocsm", None),
    ("vlp_sparse.recovery", "omp", "recovery.omp",
     lambda b, r: {"iterations": int(r.iterations)}),
    ("vlp_sparse.evaluation", "rss_baseline_locate",
     "evaluation.rss_baseline_locate", None),
    ("vlp_sparse.evaluation", "match_and_error", "evaluation.match_and_error", None),
)
LAYERS = ("scenario", "channel", "measurement", "recovery", "evaluation", "cli")
SYNTH = ("measurement.synthesize_snapshot_power",
         "measurement.synthesize_snapshot_correlation")
# span name -> per-cell-trial fields reported for it
PER_TRIAL = {
    SYNTH[0]: ("calls", "ms", "snapshots"),
    SYNTH[1]: ("calls", "ms", "snapshots"),
    "recovery.locate_csm": ("ms",),
    "recovery.locate_cocsm": ("ms",),
    "recovery.omp": ("calls", "ms", "iterations"),
    "evaluation.rss_baseline_locate": ("calls", "ms"),
    "evaluation.match_and_error": ("calls", "ms"),
    "scenario.sample_targets": ("ms",),
    "channel.gains_to_points": ("ms",),
    "evaluation.run_trial": ("self_ms",),
    "evaluation.build_scene": ("calls",),
}
# field -> (unit, total over a span group)
FIELDS = {
    "calls": ("count", len),
    "ms": ("ms", lambda group: 1e3 * sum(s["dur"] for s in group)),
    "self_ms": ("ms", lambda group: 1e3 * sum(s["self"] for s in group)),
    "snapshots": ("count", lambda group: sum(s["attrs"]["L"] for s in group)),
    "iterations": ("count",
                   lambda group: sum(s["attrs"]["iterations"] for s in group)),
}


class Tracer:
    """Installs span wrappers and turns the span files into per-layer metrics."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.installed: set[str] = set()
        self._pid = None
        self._stack: list[list[float]] = []
        self._buf: list[list] = []

    def install(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        for module_name, attr, span, annotate in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._wrap(span, fn, annotate))
                self.installed.add(span)

    def _wrap(self, span, fn, annotate):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._pid != os.getpid():  # first span in a forked worker
                self._pid, self._stack, self._buf = os.getpid(), [], []
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, start, frame, None)
                raise
            attrs = None
            if annotate is not None:
                try:
                    attrs = annotate(signature.bind(*args, **kwargs).arguments,
                                     result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    attrs = None  # the API changed: the count is absent
            self._close(span, start, frame, attrs)
            return result

        return wrapper

    def _close(self, span, start, frame, attrs) -> None:
        end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += end - start
        self._buf.append([span, start, end, end - start - frame[0],
                          len(self._stack), attrs])
        if not self._stack:
            self._flush()

    def _flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self._pid}.jsonl")
        data = "".join(json.dumps(rec) + "\n" for rec in self._buf).encode()
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        self._buf = []

    def spans(self) -> list[dict]:
        out = []
        for entry in sorted(os.listdir(self.out_dir)):
            pid = int(entry[len("spans-"):-len(".jsonl")])
            with open(os.path.join(self.out_dir, entry)) as fh:
                for line in fh:
                    name, start, end, self_s, depth, attrs = json.loads(line)
                    out.append({"name": name, "pid": pid, "start": start,
                                "end": end, "dur": end - start, "self": self_s,
                                "depth": depth, "attrs": attrs or {}})
        return out

    def metrics(self, cell_trials: int, wall_s: float, jobs: int,
                cpu_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced phase, as {name: (value, unit)}.

        Counts and ``.ms`` are per cell-trial, except ``build_scene.ms`` and
        ``cmd_sweep.self_ms``, which are medians per call.
        """
        spans = self.spans()
        by_name = defaultdict(list)
        for s in spans:
            by_name[s["name"]].append(s)
        out: dict[str, tuple[float, str]] = {}
        for name, fields in PER_TRIAL.items():
            if name not in self.installed:
                continue
            for field in fields:
                unit, value = FIELDS[field]
                try:
                    out[f"{name}.{field}"] = (value(by_name[name]) / cell_trials,
                                              unit)
                except KeyError:
                    pass  # the annotation is missing: the API changed

        synth = [s for name in SYNTH for s in by_name[name]]
        synth_s = sum(s["dur"] for s in synth)
        if any(name in self.installed for name in SYNTH):
            try:
                flops = sum(_flops(s) for s in synth)
                single = sum(s["dur"] for s in synth if s["attrs"]["K"] == 1)
            except KeyError:
                pass
            else:
                out["measurement.flops_computed"] = (flops / cell_trials, "flop")
                if synth_s > 0:
                    out["measurement.gflops"] = (flops / synth_s / 1e9, "GFLOP/s")
                    out["measurement.baseline_share"] = (single / synth_s, "ratio")

        trials = by_name["evaluation.run_trial"]
        attempted = sum(s["attrs"].get("cs", 0) for s in trials)
        if attempted:
            out["recovery.exact_support_ratio"] = (
                sum(s["attrs"].get("exact", 0) for s in trials) / attempted, "ratio")
        for name, metric in (("evaluation.build_scene", "ms"),
                             ("cli.cmd_sweep", "self_ms")):
            if name in self.installed:
                key = "dur" if metric == "ms" else "self"
                out[f"{name}.{metric}"] = (1e3 * statistics.median(
                    [s[key] for s in by_name[name]] or [0.0]), "ms")

        out.update(_campaign_metrics(spans, by_name, wall_s, jobs))
        out["evaluation.run_campaign.cpu_per_wall"] = (cpu_s / wall_s, "ratio")
        # run_campaign's self time is its wait on the pool, not work
        working = [s for s in spans if s["name"] != "evaluation.run_campaign"]
        for layer in LAYERS:
            if any(name.startswith(layer + ".") for name in self.installed):
                out[f"{layer}.self_ms"] = (1e3 * sum(
                    s["self"] for s in working
                    if s["name"].startswith(layer + ".")) / cell_trials, "ms")
        return out


def _flops(span) -> int:
    """Computed floating-point operations of one synthesis call."""
    a = span["attrs"]
    mixing = 2 * a["L"] * a["K"] * a["M"]
    if span["name"] == SYNTH[0]:
        return mixing + 2 * a["L"] * a["M"]  # power: squares summed
    return mixing + 2 * a["L"] * a["M"] ** 2  # correlation: M x M products


def _campaign_metrics(spans, by_name, wall_s, jobs):
    """Busy fraction and critical-cell share of each campaign.

    A campaign's cells are the outermost spans of the processes that ran its
    trials (``build_scene`` plus ``run_trial`` per cell), grouped by target
    count.  Without ``run_campaign`` spans (the serial library workloads) the
    whole traced phase is one campaign run by one worker.
    """
    campaigns = by_name["evaluation.run_campaign"]
    windows = ([(c["start"], c["end"]) for c in campaigns] if campaigns
               else [(float("-inf"), float("inf"))])
    walls = [c["dur"] for c in campaigns] if campaigns else [wall_s]
    main_pids = {c["pid"] for c in campaigns}
    busy = 0.0
    shares = []
    for start, end in windows:
        cells = defaultdict(float)
        for s in spans:
            if (s["depth"] == 0 and s["pid"] not in main_pids
                    and start <= s["start"] <= end
                    and s["name"] in ("evaluation.run_trial",
                                      "evaluation.build_scene")):
                cells[s["attrs"].get("k")] += s["dur"]
        busy += sum(cells.values())
        if cells:
            shares.append(max(cells.values()) / sum(cells.values()))
    out = {"evaluation.run_campaign.busy_frac":
           (busy / (jobs * sum(walls)), "ratio")}
    if shares:
        out["evaluation.run_campaign.critical_cell_share"] = (
            statistics.median(shares), "ratio")
    return out
