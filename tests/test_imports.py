"""What a process imports: scipy stays off the default ``omp`` path, and
nothing a trial or a campaign runs is first imported during it.

Each check runs in a fresh interpreter, since this test process has long
since imported scipy (for the oracles) and everything else.
"""

import json
import os
import subprocess
import sys
import textwrap

import vlp_sparse

SRC = os.path.dirname(os.path.dirname(os.path.abspath(vlp_sparse.__file__)))


def run_fresh(*parts: str):
    """Run the joined ``parts`` in a new interpreter; return the JSON it
    prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    body = "".join(textwrap.dedent(part) for part in parts)
    proc = subprocess.run([sys.executable, "-c", body],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Wraps the pool entry so that each worker reports what its cells imported;
# the wrapper takes the original's name, so the pool pickles it by reference.
WORKER_PROBE = """
    import json, os, shutil, sys, tempfile
    from vlp_sparse import SceneConfig, evaluation, run_campaign

    log_dir = tempfile.mkdtemp()
    original = evaluation._run_cell

    def _run_cell(task):
        before = set(sys.modules)
        result = original(task)
        with open(os.path.join(log_dir, str(os.getpid())), "a") as fh:
            fh.write(json.dumps(sorted(set(sys.modules) - before)) + "\\n")
        return result

    _run_cell.__module__ = evaluation.__name__
    evaluation._run_cell = _run_cell

    def worker_imports():
        found = {}
        for name in os.listdir(log_dir):
            if int(name) != os.getpid():
                with open(os.path.join(log_dir, name)) as fh:
                    found[name] = sorted({m for line in fh for m in json.loads(line)})
        shutil.rmtree(log_dir)
        return found
"""


def test_importing_the_package_and_cli_loads_no_scipy():
    loaded = run_fresh("""
        import json, sys
        import vlp_sparse, vlp_sparse.cli
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
    """)
    assert loaded == []


def test_omp_trials_import_nothing_after_the_package():
    new = run_fresh("""
        import dataclasses, json, sys
        import numpy as np
        import vlp_sparse, vlp_sparse.cli
        from vlp_sparse import SCHEMES, SceneConfig, build_scene, run_trial

        before = set(sys.modules)
        failures = []
        for snapshots in (100, 300, 10 ** 4, 10 ** 6):
            config = SceneConfig(snapshots=snapshots)
            scene = build_scene(config)
            for k in (1, 3, 10):
                for scheme in SCHEMES:
                    result = run_trial(dataclasses.replace(config, targets_k=k),
                                       np.random.default_rng(k), scene=scene,
                                       snr_db=20.0, schemes=[scheme])[scheme]
                    failures += [result.failure] if result.failed else []
        print(json.dumps({"new": sorted(set(sys.modules) - before),
                          "failures": failures}))
    """)
    assert new == {"new": [], "failures": []}


def test_an_omp_campaign_imports_nothing_in_the_parent_or_a_worker():
    found = run_fresh(WORKER_PROBE, """
        import vlp_sparse.cli
        before = set(sys.modules)
        report = run_campaign(SceneConfig(snapshots=100), [2, 4, 6], [20.0], 2,
                              jobs=2)
        assert not any(row["failures"] for row in report.rows)
        print(json.dumps({"parent": sorted(set(sys.modules) - before),
                          "workers": worker_imports()}))
    """)
    assert found["parent"] == []
    assert found["workers"], "the campaign ran no cell in a worker"
    assert all(new == [] for new in found["workers"].values()), found


def test_the_nnls_solver_loads_scipy_optimize_on_first_use():
    found = run_fresh("""
        import json, sys
        import numpy as np
        from vlp_sparse import nnls_top_k
        before = "scipy.optimize" in sys.modules
        nnls_top_k(np.eye(3), np.array([0.0, 2.0, 1.0]), 1)
        print(json.dumps([before, "scipy.optimize" in sys.modules]))
    """)
    assert found == [False, True]


def test_an_nnls_campaign_loads_scipy_before_its_workers_fork():
    found = run_fresh(WORKER_PROBE, """
        report = run_campaign(SceneConfig(snapshots=100, solver="nnls"), [2, 3],
                              [20.0], 2, jobs=2)
        assert not any(row["failures"] for row in report.rows)
        print(json.dumps({"workers": worker_imports()}))
    """)
    assert found["workers"], "the campaign ran no cell in a worker"
    assert all(new == [] for new in found["workers"].values()), found
