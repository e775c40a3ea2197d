import dataclasses
import math
import re

import numpy as np
import pytest

from oracles import brute_force_support
from vlp_sparse import (SceneConfig, build_scene,
                        gains_to_points, indicator_from_cells, locate_cocsm,
                        locate_csm, nnls_top_k, omp, recoverability_advisory,
                        refine_off_grid, remove_noise_floor, sample_targets,
                        synthesize_ideal_correlation, synthesize_ideal_power,
                        synthesize_snapshot_correlation)
from vlp_sparse.channel import PairIndexMap
from vlp_sparse import recovery
from vlp_sparse.evaluation import run_trial
from vlp_sparse.recovery import Dictionary, SparseSolution, _distinct_cells
from vlp_sparse.scenario import GridModel


def random_instance(rng, rows, cols, k, coeff_low=0.5, coeff_high=2.0):
    A = rng.standard_normal((rows, cols))
    support = np.sort(rng.choice(cols, size=k, replace=False))
    coeffs = rng.uniform(coeff_low, coeff_high, size=k)
    return A, A[:, support] @ coeffs, set(support.tolist())


def _reference_omp(A, b, k):
    """OMP with a least-squares re-solve per pick: the reference for ``omp``.

    Same greedy rule (|correlation| against unit-normalized columns, ties
    toward the lowest index) and rank-deficient candidates skipped by
    ``lstsq``'s rank, but every step refits all coefficients from scratch.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    cols = A.shape[1]
    norms = np.linalg.norm(A, axis=0)
    unit = A / np.where(norms > 0, norms, 1.0)
    selected: list[int] = []
    rejected: set[int] = set()
    coef = np.zeros(0)
    residual = b
    for _ in range(k):
        corr = unit.T @ residual
        order = np.lexsort((np.arange(cols), -np.abs(corr)))
        picked = -1
        for j in order:
            if j in rejected or j in selected:
                continue
            trial = selected + [int(j)]
            x, _, rank, _ = np.linalg.lstsq(A[:, trial], b, rcond=None)
            if rank < len(trial):
                rejected.add(int(j))
                continue
            picked, coef = int(j), x
            break
        if picked < 0:
            raise ValueError("fewer than k linearly independent columns available")
        selected.append(picked)
        residual = b - A[:, selected] @ coef
    return SparseSolution(support=np.array(selected), iterations=len(selected))


def least_squares_on(A, b, support):
    """Coefficients and residual norm of the least-squares fit of ``b`` on
    the columns ``support`` of ``A``."""
    x, _, _, _ = np.linalg.lstsq(A[:, support], b, rcond=None)
    return x, float(np.linalg.norm(b - A[:, support] @ x))


def near_copy_instance(a0, e, others, cols=1000):
    """Columns ``a0``, a near copy of it, then ``others`` and zero columns
    up to ``cols``, with a measurement that picks ``a0`` first.

    The near copy leans off ``a0`` toward the unit ``e`` (orthogonal to
    ``a0``) by angle ``t``, so after the first pick its squared unit
    remainder is ``sin(t)^2``, a quarter of ``omp``'s rank threshold.  The
    measurement leaves the residual ``-|a0| e / 2``: only the near copy
    scores, with ``|a0| sin(t) / 2``.
    """
    rows = a0.size
    threshold = max(rows, cols) * np.finfo(float).eps
    t = math.asin(math.sqrt(threshold / 4))
    scale = np.linalg.norm(a0)
    A = np.zeros((rows, cols))
    A[:, 0] = a0
    A[:, 1] = math.cos(t) * a0 + math.sin(t) * scale * e
    A[:, 2:2 + len(others)] = np.column_stack(others)
    D = Dictionary.of(A)
    remainder = D.gram_row(1)[1] - D.gram_row(0)[1] ** 2 / D.gram_row(0)[0]
    assert 0 < remainder < threshold
    return A, a0 - 0.5 * scale * e


def test_omp_identity_dictionary():
    A = np.eye(5)
    sol = omp(A, A[:, 3], 1)
    assert sol.support.tolist() == [3]
    x, residual = least_squares_on(A, A[:, 3], sol.support)
    assert x == pytest.approx([1.0])
    assert residual == pytest.approx(0.0, abs=1e-15)


def test_omp_noiseless_two_sparse_matches_oracle():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 12))
    b = A[:, 2] + A[:, 5]
    sol = omp(A, b, 2)
    oracle = brute_force_support(A, b, 2)
    assert set(sol.support.tolist()) == set(oracle.support.tolist()) == {2, 5}
    assert least_squares_on(A, b, sol.support)[1] == pytest.approx(0.0, abs=1e-12)


def test_omp_rejects_zero_measurement():
    with pytest.raises(ValueError, match="zero measurement"):
        omp(np.eye(4), np.zeros(4), 1)


def test_omp_rejects_all_zero_dictionary():
    with pytest.raises(ValueError, match="nonzero column"):
        omp(np.zeros((3, 4)), np.ones(3), 1)


@pytest.mark.parametrize("k", [0, 4])
def test_omp_rejects_k_out_of_range(k):
    message = f"k={k} must be in [1, 3]"  # min(rows, cols)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        omp(np.eye(3, 5), np.ones(3), k)


@pytest.mark.parametrize("solve,bound", [(omp, 3), (nnls_top_k, 5)],
                         ids=["omp", "nnls_top_k"])
def test_solvers_share_one_input_rule(solve, bound):
    # each solver keeps its own bound on k: min(rows, cols), or cols
    A = np.eye(3, 5)
    for matrix, b, k, message in (
            (A, np.ones(3), 0, f"k=0 must be in [1, {bound}]"),
            (A, np.ones(3), bound + 1, f"k={bound + 1} must be in [1, {bound}]"),
            (np.zeros((3, 5)), np.ones(3), 1, "dictionary has no nonzero column"),
            (A, np.ones(4), 1, "measurement has 4 rows, the dictionary 3"),
            (A, np.ones((1, 4)), 1, "measurement has 4 rows, the dictionary 3"),
            (A, np.zeros(3), 1, "zero measurement: support of size k is undefined"),
            (Dictionary.of(A), -0.0 * np.ones(3), 1, "zero measurement")):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            solve(matrix, b, k)
    # a nonzero measurement whose squares underflow is no zero measurement
    assert solve(A, np.array([0.0, 1e-200, 0.0]), 1).support.tolist() == [1]


def test_omp_rejects_fewer_independent_columns_than_k():
    A = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="fewer than k linearly independent columns"):
        omp(A, np.array([1.0, 2.0, 0.0]), 2)


def test_omp_selection_is_scale_invariant():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((10, 20))
    b = A[:, 4] + 0.5 * A[:, 11] + 0.01 * rng.standard_normal(10)
    base = omp(A, b, 3).support.tolist()
    scaled = A.copy()
    scaled[:, 4] *= 100.0
    scaled[:, 7] *= 1e-3
    assert omp(scaled, b, 3).support.tolist() == base


def test_omp_residual_monotone_and_orthogonal():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((12, 30))
    b = rng.standard_normal(12)
    residuals = []
    for k in range(1, 6):
        sol = omp(A, b, k)
        x, residual = least_squares_on(A, b, sol.support)
        residuals.append(residual)
        cols = A[:, sol.support]
        r = b - cols @ x
        # residual orthogonal to the span of the selected columns
        proj = np.abs(cols.T @ r) / (np.linalg.norm(cols, axis=0) * np.linalg.norm(b))
        assert np.all(proj < 1e-9)
    assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_omp_runs_exactly_k_iterations_even_after_exact_fit():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 8))
    b = A[:, 0].copy()
    sol = omp(A, b, 2)
    assert sol.support.size == 2
    assert sol.support[0] == 0
    assert least_squares_on(A, b, sol.support)[1] == pytest.approx(0.0, abs=1e-12)


def test_omp_skips_rank_deficient_candidates():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((6, 3))
    # column 1 duplicates column 0, so after an exact fit of column 0 it
    # has neither score nor remainder
    A = np.column_stack([base[:, 0], base[:, 0], base[:, 1], base[:, 2]])
    sol = omp(A, A[:, 0], 2)
    assert sol.support[0] == 0
    assert sol.support[1] != 1  # the duplicate never joins the support
    # a near copy leaning toward e, orthogonal to every base column: after
    # the first pick only it scores, and its remainder is below the threshold
    e = np.linalg.qr(base, mode="complete")[0][:, 3]
    A, b = near_copy_instance(base[:, 0], e, [base[:, 1], base[:, 2]])
    sol = omp(A, b, 2)
    assert sol.support[0] == 0
    assert sol.support[1] != 1


def test_omp_tie_breaks_toward_lowest_index():
    col = np.array([1.0, 2.0, 0.5])
    A = np.column_stack([col, col, col])
    sol = omp(A, col, 1)
    assert sol.support.tolist() == [0]


def test_brute_force_zero_residual_on_true_support():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((7, 10))
    b = A[:, 2] + A[:, 5]
    sol = brute_force_support(A, b, 2)
    assert sol.support.tolist() == [2, 5]
    assert sol.residual_norm == pytest.approx(0.0, abs=1e-12)


def test_brute_force_full_support_equals_least_squares():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    sol = brute_force_support(A, b, 4)
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    assert sol.support.tolist() == [0, 1, 2, 3]
    assert sol.residual_norm == pytest.approx(
        float(np.linalg.norm(b - A @ x)), rel=1e-12)


def test_brute_force_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        brute_force_support(np.ones((3, 50)), np.ones(3), 10)


def test_omp_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(30):
        rows = int(rng.integers(12, 25))
        cols = int(rng.integers(8, 25))
        k = int(rng.integers(1, 3))
        A, b, truth = random_instance(rng, rows, cols, k)
        assert set(omp(A, b, k).support.tolist()) \
            == set(brute_force_support(A, b, k).support.tolist()) == truth


def test_omp_support_is_permutation_equivariant():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((10, 15))
    b = A[:, 3] + A[:, 9] + 0.01 * rng.standard_normal(10)
    base = omp(A, b, 2).support
    perm = rng.permutation(15)
    inverse = np.argsort(perm)
    permuted = omp(A[:, perm], b, 2).support
    assert set(permuted.tolist()) == set(inverse[base].tolist())


def fingerprint_instances(scene, monkeypatch):
    """(A, b, k) of every csm and cocsm ``omp`` call in real trials.

    Trials as ``run_trial`` draws them at L = 100 and 10^4, K = 1..10 and
    10 and 20 dB: 320 instances.  ``A`` is the scene's prebuilt
    :class:`Dictionary` that the trial passed.
    """
    calls = []
    solve = recovery.omp

    def record(A, b, k):
        calls.append((A, b, k))
        return solve(A, b, k)

    monkeypatch.setattr(recovery, "omp", record)
    for snapshots in (100, 10_000):
        for k in range(1, 11):
            config = dataclasses.replace(scene.config, snapshots=snapshots,
                                         targets_k=k)
            for snr_db in (10.0, 20.0):
                for t in range(4):
                    rng = np.random.default_rng(np.random.SeedSequence(
                        91, spawn_key=(snapshots, k, int(snr_db), t)))
                    run_trial(config, rng, scene=scene, snr_db=snr_db,
                              schemes=("csm", "cocsm"))
    monkeypatch.undo()
    return calls


def tied_instances(rng):
    """Each pick ties exactly between a column and its later duplicate."""
    for n in (4, 7, 10):
        diag = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        half = np.diag(diag)[:, rng.permutation(n)]
        yield np.hstack([half, half]), rng.standard_normal(n), n - 1


def ill_conditioned_instance():
    """Monomial columns on [0, 1]; the 8 that OMP picks have cond ~1e4."""
    t = np.linspace(0.0, 1.0, 30)
    A = t[:, None] ** np.arange(12)
    b = A @ np.random.default_rng(15).uniform(0.5, 2.0, 12)
    return A, b, 8


def test_omp_supports_equal_reference_in_order(scene, monkeypatch):
    instances = fingerprint_instances(scene, monkeypatch)
    assert len(instances) >= 300
    rng = np.random.default_rng(16)
    for _ in range(30):
        rows = int(rng.integers(12, 25))
        cols = int(rng.integers(8, 25))
        k = int(rng.integers(1, 6))
        A, b, _ = random_instance(rng, rows, cols, k)
        instances.append((A, b + 0.05 * rng.standard_normal(rows), k))
    instances.extend(tied_instances(rng))
    instances.append(ill_conditioned_instance())
    for A, b, k in instances:
        sol, ref = omp(A, b, k), _reference_omp(Dictionary.of(A).matrix, b, k)
        assert sol.support.tolist() == ref.support.tolist()
        assert sol.iterations == ref.iterations == k


def test_prebuilt_dictionary_solves_equal_raw_matrix_solves(scene,
                                                            monkeypatch):
    # every instance comes with the scene's prebuilt data; csm and cocsm
    # calls alternate, so both fingerprints are covered
    instances = fingerprint_instances(scene, monkeypatch)
    built = {id(scene.corr_dict): 0, id(scene.power_dict): 0}
    for data, b, k in instances:
        built[id(data)] += 1
        fast, raw = omp(data, b, k), omp(data.matrix, b, k)
        assert np.array_equal(fast.support, raw.support)
    assert min(built.values()) >= 150
    for data, b, k in instances[::8]:
        fast, raw = nnls_top_k(data, b, k), nnls_top_k(data.matrix, b, k)
        assert np.array_equal(fast.support, raw.support)


def test_dictionary_norms_match_the_column_norms(scene):
    for fp, data in ((scene.corr_dict.matrix, scene.corr_dict),
                     (scene.power_dict.matrix, scene.power_dict)):
        norms = np.linalg.norm(fp, axis=0)
        assert np.array_equal(data.norms, norms)
        assert np.array_equal(data.inv_norms, 1.0 / norms)
        assert np.array_equal(data.matrix, fp)
    A = np.array([[1.0, 0.0, 3.0], [2.0, 0.0, 4.0]])
    data = Dictionary.of(A)
    assert Dictionary.of(data) is data
    assert data.inv_norms[1] == 0.0 and data.norms[1] == 1.0
    assert data.inv_norms.any() and not Dictionary.of(np.zeros((2, 3))).inv_norms.any()
    assert A.flags.writeable  # the caller's matrix keeps its flags


def test_gram_row_is_a_read_only_kept_row_of_the_unit_gram(scene):
    A = np.array([[1.0, 0.0, 3.0, -2.0], [2.0, 0.0, 4.0, 1.0]])
    for data in (Dictionary.of(A), Dictionary.of(scene.corr_dict.matrix),
                 Dictionary.of(scene.power_dict.matrix)):
        unit = data.matrix * data.inv_norms
        gram = unit.T @ unit
        for j in (0, 1, data.matrix.shape[1] - 1):
            row = data.gram_row(j)
            np.testing.assert_allclose(row, gram[j], rtol=0, atol=1e-14)
            assert not row.flags.writeable
            assert data.gram_row(j) is row
    assert not Dictionary.of(A).gram_row(1).any()  # a zero column


def test_omp_supports_do_not_depend_on_the_gram_row_cache(scene, monkeypatch):
    instances = fingerprint_instances(scene, monkeypatch)
    warm = [omp(data, b, k).support.tolist() for data, b, k in instances]
    assert len(scene.corr_dict._gram_rows) > 1
    cold = [omp(Dictionary.of(data.matrix), b, k).support.tolist()
            for data, b, k in instances]
    monkeypatch.setattr(recovery, "GRAM_CACHE_ENTRIES", scene.grid.n)
    capped = {id(data): Dictionary.of(data.matrix) for data, _, _ in instances}
    one_row = [omp(capped[id(data)], b, k).support.tolist()
               for data, b, k in instances]
    assert [len(data._gram_rows) for data in capped.values()] == [1, 1]
    assert warm == cold == one_row


def test_gram_row_cache_keeps_no_more_than_its_budget(scene):
    cols = 2000  # a full unit Gram of cols^2 entries is beyond the budget
    assert cols ** 2 > recovery.GRAM_CACHE_ENTRIES
    data = Dictionary.of(np.random.default_rng(5).standard_normal((3, cols)))
    rows = [data.gram_row(j) for j in range(cols)]
    assert len(data._gram_rows) == recovery.GRAM_CACHE_ENTRIES // cols
    assert sum(row.size for row in data._gram_rows.values()) \
        <= recovery.GRAM_CACHE_ENTRIES
    for j in (0, cols - 1):  # a kept row and one past the budget
        np.testing.assert_array_equal(data.gram_row(j), rows[j])
    for data in (Dictionary.of(scene.power_dict.matrix),
                 Dictionary.of(scene.corr_dict.matrix)):
        for j in range(scene.grid.n):  # the default scene keeps every row
            data.gram_row(j)
        assert len(data._gram_rows) == scene.grid.n == 400


def test_omp_rank_rule_is_on_the_squared_unit_remainder():
    # column 1 leans off column 0 by angle t, so its squared unit remainder
    # after the first pick is sin(t)^2; zero columns set max(rows, cols)
    rows, cols = 3, 1000
    threshold = cols * np.finfo(float).eps
    for ratio, second in ((4.0, 1), (0.25, 2)):
        t = math.asin(math.sqrt(ratio * threshold))
        A = np.zeros((rows, cols))
        A[:, 0] = [1.0, 0.0, 0.0]
        A[:, 1] = [math.cos(t), math.sin(t), 0.0]
        A[:, 2] = [0.0, 0.0, 1.0]
        # column 0 scores 1, column 1 scores cos(t) - sin(t) / 2, then
        # sin(t) / 2 against 0 for column 2
        b = np.array([1.0, -0.5, 0.0])
        assert omp(A, b, 2).support.tolist() == [0, second]


def test_omp_skips_a_near_duplicate_and_keeps_an_independent_column():
    # after the first pick the residual is exactly zero in rows 3..5, so
    # the independent column 2 scores 0 and the near-duplicate column 1,
    # at residual noise, is tried first; the rank test must reject it
    # whatever the columns' norms
    rows = 6
    a0 = np.zeros(rows)
    a0[:3] = np.random.default_rng(17).standard_normal(3) * 1e8
    independent = np.zeros(rows)
    independent[3] = 1.0
    A = np.column_stack([a0, a0 * (1 + 1e-15), independent])
    sol = omp(A, a0, 2)
    assert sol.support.tolist() == [0, 2]
    assert sol.support.tolist() == _reference_omp(A, a0, 2).support.tolist()
    assert least_squares_on(A, a0, sol.support)[0] == pytest.approx([1.0, 0.0],
                                                                   abs=1e-12)
    # a near copy leaning toward e in rows 0..2: the independent column
    # still scores exactly 0, and the near copy is tried and rejected
    e = np.zeros(rows)
    e[:3] = np.cross(a0[:3], [1.0, 0.0, 0.0])
    A, b = near_copy_instance(a0, e / np.linalg.norm(e), [independent])
    assert omp(A, b, 2).support.tolist() == [0, 2]


@pytest.fixture(scope="module")
def scene():
    return build_scene(SceneConfig())


def test_locate_csm_recovers_single_target(scene):
    for cell in (0, 57, 399):
        ind = indicator_from_cells([cell], scene.grid.n)
        meas = synthesize_ideal_power(scene.power_dict.matrix, ind, 0.0)
        support = locate_csm(meas, scene.power_dict.matrix, 1, scene.grid)
        assert support.tolist() == [cell]
        assert np.array_equal(scene.grid.centers_of(support)[0],
                              scene.grid.centers[cell])


def test_locate_cocsm_recovers_single_target(scene):
    ind = indicator_from_cells([123], scene.grid.n)
    meas = synthesize_ideal_correlation(scene.corr_dict.matrix, ind, 0.0, scene.pairs)
    support = locate_cocsm(meas, scene.corr_dict.matrix, 1, scene.grid, scene.pairs)
    assert support.tolist() == [123]


def test_locate_cocsm_two_anchor_toy():
    pairs = PairIndexMap.for_anchor_count(2)
    psi = np.array([[9.0], [12.0], [16.0]])
    centers = np.array([[0.5, 0.5]])
    grid = GridModel(nx=1, ny=1, pitch=1.0, centers=centers)
    support = locate_cocsm(np.array([9.0, 12.0, 16.0]), psi, 1, grid, pairs)
    assert support.tolist() == [0]
    assert np.allclose(grid.centers_of(support)[0], [0.5, 0.5])


@pytest.mark.parametrize("scheme,model,kwargs,message", [
    ("csm", "correlation", {}, "measurement has 136 rows, the dictionary 16"),
    ("cocsm", "power", {}, "measurement has 16 rows, the dictionary 136"),
    ("csm", "power", {"solver": "bogus"}, "unknown solver 'bogus'"),
    ("cocsm", "correlation", {"solver": "bogus"}, "unknown solver 'bogus'"),
    ("csm", "power", {"solver": "nnls"},
     "the nnls solver needs the continuous gain model"),
    ("cocsm", "correlation", {"solver": "nnls"},
     "the nnls solver needs the continuous gain model"),
], ids=["csm-model", "cocsm-model", "csm-solver", "cocsm-solver",
        "csm-gain-model", "cocsm-gain-model"])
def test_locate_model_mismatch_raises(scene, scheme, model, kwargs, message):
    meas = {"power": np.ones(16), "correlation": np.ones(136)}
    with pytest.raises(ValueError, match=f"^{message}$"):
        if scheme == "csm":
            locate_csm(meas[model], scene.power_dict.matrix, 1, scene.grid, **kwargs)
        else:
            locate_cocsm(meas[model], scene.corr_dict.matrix, 1, scene.grid,
                         scene.pairs, **kwargs)


def test_paired_ideal_success_rates_cocsm_at_least_csm(scene):
    # paired noiseless on-grid trials; the correlation scheme must not trail
    # the power scheme on exact-support rate (both sit at zero here: greedy
    # recovery of eight targets fails on this coherent dictionary)
    succ_p = succ_c = 0
    for t in range(500):
        rng = np.random.default_rng(np.random.SeedSequence(55, spawn_key=(t,)))
        _, true_cells = sample_targets(scene.grid, 8, True, rng)
        theta = indicator_from_cells(true_cells, scene.grid.n)
        truth = set(true_cells.tolist())
        meas_p = synthesize_ideal_power(scene.power_dict.matrix, theta, 0.0)
        support_p = locate_csm(meas_p, scene.power_dict.matrix, 8, scene.grid)
        meas_c = synthesize_ideal_correlation(scene.corr_dict.matrix, theta, 0.0,
                                              scene.pairs)
        support_c = locate_cocsm(meas_c, scene.corr_dict.matrix, 8, scene.grid,
                                 scene.pairs)
        succ_p += set(support_p.tolist()) == truth
        succ_c += set(support_c.tolist()) == truth
    assert succ_c >= succ_p


def test_nnls_top_k_ranks_raw_column_coefficients():
    # unit columns of different energy: the ranking uses x / ||column||
    A = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 4.0]])
    b = np.array([2.0, 3.0, 4.0])
    # x = (2, 3, 4) on the unit columns would rank (2, 1, 0); the raw
    # coefficients (1, 3, 1) rank 1 first, then 0 and 2 tied, by index
    assert nnls_top_k(A, b, 2).support.tolist() == [1, 0]
    assert nnls_top_k(A, b, 3).support.tolist() == [1, 0, 2]


def test_nnls_top_k_tie_breaks_toward_lowest_index():
    col = np.array([1.0, 2.0, 0.5])
    A = np.column_stack([col, col, col])
    assert nnls_top_k(A, col, 1).support.tolist() == [0]
    # fewer positive coefficients than k: the zero entries fill in by index
    assert nnls_top_k(np.eye(4), np.array([0.0, 0.0, 1.0, 0.0]),
                      3).support.tolist() == [2, 0, 1]


def test_nnls_top_k_rejects_zero_measurement():
    with pytest.raises(ValueError, match="zero measurement"):
        nnls_top_k(np.eye(4), np.zeros(4), 1)


@pytest.mark.parametrize("k", [0, 5])
def test_nnls_top_k_rejects_k_out_of_range(k):
    with pytest.raises(ValueError, match=rf"^k={k} must be in \[1, 4\]"):
        nnls_top_k(np.eye(4), np.ones(4), k)


def test_nnls_top_k_rejects_all_zero_dictionary():
    with pytest.raises(ValueError, match="nonzero column"):
        nnls_top_k(np.zeros((3, 4)), np.ones(3), 1)


def test_nnls_top_k_reports_an_unsettled_active_set(monkeypatch):
    import scipy.optimize

    def unsettled(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(scipy.optimize, "nnls", unsettled)
    with pytest.raises(ValueError, match="^nnls: Maximum number of iterations"):
        nnls_top_k(np.eye(4), np.ones(4), 1)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_locate_cocsm_nnls_recovers_noiseless_on_grid_supports(scene, k):
    # greedy OMP finds almost none of these supports (its first pick lands
    # between targets on this all-positive dictionary)
    for t in range(4):
        rng = np.random.default_rng(np.random.SeedSequence(56, spawn_key=(k, t)))
        _, true_cells = sample_targets(scene.grid, k, True, rng)
        theta = indicator_from_cells(true_cells, scene.grid.n)
        meas = synthesize_ideal_correlation(scene.corr_dict.matrix, theta, 0.0,
                                            scene.pairs)
        support = locate_cocsm(meas, scene.corr_dict.matrix, k, scene.grid,
                               scene.pairs, solver="nnls",
                               gain_model=scene.gain_model)
        assert sorted(support.tolist()) == true_cells.tolist()


def test_locate_nnls_returns_k_cell_centers_off_grid(scene, monkeypatch):
    refined = []

    def refine(*args):
        refined.append(refine_off_grid(*args))
        return refined[-1]

    monkeypatch.setattr(recovery, "refine_off_grid", refine)
    rng = np.random.default_rng(57)
    true_positions, _ = sample_targets(scene.grid, 6, False, rng)
    pts = np.column_stack([true_positions, np.full(6, 0.85)])
    gains = gains_to_points(scene.gain_model.anchors, pts, scene.config.pd,
                            scene.gain_model.m)
    meas = synthesize_snapshot_correlation(gains, 1e-12, 200, 58,
                                           np.random.default_rng(59),
                                           scene.pairs)
    b = remove_noise_floor(meas, 1e-12, scene.pairs)
    support = locate_cocsm(b, scene.corr_dict.matrix, 6, scene.grid,
                           scene.pairs, solver="nnls", gain_model=scene.gain_model)
    assert support.shape == (6,)
    assert support.dtype.kind == "i"
    positions = scene.grid.centers_of(support)
    assert positions.shape == (6, 2)
    pitch = scene.grid.pitch
    assert np.allclose(positions / pitch - 0.5,
                       np.round(positions / pitch - 0.5), atol=1e-12)
    # K distinct cells; a refined position alone in its cell keeps that cell
    assert len(set(support.tolist())) == 6
    (refined_positions,) = refined
    contained = scene.grid.cell_of(refined_positions)
    alone = np.array([np.sum(contained == c) == 1 for c in contained])
    assert np.array_equal(support[alone], contained[alone])


# worst distance from the truth measured on these draws: 3.9e-6 m
REFINE_TOLERANCE_M = 1e-3


@pytest.mark.parametrize("rows", ["cocsm", "csm"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_refine_off_grid_recovers_exact_off_grid_positions(scene, rows, k):
    # b follows the gain law exactly at off-grid truths; the fit starts from
    # the centers of the cells that contain them
    grid, pairs, model = scene.grid, scene.pairs, scene.gain_model
    first, second = pairs.first, pairs.second
    if rows == "csm":
        first, second = first[pairs.diagonal_rows], second[pairs.diagonal_rows]
    for t in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(60, spawn_key=(k, t)))
        truth, cells = sample_targets(grid, k, False, rng)
        gains = model.gains(truth)
        b = np.sum(gains[first] * gains[second], axis=1)
        xy = refine_off_grid(grid.centers_of(cells), b, first, second, model, grid)
        assert isinstance(xy, np.ndarray) and xy.shape == (k, 2)
        assert np.all(xy >= 0.0)
        assert np.all(xy <= [grid.nx * grid.pitch, grid.ny * grid.pitch])
        assert np.linalg.norm(xy - truth, axis=1).max() < REFINE_TOLERANCE_M


def test_distinct_cells_without_collision_are_containing_cells(scene):
    xy = np.array([[0.11, 0.1], [1.01, 1.01], [3.9, 0.05]])
    np.testing.assert_array_equal(_distinct_cells(scene.grid, xy),
                                  scene.grid.cell_of(xy))


def test_distinct_cells_resolve_a_collision(scene):
    # two positions in cell 0: the one nearer its center keeps it, the other
    # moves to the nearest free cell, (0.3, 0.1) rather than (0.1, 0.3)
    xy = np.array([[0.15, 0.12], [1.01, 1.01], [0.11, 0.1]])
    assert scene.grid.cell_of(xy).tolist() == [0, 105, 0]
    assert _distinct_cells(scene.grid, xy).tolist() == [1, 105, 0]
    three = np.array([[0.19, 0.11], [0.1, 0.1], [0.11, 0.19]])
    assert _distinct_cells(scene.grid, three).tolist() == [1, 0, 20]


def test_locate_nnls_support_is_distinct_when_refined_positions_collide(
        scene, monkeypatch):
    collided = np.array([[2.05, 2.05], [2.07, 2.02], [0.5, 0.5]])

    def refine(xy, *args):
        return collided

    monkeypatch.setattr(recovery, "refine_off_grid", refine)
    ind = indicator_from_cells([0, 50, 300], scene.grid.n)
    meas = synthesize_ideal_correlation(scene.corr_dict.matrix, ind, 0.0, scene.pairs)
    support = locate_cocsm(meas, scene.corr_dict.matrix, 3, scene.grid,
                           scene.pairs, solver="nnls", gain_model=scene.gain_model)
    assert len(set(support.tolist())) == 3
    assert scene.grid.cell_of(collided[[0]])[0] in support


def test_locate_nnls_single_target_matches_omp(scene):
    for cell in (0, 57, 123, 210, 399):
        ind = indicator_from_cells([cell], scene.grid.n)
        meas_p = synthesize_ideal_power(scene.power_dict.matrix, ind, 0.0)
        meas_c = synthesize_ideal_correlation(scene.corr_dict.matrix, ind, 0.0,
                                              scene.pairs)
        for solver in ("omp", "nnls"):
            support_p = locate_csm(meas_p, scene.power_dict.matrix, 1,
                                   scene.grid, solver=solver,
                                   gain_model=scene.gain_model)
            support_c = locate_cocsm(meas_c, scene.corr_dict.matrix, 1,
                                     scene.grid, scene.pairs, solver=solver,
                                     gain_model=scene.gain_model)
            for support in (support_p, support_c):
                assert support.tolist() == [cell]
                assert np.array_equal(scene.grid.centers_of(support)[0],
                                      scene.grid.centers[cell])


def test_advisory_flags_undersampled_power_scheme():
    adv = recoverability_advisory(16, 400, 8)
    assert adv.threshold == pytest.approx(31.3, abs=0.05)
    assert adv.ratio == pytest.approx(0.51, abs=0.005)
    assert adv.flagged


def test_advisory_passes_correlation_scheme():
    adv = recoverability_advisory(136, 400, 8)
    assert adv.ratio == pytest.approx(4.35, abs=0.005)
    assert not adv.flagged


def test_advisory_log_base_is_natural():
    adv = recoverability_advisory(1, math.e, 1)
    assert adv.threshold == pytest.approx(1.0, rel=1e-12)
