import pickle

import numpy as np
import pytest

from ltvadapt import (linalg, maxdet, plants, proximity, synthesis,
                      verification)
from ltvadapt.window import DataWindow


def exploration_window(plant=None, seed=0, width=4):
    plant = plant or plants.ConstantLti()
    rng = np.random.default_rng(seed)
    w = DataWindow.empty(plant.nx, plant.nu, width)
    x = np.ones(plant.nx)
    for k in range(width):
        u = rng.uniform(-1, 1, plant.nu)
        xn = plant.step(k, x, u)
        w = w.push(x, u, xn)
        x = xn
    return w


def test_synthesize_stabilizes_nominal_plant():
    plant = plants.ConstantLti()
    b = synthesis.synthesize(exploration_window(plant))
    assert b is not None
    assert b.solver_status == "Optimal"
    a_mat, b_mat = plant.eval(0)
    acl = a_mat + b_mat @ b.K
    # certified decrease: V(Acl x) <= a1 V(x) for the true plant
    rate = linalg.gen_eig_max(acl.T @ b.S @ acl, b.S)
    assert rate <= b.a1 * (1 + 1e-9)
    assert 0.0 < b.a1 < 1.0
    assert b.a2 > 1.0


@pytest.fixture(scope="module")
def bundle():
    return synthesis.synthesize(exploration_window())


def test_certificate_relations(bundle):
    b = bundle
    assert abs(b.a1 - (1.0 - b.a)) <= 1e-12
    assert abs(b.a2 - (1.0 + 1.0 / b.varsigma)) <= 1e-9 * b.a2
    for m in (b.S, b.F):
        ev = np.linalg.eigvalsh(m)
        assert ev[0] >= 1e-9 * (1.0 + max(ev[-1], 0.0))


def test_eps_F_trades_rate_for_margin():
    w = exploration_window()
    tight = synthesis.synthesize(w, eps_F=0.05)
    loose = synthesis.synthesize(w, eps_F=0.4)
    # larger eps_F certifies a faster decay (smaller a1)
    assert loose.a1 < tight.a1


def scaled_window(w, c):
    """The window of the same plant with every sample scaled by c."""
    return DataWindow(kappa=w.kappa, Xhat=c * w.Xhat, X=c * w.X, U=c * w.U)


@pytest.fixture
def solve_calls(monkeypatch):
    """Count the calls synthesize makes to maxdet.solve_maxdet."""
    calls = []
    orig = maxdet.solve_maxdet

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(maxdet, "solve_maxdet", counting)
    return calls


def test_empty_window_infeasible(solve_calls):
    w = DataWindow.empty(2, 2, 4)
    assert synthesis.synthesize(w) is None
    assert solve_calls == []


def test_no_feasible_design_below_data_bound():
    # phase I can reach the target t only if ||Xhat||^2 >= 2t / (1 - t)
    w = exploration_window()
    sm = maxdet.SolverOptions().strict_margin
    n2 = linalg.spectral_norm(w.Xhat) ** 2
    assert n2 > 1e3 * sm
    for ratio in (0.999, 0.9, 0.5, 0.1, 1e-3, 1e-8, 1e-30):
        cw = scaled_window(w, np.sqrt(ratio * 2.0 * sm / n2))
        assert linalg.spectral_norm(cw.Xhat) ** 2 < 2.0 * sm
        sol = maxdet.solve_feasibility(
            synthesis.build_design_problem(cw).problem)
        assert sol.status != maxdet.FEASIBLE, ratio
    # well above the bound the same data is feasible again
    sol = maxdet.solve_feasibility(synthesis.build_design_problem(
        scaled_window(w, np.sqrt(100.0 * 2.0 * sm / n2))).problem)
    assert sol.status == maxdet.FEASIBLE


def test_phase1_decides_above_data_bound_whatever_the_budget():
    # windows just above the data bound and windows with huge data are
    # decided, and the decision does not depend on the Newton step budget
    w = exploration_window()
    sm = maxdet.SolverOptions().strict_margin
    n2 = linalg.spectral_norm(w.Xhat) ** 2
    decided = set()
    for ratio in (1.01, 1.5, 2.0, 10.0, 1e2, 1e6, 1e12, 1e14):
        problem = synthesis.build_design_problem(
            scaled_window(w, np.sqrt(ratio * 2.0 * sm / n2))).problem
        statuses = {maxdet.solve_feasibility(
            problem, maxdet.SolverOptions(max_newton=cap)).status
            for cap in (250, 500, 1000)}
        assert len(statuses) == 1 and maxdet.MAXITER not in statuses, ratio
        decided |= statuses
    assert decided == {maxdet.INFEASIBLE, maxdet.FEASIBLE}


def test_synthesize_declines_below_data_bound_without_solving(
        solve_calls, caplog):
    w = exploration_window()
    sm = maxdet.SolverOptions().strict_margin
    n2 = linalg.spectral_norm(w.Xhat) ** 2
    with caplog.at_level("INFO", logger="ltvadapt.synthesis"):
        for ratio in (0.99, 1e-6):
            cw = scaled_window(w, np.sqrt(ratio * 2.0 * sm / n2))
            assert synthesis.synthesize(cw) is None
    assert solve_calls == []
    assert caplog.text.count(synthesis.DATA_BOUND) == 2
    # just above the bound the solver decides
    synthesis.synthesize(scaled_window(w, np.sqrt(1.01 * 2.0 * sm / n2)))
    assert len(solve_calls) == 1
    assert synthesis.synthesize(w) is not None
    assert len(solve_calls) == 2


def _reference_design(w):
    # the design problem filled one basis element at a time, as the
    # stacked assembly must reproduce bit for bit
    xhat, x = w.Xhat, w.X
    nx, t = xhat.shape
    pairs = [(r, c) for r in range(nx) for c in range(r + 1, nx)]
    if not pairs:
        y_basis = np.eye(t * nx).reshape(-1, t, nx)
    else:
        cmat = np.zeros((len(pairs), t * nx))
        for row, (r, c) in enumerate(pairs):
            for s in range(t):
                cmat[row, s * nx + c] += xhat[r, s]
                cmat[row, s * nx + r] -= xhat[c, s]
        _, sig, vt = np.linalg.svd(cmat)
        tol = max(cmat.shape) * np.finfo(float).eps * sig[0]
        y_basis = vt[int(np.sum(sig > tol)):].reshape(-1, t, nx)
    h_list = []
    for i in range(nx):
        for j in range(i, nx):
            e = np.zeros((nx, nx))
            e[i, j] = 1.0
            e[j, i] = 1.0
            h_list.append(e)
    h_basis = np.array(h_list)
    d_y, d_h = y_basis.shape[0], h_basis.shape[0]
    nvar = 1 + d_y + d_h
    c1 = np.zeros((nvar, 2 * nx, 2 * nx))
    c1[0, :nx, :nx] = -(x @ x.T)
    for i in range(d_y):
        yi = y_basis[i]
        py = linalg.symmetrize(xhat @ yi)
        xy = x @ yi
        c1[1 + i, :nx, :nx] = py
        c1[1 + i, :nx, nx:] = xy
        c1[1 + i, nx:, :nx] = xy.T
        c1[1 + i, nx:, nx:] = py
    for j in range(d_h):
        c1[1 + d_y + j, :nx, :nx] = -h_basis[j]
    k2 = np.zeros((t + nx, t + nx))
    k2[:t, :t] = np.eye(t)
    c2 = np.zeros((nvar, t + nx, t + nx))
    for i in range(d_y):
        yi = y_basis[i]
        c2[1 + i, :t, t:] = yi
        c2[1 + i, t:, :t] = yi.T
        c2[1 + i, t:, t:] = linalg.symmetrize(xhat @ yi)
    c3 = np.zeros((nvar, nx, nx))
    c3[1 + d_y:] = h_basis
    c4 = np.zeros((nvar, 1, 1))
    c4[0, 0, 0] = 1.0
    blocks = [(np.zeros((2 * nx, 2 * nx)), c1), (k2, c2),
              (np.zeros((nx, nx)), c3), (np.zeros((1, 1)), c4)]
    return y_basis, h_basis, blocks


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _design_windows():
    rng = np.random.default_rng(3)
    hand = DataWindow(kappa=2, Xhat=np.array([[1.0, 0.5]]),
                      X=np.array([[0.5, 0.25]]), U=np.array([[0.0, 0.0]]))
    # closed-loop data: U = K Xhat leaves the regressor rank-deficient
    plant = plants.ConstantLti()
    a_mat, b_mat = plant.eval(0)
    k_gain = np.array([[-0.4, 0.1], [0.2, -0.3]])
    xhat = rng.standard_normal((2, 5))
    closed = DataWindow(kappa=5, Xhat=xhat, X=(a_mat + b_mat @ k_gain) @ xhat,
                        U=k_gain @ xhat)
    wide = DataWindow(kappa=6, Xhat=rng.standard_normal((3, 6)),
                      X=rng.standard_normal((3, 6)),
                      U=rng.standard_normal((2, 6)))
    return [hand, exploration_window(), closed, wide]


@pytest.mark.parametrize("idx", range(4))
def test_stacked_design_assembly_matches_per_basis_reference(idx):
    w = _design_windows()[idx]
    design = synthesis.build_design_problem(w)
    y_basis, h_basis, blocks = _reference_design(w)
    assert _same_bits(design.y_basis, y_basis)
    assert _same_bits(design.h_basis, h_basis)
    problem = design.problem
    assert problem.num_vars == 1 + y_basis.shape[0] + h_basis.shape[0]
    assert problem.det_block == 2
    assert len(problem.constraints) == len(blocks)
    for fn, (constant, coeffs) in zip(problem.constraints, blocks):
        assert _same_bits(fn.constant, constant)
        assert _same_bits(fn.coeffs, coeffs)
    if idx == 0:
        # nx = 1 leaves nothing to constrain: the identity basis
        assert _same_bits(y_basis, np.eye(2).reshape(2, 2, 1))
    if idx == 2:
        assert np.linalg.matrix_rank(w.z_matrix()) < w.nx + w.nu


def test_fallback_bundle():
    w = DataWindow.empty(2, 2, 4)
    b = synthesis.fallback_bundle(w)
    assert not b.K.any()
    assert b.a1 == 1.0
    assert b.solver_status == "Fallback"


def test_verify_property_zero_violations(bundle):
    b = bundle
    rep = synthesis.verify_property(b, num_samples=200, rng_seed=0)
    assert rep.num_violations == 0
    assert not rep.vacuous
    assert rep.eps_values[0] == 0.0


def test_verify_property_rejects_negative_eps(bundle):
    b = bundle
    with pytest.raises(linalg.InvalidInput):
        synthesis.verify_property(b, eps_values=[-0.1])


def test_verify_property_rejects_empty_eps_values(bundle):
    # no inflated set is built, so nothing could be vacuous or checked
    with pytest.raises(linalg.InvalidInput, match="inflation value"):
        synthesis.verify_property(bundle, eps_values=[])


def test_verify_property_rejects_zero_samples(bundle):
    with pytest.raises(linalg.InvalidInput, match="sample"):
        synthesis.verify_property(bundle, num_samples=0)


def test_verify_property_rejects_negative_samples(bundle):
    with pytest.raises(linalg.InvalidInput, match="sample"):
        synthesis.verify_property(bundle, num_samples=-1)


def test_decay_rate_bound(bundle):
    # the certified decay rate is ControllerBundle.rate
    b = bundle
    assert b.rate(0.0) == b.a1
    eps = 0.01
    assert abs(b.rate(eps) - (b.a1 + b.a2 * eps)) < 1e-15


def _verify_property_loop(b, num_samples, rng_seed, rel_tol):
    # per-sample reference with the draw order of sample_members and
    # numpy.linalg throughout; returns (worst excess, violations, vacuous)
    rng = np.random.default_rng(rng_seed)
    w = b.window
    nx = w.nx
    chol_inv = np.linalg.inv(np.linalg.cholesky(b.S))
    worst, violations, vacuous = -np.inf, 0, True
    for eps in (0.0, b.a / (2.0 * b.a2), 2.0 * b.a / b.a2):
        par = proximity.ellipsoid_params(
            w, b.F + eps * np.linalg.inv(b.S))
        w_d, v_d = np.linalg.eigh(par.Delta)
        if w_d[0] < -1e-9 * (1.0 + max(w_d[-1], 0.0)):
            continue
        vacuous = False
        rate = b.a1 + b.a2 * eps
        w_m, v_m = np.linalg.eigh(par.M)
        keep = w_m > max(par.M.shape) * np.finfo(float).eps * w_m[-1]
        m_pinv_sqrt = (v_m * np.where(keep, 1.0 / np.sqrt(
            np.where(keep, w_m, 1.0)), 0.0)) @ v_m.T
        d_sqrt = (v_d * np.sqrt(np.clip(w_d, 0.0, None))) @ v_d.T
        gs = [rng.standard_normal(par.Zc.shape) for _ in range(num_samples)]
        us = [rng.uniform() for _ in range(num_samples)]
        for g, u in zip(gs, us):
            s = np.linalg.norm(g, 2)
            v = g if s == 0.0 else (u ** 0.25 / s) * g
            zhat = par.Zc + m_pinv_sqrt @ v @ d_sqrt
            acl = zhat[:nx].T + zhat[nx:].T @ b.K
            lhs = np.linalg.eigvalsh(chol_inv @ acl.T @ b.S @ acl
                                     @ chol_inv.T)[-1]
            excess = (lhs - rate) / max(abs(rate), 1.0)
            worst = max(worst, excess)
            violations += int(excess > rel_tol)
    return worst, violations, vacuous


def test_verify_property_matches_per_sample_reference(bundle):
    b = bundle
    worst, violations, vacuous = _verify_property_loop(b, 300, 5, 1e-7)
    rep = synthesis.verify_property(b, num_samples=300, rng_seed=5)
    assert rep.vacuous == vacuous is False
    assert rep.num_violations == violations
    assert abs(rep.max_relative_excess - worst) <= 1e-12
    # a tolerance inside the range of excesses makes the violation count
    # depend on every sample lining up with its reference
    mid = worst - 0.05
    _, violations, _ = _verify_property_loop(b, 300, 5, mid)
    rep = synthesis.verify_property(b, num_samples=300, rng_seed=5,
                                    rel_tol=mid)
    assert 0 < violations < 900
    assert rep.num_violations == violations


def _per_level_verify_property(b, num_samples=500, rng_seed=0, rel_tol=1e-7):
    # the property check with its own S^-1/2 sandwich and eigvalsh on each
    # inflation level, in place of one stacked theta_exact
    eps_values = [0.0, b.a / (2.0 * b.a2), 2.0 * b.a / b.a2] if b.a2 > 0 \
        else [0.0]
    rng = np.random.default_rng(rng_seed)
    w = b.window
    nx, nu = w.nx, w.nu
    s_inv_half = linalg.inv_sqrt_pd(b.S)
    worst, violations, vacuous = -np.inf, 0, True
    for eps in eps_values:
        params = proximity.ellipsoid_params(
            w, proximity.inflated(b.F, b.S, eps))
        if not proximity.is_nonempty(params):
            continue
        vacuous = False
        rate = b.rate(eps)
        zhat_t = np.swapaxes(
            proximity.sample_members(params, num_samples, rng), 1, 2)
        acl = zhat_t[:, :, :nx] + zhat_t[:, :, nx:nx + nu] @ b.K
        q = s_inv_half @ linalg.symmetrize(
            np.swapaxes(acl, 1, 2) @ b.S @ acl) @ s_inv_half
        lhs = np.linalg.eigvalsh(linalg.symmetrize(q))[:, -1]
        excess = (lhs - rate) / max(abs(rate), 1.0)
        worst = max(worst, float(np.max(excess, initial=-np.inf)))
        violations += int(np.count_nonzero(excess > rel_tol))
    return synthesis.PropertyReport(
        eps_values=list(eps_values),
        max_relative_excess=(worst if np.isfinite(worst) else 0.0),
        num_violations=violations, vacuous=vacuous)


def test_verify_property_equals_per_level_kernel_on_canonical_bundles():
    n_bundles = n_vacuous = 0
    for _, _, _, traj in verification.canonical_runs():
        for e in traj.episodes:
            rep = synthesis.verify_property(e.new_bundle)
            ref = _per_level_verify_property(e.new_bundle)
            assert pickle.dumps(rep) == pickle.dumps(ref), e.k
            n_bundles += 1
            n_vacuous += rep.vacuous
    # every bundle of the canonical runs, the vacuous ones included
    assert n_bundles == 77 and n_vacuous == 4


def test_verify_property_per_level_kernel_on_three_states():
    # at nx = 3, eigh and eigvalsh may round the largest eigenvalue apart
    a_mat = np.array([[1.1, 0.2, 0.0], [0.0, 0.9, 0.3], [0.1, 0.0, 1.05]])
    b_mat = np.array([[1.0, 0.0], [0.0, 0.5], [0.3, 1.0]])
    plant = plants.ConstantLti(a_mat, b_mat)
    b = synthesis.synthesize(exploration_window(plant, width=8))
    assert b is not None and b.K.shape == (2, 3)
    rep = synthesis.verify_property(b, num_samples=300, rng_seed=2)
    ref = _per_level_verify_property(b, num_samples=300, rng_seed=2)
    assert not rep.vacuous and not ref.vacuous
    assert rep.num_violations == ref.num_violations == 0
    assert abs(rep.max_relative_excess - ref.max_relative_excess) <= \
        1e-14 * abs(ref.max_relative_excess)
