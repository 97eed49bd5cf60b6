import numpy as np
import pytest

from ltvadapt import linalg, plants, proximity, synthesis
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


def test_certificate_identity(bundle):
    b = bundle
    lhs = b.H - (1.0 + 1.0 / b.varsigma) * b.F
    assert np.max(np.abs(lhs - b.eps_F * b.H)) <= \
        1e-12 * (1 + np.max(np.abs(b.H)))


def test_certificate_relations(bundle):
    b = bundle
    assert abs(b.a1 - (1.0 - b.a)) <= 1e-12
    assert abs(b.a2 - (1.0 + 1.0 / b.varsigma)) <= 1e-9 * b.a2
    assert linalg.is_pd(b.S)
    assert linalg.is_pd(b.F)


def test_eps_F_trades_rate_for_margin():
    w = exploration_window()
    tight = synthesis.synthesize(w, eps_F=0.05)
    loose = synthesis.synthesize(w, eps_F=0.4)
    # larger eps_F certifies a faster decay (smaller a1)
    assert loose.a1 < tight.a1


def test_empty_window_infeasible():
    w = DataWindow.empty(2, 2, 4)
    assert synthesis.synthesize(w) is None
    assert not synthesis.is_feasible(w)


def test_is_feasible_on_good_window():
    assert synthesis.is_feasible(exploration_window())


def test_fallback_bundle():
    w = DataWindow.empty(2, 2, 4)
    b = synthesis.fallback_bundle(w)
    assert not b.K.any()
    assert b.a1 == 1.0
    assert b.solver_status == "Fallback"


def test_bundle_json_round_trip(bundle, tmp_path):
    b = bundle
    path = tmp_path / "bundle.json"
    b.save_json(str(path))
    b2 = synthesis.ControllerBundle.load_json(str(path))
    assert np.array_equal(b.K, b2.K)
    assert np.array_equal(b.S, b2.S)
    assert b.a1 == b2.a1 and b.a2 == b2.a2


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


def test_decay_rate_bound(bundle):
    b = bundle
    assert synthesis.decay_rate_bound(b, 0.0) == b.a1
    eps = 0.01
    assert abs(synthesis.decay_rate_bound(b, eps)
               - (b.a1 + b.a2 * eps)) < 1e-15



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
        for _ in range(num_samples):
            g = rng.standard_normal(par.Zc.shape)
            s = np.linalg.norm(g, 2)
            v = g if s == 0.0 else (rng.uniform() ** 0.25 / s) * g
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
