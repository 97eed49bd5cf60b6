import csv
import dataclasses

import numpy as np
import pytest

from ltvadapt import hybrid, linalg, monitor, plants, proximity, synthesis
from ltvadapt.window import DataWindow


def test_nu_d_scalar():
    assert abs(monitor.nu_d(np.array([[2.0]]), np.array([[4.0]])) - 2.0) \
        < 1e-12


def test_theta_exact_scalar():
    # closed loop 0.5 + 1 * (-0.2) = 0.3; theta = 0.3^2
    th = monitor.theta_exact(np.array([[0.5]]), np.array([[1.0]]),
                             np.array([[-0.2]]), np.array([[2.0]]))
    assert abs(th - 0.09) < 1e-12


def test_theta_databased_formula():
    # the data-based factor is the bundle's certified rate a1 + a2 * eps
    w = DataWindow.empty(2, 2, 4)
    b = dataclasses.replace(synthesis.fallback_bundle(w), a1=0.9, a2=5.0)
    assert abs(b.rate(0.04) - 1.1) < 1e-12
    with pytest.raises(linalg.InvalidInput):
        b.rate(-0.1)


@pytest.fixture(scope="module")
def switching_run():
    """One switching-plant event run shared by the read-only tests."""
    plant = plants.SwitchingPlant()
    cfg = hybrid.ScenarioConfig(mode="event", horizon=100, seed=53)
    return plant, hybrid.run(plant, cfg)


def _report(plant, traj):
    return monitor.thm_diagnostics(
        traj, *monitor.default_rates(traj, plant), plant)


def test_pi_starts_at_one(switching_run):
    plant, traj = switching_run
    pi = _report(plant, traj).pi_exact
    assert pi[0] == 1.0
    assert len(pi) == len(traj.records) - traj.monitor_start


def test_bound_holds_both_modes(switching_run):
    plant, traj = switching_run
    rep = _report(plant, traj)
    for pi in (rep.pi_exact, rep.pi_databased):
        assert all(monitor.check_bound(traj, pi))


def test_databased_dominates_exact(switching_run):
    plant, traj = switching_run
    rep = _report(plant, traj)
    assert all(d >= e * (1 - 1e-9)
               for e, d in zip(rep.pi_exact, rep.pi_databased))


def test_pi_matches_decrease_factor_on_quiet_steps():
    # a constant well-behaved plant stays in the decrease branch, so the
    # product is sigma(a1)^i
    plant = plants.ConstantLti()
    cfg = hybrid.ScenarioConfig(mode="event", horizon=30, seed=0)
    traj = hybrid.run(plant, cfg)
    if traj.num_episodes != 1:
        pytest.skip("run triggered; factor pattern not applicable")
    pi = _report(plant, traj).pi_exact
    b = traj.initial_bundle
    s = hybrid.sigma(b.a1)
    assert np.allclose(pi[:10], [s ** i for i in range(10)], rtol=1e-9)


def test_check_bound_length_mismatch(switching_run):
    plant, traj = switching_run
    with pytest.raises(linalg.InvalidInput):
        monitor.check_bound(traj, np.ones(3))


def test_default_rates_dominate(switching_run):
    plant, traj = switching_run
    lam_c, lam_d = monitor.default_rates(traj, plant)
    assert 0.0 < lam_c <= 1.0
    assert lam_d >= lam_c


def test_default_rates_compute_no_databased_factor(switching_run,
                                                   monkeypatch):
    # the rates read only exact factors, so the walk behind them never
    # measures a data window's minimal inflation
    def boom(*args, **kwargs):
        raise AssertionError("min_inflation called")

    plant, traj = switching_run
    monkeypatch.setattr(proximity, "min_inflation", boom)
    lam_c, lam_d = monitor.default_rates(traj, plant)
    assert lam_d >= lam_c
    with pytest.raises(AssertionError):
        monitor.thm_diagnostics(traj, lam_c, lam_d, plant)


def test_thm_diagnostics_fields(switching_run):
    plant, traj = switching_run
    rep = _report(plant, traj)
    assert all(rep.bound_ok)
    assert rep.bound_ok == monitor.check_bound(traj, rep.pi_exact)
    assert rep.m2 >= 0.0
    assert len(rep.thm4_lhs) == len(rep.records)


def test_cor1_membership_on_vanishing_perturbation():
    plant = plants.make_plant("vanishing", {"p": 10, "t_delta": 30})
    cfg = hybrid.ScenarioConfig(mode="event", horizon=100, seed=2)
    traj = hybrid.run(plant, cfg)
    lam_c, lam_d = monitor.default_rates(traj, plant)
    rep = monitor.thm_diagnostics(traj, lam_c, lam_d, plant)
    assert rep.cor1_membership is True
    assert rep.Tstar_estimate is not None


def test_theta_databased_upper_bounds_exact_on_worked_instance(
        switching_run):
    # scheduled excitation aside, the data-based factor built from the
    # minimal inflation can never undercut the exact factor; both are
    # kept for exactly the steps outside T1, as computed directly here
    plant, traj = switching_run
    rep = _report(plant, traj)
    outside = [i for i, in_t1 in enumerate(rep.T1_membership) if not in_t1]
    assert outside
    assert list(rep.theta_exact) == outside
    assert list(rep.theta_databased) == outside
    bundles = monitor._walk(traj, plant, 0.1).bundles
    for i in outside:
        b, r = bundles[i], rep.records[i]
        a_mat, b_mat = plant.eval(r.k)
        te = monitor.theta_exact(a_mat, b_mat, b.K, b.S)
        td = te
        if b is not bundles[0]:
            td = b.rate(proximity.min_inflation(b.window, b.F, b.S, a_mat,
                                                b_mat))
        assert rep.theta_exact[i] == te and rep.theta_databased[i] == td
        assert td >= te * (1 - 1e-9)
    # some of those steps ran under a triggered design
    assert any(rep.theta_databased[i] != rep.theta_exact[i] for i in outside)


@pytest.mark.parametrize("mode", ["event", "time", "fixed"])
def test_fallback_run_uses_exact_factors(mode):
    # B = 0: the forced design falls back to the zero gain, which is the
    # initial bundle, so the data-based product is the exact one
    plant = plants.ConstantLti(b=np.zeros((2, 2)))
    cfg = hybrid.ScenarioConfig(mode=mode, horizon=8, seed=3, n_p=4)
    traj = hybrid.run(plant, cfg)
    assert traj.initial_bundle.solver_status == "Fallback"
    rep = _report(plant, traj)
    assert np.array_equal(rep.pi_databased, rep.pi_exact)
    assert rep.theta_exact and rep.theta_databased == rep.theta_exact


def test_diagnostics_csv(switching_run, tmp_path):
    plant, traj = switching_run
    lam_c, lam_d = monitor.default_rates(traj, plant)
    rep = monitor.thm_diagnostics(traj, lam_c, lam_d, plant)
    path = tmp_path / "diag.csv"
    monitor.write_diagnostics_csv(rep, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("k,j,V,pi_exact,pi_databased")
    assert len(lines) == len(rep.records) + 1
    # theta cells are filled exactly on the steps outside T1
    rows = list(csv.DictReader(lines))
    assert any(row["in_C1"] == "0" for row in rows)
    for row in rows:
        for col in ("theta_exact", "theta_databased"):
            assert (row[col] != "") == (row["in_C1"] == "0")
