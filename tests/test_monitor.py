import csv
import dataclasses
import pickle

import numpy as np
import pytest

from ltvadapt import (cli, hybrid, linalg, monitor, plants, proximity,
                      synthesis, verification)
from ltvadapt.window import DataWindow
from test_cli import ExplodingPlant


def test_nu_d_scalar():
    assert abs(monitor.nu_d(np.array([[2.0]]), np.array([[4.0]])) - 2.0) \
        < 1e-12


def test_theta_exact_scalar():
    # closed loop 0.5 + 1 * (-0.2) = 0.3; theta = 0.3^2
    th = synthesis.theta_exact(np.array([[0.5]]), np.array([[1.0]]),
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
    return plant, cfg, hybrid.run(plant, cfg)


def _report(plant, cfg, traj):
    return monitor.thm_diagnostics(
        traj, *monitor.default_rates(traj, plant, cfg.c_sigma), plant,
        cfg.c_sigma)


def test_pi_starts_at_one(switching_run):
    plant, cfg, traj = switching_run
    pi = _report(plant, cfg, traj).pi_exact
    assert pi[0] == 1.0
    assert len(pi) == len(traj.records) - traj.monitor_start


def test_bound_holds_both_modes(switching_run):
    plant, cfg, traj = switching_run
    rep = _report(plant, cfg, traj)
    for pi in (rep.pi_exact, rep.pi_databased):
        assert all(monitor.check_bound(traj, pi))


def test_databased_dominates_exact(switching_run):
    plant, cfg, traj = switching_run
    rep = _report(plant, cfg, traj)
    assert all(d >= e * (1 - 1e-9)
               for e, d in zip(rep.pi_exact, rep.pi_databased))


def test_pi_matches_decrease_factor_on_quiet_steps():
    # a constant well-behaved plant stays in the decrease branch, so the
    # product is sigma(a1)^i
    plant = plants.ConstantLti()
    cfg = hybrid.ScenarioConfig(mode="event", horizon=30, seed=0)
    traj = hybrid.run(plant, cfg)
    if len(traj.episodes) != 1:
        pytest.skip("run triggered; factor pattern not applicable")
    pi = _report(plant, cfg, traj).pi_exact
    b = traj.initial_bundle
    s = hybrid.sigma(b.a1, cfg.c_sigma)
    assert np.allclose(pi[:10], [s ** i for i in range(10)], rtol=1e-9)


def test_check_bound_length_mismatch(switching_run):
    plant, cfg, traj = switching_run
    with pytest.raises(linalg.InvalidInput):
        monitor.check_bound(traj, np.ones(3))


def test_overflowed_product_fails_the_bound(monkeypatch):
    # over 120 steps the switching event run's data-based product
    # overflows to inf at record 107; a bound of inf bounds nothing, so
    # those records fail while every finite bound still holds, and the
    # lemma5 suite fails product-bound-holds alone
    plant = plants.SwitchingPlant()
    cfg = hybrid.ScenarioConfig(mode="event", horizon=120, seed=53)
    traj = hybrid.run(plant, cfg)
    rep = _report(plant, cfg, traj)
    finite = np.isfinite(rep.pi_databased)
    assert np.flatnonzero(~finite)[0] == 107 and not finite[107:].any()
    assert monitor.check_bound(traj, rep.pi_databased) == finite.tolist()
    assert all(rep.bound_ok)
    # a finite product whose bound pi * V0 overflows fails as well
    assert rep.records[0].V > 1.0
    assert not any(monitor.check_bound(traj, np.full(len(finite), 1e308)))
    monkeypatch.setattr(verification, "canonical_runs",
                        lambda: [("switching-event-120", plant, cfg, traj)])
    res = verification.suite_lemma5()
    assert [c.name for c in res.checks if not c.passed] == \
        ["product-bound-holds"]
    # the detail counts the unbounded records rather than reading each as
    # a ratio of 0 under the largest finite one
    assert res.checks[0].detail == (
        "1 runs, largest V/(pi V0) 0.495 exact, 0.495 data-based, "
        "non-finite pi V0 on 0 exact and 10 data-based records")


def test_default_rates_dominate(switching_run):
    plant, cfg, traj = switching_run
    lam_c, lam_d = monitor.default_rates(traj, plant, cfg.c_sigma)
    assert 0.0 < lam_c <= 1.0
    assert lam_d >= lam_c
    # the in-C1 rate is the largest sigma(a1) at the run's own trigger
    # threshold, which every call names: a run at c_sigma = 0.5 read at
    # 0.1 would get 0.99627
    with pytest.raises(TypeError):
        monitor.default_rates(traj, plant)
    with pytest.raises(TypeError):
        monitor.thm_diagnostics(traj, lam_c, lam_d, plant)
    cfg = dataclasses.replace(cfg, c_sigma=0.5)
    traj = hybrid.run(plant, cfg)
    assert round(monitor.default_rates(traj, plant, cfg.c_sigma)[0], 5) == \
        0.98135
    # the records hold the run's sigma(a1), so a c_sigma that is not the
    # run's is rejected rather than read as 0.99627
    with pytest.raises(linalg.InvalidInput, match="not the run's"):
        monitor.default_rates(traj, plant, 0.1)
    with pytest.raises(linalg.InvalidInput, match="not the run's"):
        monitor.thm_diagnostics(traj, lam_c, lam_d, plant, 0.1)


def test_thm_diagnostics_rejects_a_nan_rate(switching_run):
    # lambda_d >= lambda_c is false for a nan lambda_d, which used to give
    # a report whose every thm4_lhs was nan; an infinite lambda_d, which
    # default_rates can return, is still a rate
    plant, cfg, traj = switching_run
    lam_c, _ = monitor.default_rates(traj, plant, cfg.c_sigma)
    for lam_d in (np.nan, 0.5 * lam_c):
        with pytest.raises(linalg.InvalidInput, match="lambda_d >= lambda_c"):
            monitor.thm_diagnostics(traj, lam_c, lam_d, plant, cfg.c_sigma)
    rep = monitor.thm_diagnostics(traj, lam_c, np.inf, plant, cfg.c_sigma)
    assert np.all(rep.thm4_lhs == np.inf)


def test_default_rates_compute_no_databased_factor(switching_run,
                                                   monkeypatch):
    # the rates read only exact factors, so the walk behind them never
    # measures a data window's minimal inflation
    def boom(*args, **kwargs):
        raise AssertionError("min_inflation called")

    plant, cfg, traj = switching_run
    monkeypatch.setattr(proximity, "min_inflation", boom)
    lam_c, lam_d = monitor.default_rates(traj, plant, cfg.c_sigma)
    assert lam_d >= lam_c
    with pytest.raises(AssertionError):
        monitor.thm_diagnostics(traj, lam_c, lam_d, plant, cfg.c_sigma)


def test_thm_diagnostics_fields(switching_run):
    plant, cfg, traj = switching_run
    rep = _report(plant, cfg, traj)
    assert all(rep.bound_ok)
    assert rep.bound_ok == monitor.check_bound(traj, rep.pi_exact)
    assert len(rep.thm4_lhs) == len(rep.records)


def test_cor1_membership_on_vanishing_perturbation():
    plant = plants.make_plant("vanishing", {"p": 10, "t_delta": 30})
    cfg = hybrid.ScenarioConfig(mode="event", horizon=100, seed=2)
    traj = hybrid.run(plant, cfg)
    lam_c, lam_d = monitor.default_rates(traj, plant, cfg.c_sigma)
    rep = monitor.thm_diagnostics(traj, lam_c, lam_d, plant, cfg.c_sigma)
    assert rep.cor1_membership is True
    assert rep.Tstar_estimate is not None


def test_theta_databased_upper_bounds_exact_on_worked_instance(
        switching_run):
    # scheduled excitation aside, the data-based factor built from the
    # minimal inflation can never undercut the exact factor; both are
    # kept for exactly the steps outside T1, as computed directly here
    plant, cfg, traj = switching_run
    rep = _report(plant, cfg, traj)
    outside = [i for i, in_t1 in enumerate(rep.T1_membership) if not in_t1]
    assert outside
    assert list(rep.theta_exact) == outside
    assert list(rep.theta_databased) == outside
    bundles = monitor._walk(traj, plant, 0.1).bundles
    for i in outside:
        b, r = bundles[i], rep.records[i]
        a_mat, b_mat = plant.eval(r.k)
        te = synthesis.theta_exact(a_mat, b_mat, b.K, b.S)
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
    rep = _report(plant, cfg, traj)
    assert np.array_equal(rep.pi_databased, rep.pi_exact)
    assert rep.theta_exact and rep.theta_databased == rep.theta_exact


def test_diagnostics_csv(switching_run, tmp_path):
    plant, cfg, traj = switching_run
    lam_c, lam_d = monitor.default_rates(traj, plant, cfg.c_sigma)
    rep = monitor.thm_diagnostics(traj, lam_c, lam_d, plant, cfg.c_sigma)
    path = tmp_path / "diag.csv"
    cli.write_diagnostics_csv(rep, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("k,j,V,pi_exact,pi_databased")
    assert len(lines) == len(rep.records) + 1
    # theta cells are filled exactly on the steps outside T1
    rows = list(csv.DictReader(lines))
    assert any(row["in_C1"] == "0" for row in rows)
    for row in rows:
        for col in ("theta_exact", "theta_databased"):
            assert (row[col] != "") == (row["in_C1"] == "0")


# --- the stacked walk against a per-step numpy.linalg reference -------------


def _sym(m):
    return 0.5 * (m + m.T)


def _ref_gen_eig_max(a, b):
    # lambda_max(B^-1/2 A B^-1/2), with B^-1/2 from eigh of B, as
    # linalg.gen_eig_max evaluates it; a non-finite A is rejected as
    # linalg.symmetrize rejects it
    if not np.all(np.isfinite(a)):
        raise linalg.InvalidInput("matrix contains non-finite entries")
    w, v = np.linalg.eigh(_sym(b))
    bmh = (v / np.sqrt(w)) @ v.T
    return float(np.linalg.eigh(_sym(bmh @ _sym(a) @ bmh))[0][-1])


def _ref_theta_exact(a_mat, b_mat, b):
    acl = a_mat + b_mat @ b.K
    return _ref_gen_eig_max(acl.T @ b.S @ acl, b.S)


def _ref_min_inflation(b, a_mat, b_mat):
    w = b.window
    d = np.hstack([a_mat, b_mat]) @ np.vstack([w.Xhat, w.U]) - w.X
    wi, vi = np.linalg.eigh(_sym(_sym(b.S)))
    return max(0.0, _ref_gen_eig_max(d @ d.T - b.F, (vi / wi) @ vi.T))


def _reference_walk(traj, plant, c_sigma=0.1):
    """The walk one step at a time: successor value, decrease test,
    open-loop test, exact factor, and the data-based factor of a feedback
    step under a triggered bundle."""
    recs = traj.records[traj.monitor_start:]
    by_k = {e.k: e.new_bundle for e in traj.episodes}
    bundles, current = [], traj.initial_bundle
    for r in recs:
        if r.tau == 0 and r.k in by_k:
            current = by_k[r.k]
        bundles.append(current)
    in_t1, th_e, th_d, trig, nus, open_loop = [], {}, {}, {}, [], []
    for i in range(len(recs) - 1):
        b, r, rn = bundles[i], recs[i], recs[i + 1]
        if rn.tau == 0 and bundles[i + 1] is not b:
            nus.append((i + 1, _ref_gen_eig_max(_sym(bundles[i + 1].S),
                                                _sym(b.S))))
        v_next = np.inf
        if np.all(np.isfinite(rn.x)):
            with np.errstate(over="ignore", invalid="ignore"):
                v_next = float(rn.x @ b.S @ rn.x)
            v_next = v_next if np.isfinite(v_next) else np.inf
        in_t1.append(v_next <= hybrid.sigma(b.a1, c_sigma) * r.V *
                     (1.0 + hybrid.TIE_TOL))
        if in_t1[-1]:
            continue
        if r.u is not None and not np.allclose(r.u, b.K @ r.x, rtol=1e-9,
                                               atol=1e-12):
            open_loop.append(i)
            if r.V > 0.0:
                th_e[i] = v_next / r.V
            else:
                th_e[i] = np.inf if v_next > 0.0 else 1.0
            th_d[i] = th_e[i]
            continue
        a_mat, b_mat = plant.eval(r.k)
        with np.errstate(over="ignore", invalid="ignore"):
            th_e[i] = th_d[i] = _ref_theta_exact(a_mat, b_mat, b)
        if b is not bundles[0]:
            trig[i] = a_mat, b_mat
            th_d[i] = b.rate(_ref_min_inflation(b, a_mat, b_mat))
    # the products one step at a time: pi[i + 1] = pi[i] * (factor * nu)
    nu_at = dict(nus)
    pis = []
    for thetas in (th_e, th_d):
        pi = np.ones(len(recs))
        with np.errstate(over="ignore"):
            for i in range(len(recs) - 1):
                factor = hybrid.sigma(bundles[i].a1, c_sigma) if in_t1[i] \
                    else thetas[i]
                factor *= nu_at.get(i + 1, 1.0)
                pi[i + 1] = pi[i] * factor
        pis.append(pi)
    v0 = recs[0].V
    bound_ok = [bool((r.V if r.V is not None else np.inf)
                     <= p * v0 * (1.0 + monitor.BOUND_TOL))
                for r, p in zip(recs, pis[0])]
    lam_c = min(max(hybrid.sigma(b.a1, c_sigma) for b in bundles), 1.0)
    lam_d = lam_c
    for factor in [*th_e.values(), *(nu for _, nu in nus)]:
        lam_d = max(lam_d, factor)
    return dict(in_T1=in_t1, th_exact=th_e, theta_databased=th_d,
                triggered=trig, nu_events=nus, open_loop=open_loop,
                pi_exact=pis[0], pi_databased=pis[1], bound_ok=bound_ok,
                rates=(lam_c, lam_d))


def _bits(obj):
    return pickle.dumps(obj)


def _walk_runs():
    yield "time", plants.SwitchingPlant(), hybrid.ScenarioConfig(
        mode="time", horizon=100, seed=0, n_p=12)
    yield "event", plants.SwitchingPlant(), hybrid.ScenarioConfig(
        mode="event", horizon=100, seed=53)
    yield "fallback", plants.ConstantLti(b=np.zeros((2, 2))), \
        hybrid.ScenarioConfig(mode="event", horizon=8, seed=3)
    # A grows 1e7-fold at the step after the forced design at k = 4
    yield "one-step", ExplodingPlant(1e7, 4), hybrid.ScenarioConfig(
        mode="fixed", horizon=20, seed=1)
    yield "overflow", ExplodingPlant(1e160, 8), hybrid.ScenarioConfig(
        mode="fixed", horizon=20, seed=1)


@pytest.mark.parametrize("name,plant,cfg", list(_walk_runs()),
                         ids=[r[0] for r in _walk_runs()])
def test_stacked_walk_equals_per_step_reference(name, plant, cfg):
    traj = hybrid.run(plant, cfg)
    try:
        ref = _reference_walk(traj, plant)
    except linalg.InvalidInput as exc:
        # the overflowing step's closed loop is not finite
        assert name == "overflow"
        with pytest.raises(linalg.InvalidInput, match=str(exc)):
            monitor.default_rates(traj, plant, cfg.c_sigma)
        return
    walk = monitor._walk(traj, plant, 0.1)
    rates = monitor.default_rates(traj, plant, cfg.c_sigma)
    rep = monitor.thm_diagnostics(traj, *rates, plant, cfg.c_sigma)
    trig = {i: (a[j], b[j]) for _, steps, a, b in walk.triggered
            for j, i in enumerate(steps)}
    out = np.flatnonzero(~walk.in_T1).tolist()
    assert _bits(walk.in_T1.tolist()) == _bits(ref["in_T1"]) == \
        _bits(rep.T1_membership)
    assert _bits(dict(zip(out, walk.theta[out].tolist()))) == \
        _bits(ref["th_exact"]) == _bits(rep.theta_exact)
    assert _bits(rep.theta_databased) == _bits(ref["theta_databased"])
    assert _bits(walk.nu_events) == _bits(ref["nu_events"])
    assert _bits(trig) == _bits(ref["triggered"])
    assert _bits(rep.pi_exact) == _bits(ref["pi_exact"])
    assert _bits(rep.pi_databased) == _bits(ref["pi_databased"])
    assert _bits(rep.bound_ok) == _bits(ref["bound_ok"])
    assert _bits(rates) == _bits(ref["rates"])
    # each run exercises the branch it was picked for
    covers = {
        "time": ref["open_loop"],
        "event": ref["nu_events"] and ref["triggered"],
        "fallback": traj.initial_bundle.solver_status == "Fallback"
        and ref["th_exact"],
        "one-step": len(walk.records) == 2 and ref["th_exact"],
    }
    assert covers[name]


def test_event_designs_follow_the_steps_outside_T1():
    # the run's trigger and the walk's T1 are one decrease test: in event
    # mode a design runs right after each step outside T1, and the last
    # step has no step after it
    n = 0
    for name, plant, cfg, traj in verification.canonical_runs():
        if cfg.mode != hybrid.EVENT_TRIGGERED:
            continue
        walk = monitor._walk(traj, plant, cfg.c_sigma)
        out = np.flatnonzero(~walk.in_T1[:-1]).tolist()
        departures = [i - 1 for i, r in enumerate(walk.records)
                      if i > 0 and r.synth_feasible is not None]
        assert out == departures, name
        n += len(out)
    assert n == 124


def test_stacked_theta_exact_equals_single_calls(switching_run):
    # real pairs under every bundle of the run, and random ones
    plant, cfg, traj = switching_run
    rng = np.random.default_rng(5)
    for b in [traj.initial_bundle] + [e.new_bundle for e in traj.episodes]:
        pairs = [plant.eval(k) for k in range(0, 100, 7)]
        pairs += [(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
                  for _ in range(10)]
        a_mats = np.array([p[0] for p in pairs])
        b_mats = np.array([p[1] for p in pairs])
        stacked = synthesis.theta_exact(a_mats, b_mats, b.K, b.S)
        singles = [synthesis.theta_exact(a, bm, b.K, b.S)
                   for a, bm in pairs]
        assert all(type(t) is float for t in singles)
        assert _bits(stacked.tolist()) == _bits(singles)


def test_rebuilt_window_equals_the_designed_window():
    # the window rebuilt at an episode's record is the one its design saw
    n = 0
    for _, _, _, traj in verification.canonical_runs():
        for e in traj.episodes:
            w = e.new_bundle.window
            idx = next(i for i, r in enumerate(traj.records) if r.k == e.k)
            rebuilt = monitor._rebuild_window(traj, idx, w.width)
            assert rebuilt.kappa == w.kappa == e.k
            for name in ("Xhat", "X", "U"):
                assert np.array_equal(getattr(rebuilt, name),
                                      getattr(w, name)), name
            n += 1
    assert n > 0


def _certify_runs():
    # the runs of the certify benchmark: the time-triggered switching plant
    # at n_p = 8, 12, 16 over seeds 0-6, and the vanishing perturbation
    for n_p in (8, 12, 16):
        for seed in range(7):
            yield plants.SwitchingPlant(), hybrid.ScenarioConfig(
                mode="time", horizon=100, seed=seed, n_p=n_p)
    yield plants.make_plant("vanishing", {"p": 10, "t_delta": 30}), \
        hybrid.ScenarioConfig(mode="event", horizon=100, seed=2)


def _per_record_cor1(traj, plant, c_sigma):
    # terminal-set membership one record at a time from T* on
    walk = monitor._walk(traj, plant, c_sigma)
    out = np.flatnonzero(~walk.in_T1).tolist()
    first = out[-1] + 1 if out else 0
    b = walk.bundles[first]
    try:
        w = monitor._rebuild_window(traj, traj.monitor_start + first,
                                    b.window.width)
    except linalg.InvalidInput:
        return None
    return all(proximity.contains(w, b.F, *plant.eval(r.k))
               for r in walk.records[first:])


def test_stacked_cor1_membership_equals_per_record_reference():
    runs = [(plant, cfg, traj)
            for _, plant, cfg, traj in verification.canonical_runs()]
    runs += [(plant, cfg, hybrid.run(plant, cfg))
             for plant, cfg in _certify_runs()]
    assert len(runs) == 38
    seen = set()
    for plant, cfg, traj in runs:
        rep = monitor.thm_diagnostics(
            traj, *monitor.default_rates(traj, plant, cfg.c_sigma), plant,
            cfg.c_sigma)
        ref = _per_record_cor1(traj, plant, cfg.c_sigma)
        assert _bits(rep.cor1_membership) == _bits(ref)
        seen.add(ref)
    assert {True, False} <= seen


def test_stacked_nu_d_equals_single_calls(switching_run):
    _, _, traj = switching_run
    certs = [traj.initial_bundle.S] + [e.new_bundle.S for e in traj.episodes]
    assert len(certs) > 2
    singles = [monitor.nu_d(s, s_next) for s, s_next in zip(certs, certs[1:])]
    stacked = monitor.nu_d(np.array(certs[:-1]), np.array(certs[1:]))
    assert all(type(nu) is float for nu in singles)
    assert _bits(stacked.tolist()) == _bits(singles)
