"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line; scenario runs shared with the verification suites are memoized so
the heavy SDP work happens once.
"""

import time

import numpy as np
import pytest

from ltvadapt import hybrid, monitor, plants, verification


def report(num, ok, text):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, text))
    assert ok, text


def _converged(traj):
    n = traj.state_norms()
    return bool(n[80:].max() <= 1e-2 * n.max())


def test_criterion_1_switching_event_triggered():
    plant = plants.SwitchingPlant(p=12, ell=1.0)
    cfg = hybrid.ScenarioConfig(mode="event", T=4, eps_F=0.1, horizon=100,
                                seed=53)
    t0 = time.time()
    traj = hybrid.run(plant, cfg)
    elapsed = time.time() - t0
    conv = _converged(traj)
    count_ok = len(traj.episodes) <= 10
    # first plant switch is at k = 13
    near_switch = any(13 <= e.k <= 16 for e in traj.episodes)
    fast = elapsed < 10.0
    report(1, conv and count_ok and near_switch and fast,
           "switching run converges (episodes %s, %.1fs)"
           % ([e.k for e in traj.episodes], elapsed))


def test_criterion_2_fixed_gain_divergence_contrast():
    t0 = time.time()
    strong = hybrid.run(
        plants.SwitchingPlant(ell=2.5),
        hybrid.ScenarioConfig(mode="fixed", horizon=100, seed=1))
    mild = hybrid.run(
        plants.SwitchingPlant(ell=1.0),
        hybrid.ScenarioConfig(mode="fixed", horizon=100, seed=1))
    elapsed = time.time() - t0
    diverged_early = strong.status == hybrid.DIVERGED and \
        strong.records[-1].k < 100
    ok = diverged_early and mild.status == hybrid.COMPLETED and \
        elapsed < 5.0
    report(2, ok, "fixed gain: ell=2.5 %s, ell=1 %s (%.1fs)"
           % (strong.status, mild.status, elapsed))


def test_criterion_3_time_triggered_period_ordering():
    seeds = range(7)
    medians = {}
    for n_p in (8, 12, 16):
        finals = []
        for seed in seeds:
            traj = hybrid.run(
                plants.SwitchingPlant(),
                hybrid.ScenarioConfig(mode="time", horizon=100, seed=seed,
                                      n_p=n_p))
            finals.append(float(np.linalg.norm(traj.records[-1].x)))
        medians[n_p] = float(np.median(finals))
    ok = medians[12] < medians[8] and medians[12] < medians[16]
    report(3, ok, "median final norms over %d seeds: n_p=8 %.3g, "
           "n_p=12 %.3g, n_p=16 %.3g"
           % (len(list(seeds)), medians[8], medians[12], medians[16]))


def test_criterion_4_sinusoidal_and_vanishing_scenarios():
    details = []
    ok = True
    for kind, params in [("sinusoidal", {"p": 10}),
                         ("sinusoidal", {"p": 20}),
                         ("sinusoidal", {"p": 40}),
                         ("vanishing", {"p": 10, "t_delta": 30})]:
        plant = plants.make_plant(kind, params)
        cfg = hybrid.ScenarioConfig(mode="event", horizon=100, seed=2)
        traj = hybrid.run(plant, cfg)
        good = traj.status == hybrid.COMPLETED and _converged(traj) \
            and len(traj.episodes) <= 10
        if kind == "vanishing":
            lam_c, lam_d = monitor.default_rates(traj, plant, cfg.c_sigma)
            rep = monitor.thm_diagnostics(traj, lam_c, lam_d, plant,
                                          cfg.c_sigma)
            good = good and rep.cor1_membership is True
            details.append("vanishing cor1=%s" % rep.cor1_membership)
        details.append("%s p=%s eps=%d" % (kind, params["p"],
                                           len(traj.episodes)))
        ok = ok and good
    report(4, ok, "; ".join(details))


def test_criterion_5_decrease_property_suite():
    res = verification.suite_property1(num_samples=500, rng_seed=0)
    report(5, res.passed, res.checks[0].detail)


def test_criterion_6_lyapunov_product_bound_suite():
    res = verification.suite_lemma5()
    report(6, res.passed,
           "; ".join(c.name for c in res.checks if c.passed) or "none")


def test_criterion_7_record_structure_suite():
    res = verification.suite_prop3()
    report(7, res.passed, "%d/%d structural checks"
           % (sum(c.passed for c in res.checks), len(res.checks)))


def test_criterion_8_solver_suite():
    res = verification.suite_solver()
    report(8, res.passed,
           "; ".join("%s:%s" % (c.name, "ok" if c.passed else "FAIL")
                     for c in res.checks))


def test_criterion_9_data_consistency_suite():
    res = verification.suite_lemma3()
    report(9, res.passed,
           "; ".join("%s:%s" % (c.name, "ok" if c.passed else "FAIL")
                     for c in res.checks))
