import dataclasses

import numpy as np

from ltvadapt import hybrid, plants, synthesis, verification
from test_synthesis import exploration_window


def test_property1_reports_negative_slack(monkeypatch):
    plant = plants.ConstantLti()
    b = synthesis.synthesize(exploration_window(plant))
    # a run records its initial design as its first episode: the record
    # of the design step carries the bundle and is marked tau = 0
    x = b.window.X[:, -1]
    traj = hybrid.Trajectory(records=[hybrid.StepRecord(
        k=b.window.kappa, j=1, x=x, u=b.K @ x, V=b.lyapunov(x),
        sigma_a1=hybrid.sigma(b.a1), bundle=b, explore=False,
        synth_feasible=True, tau=0)])
    monkeypatch.setattr(verification, "canonical_runs",
                        lambda: [("nominal", plant, None, traj)])
    res = verification.suite_property1(num_samples=50, rng_seed=3)
    rep = synthesis.verify_property(b, num_samples=50, rng_seed=3)
    assert res.passed
    assert not rep.vacuous and rep.max_relative_excess < 0.0
    assert res.checks[0].detail.endswith(
        "worst excess %.3g" % rep.max_relative_excess)
    assert "1 bundles x 50 samples, 0 vacuous, " in res.checks[0].detail


def test_prop3_toggle_check_counts_the_jumps(monkeypatch):
    # a tau = 0 mark without a jump in j fails the check, and only it
    assert verification.suite_prop3().passed
    name, plant, cfg, traj = verification.canonical_runs()[0]
    recs = list(traj.records)
    i = next(i for i, r in enumerate(recs) if i > 0 and r.tau == 1)
    recs[i] = dataclasses.replace(recs[i], tau=0)
    monkeypatch.setattr(verification, "canonical_runs", lambda: [
        (name, plant, cfg, hybrid.Trajectory(records=recs))])
    res = verification.suite_prop3()
    assert [c.name for c in res.checks if not c.passed] == \
        ["toggle-marks-episodes"]


def _loop_oracle(det, ub, strict_margin, n):
    """Point-by-point grid search, the reference for the batched oracle."""
    best = -np.inf
    best_x = None
    lo = np.array([strict_margin, strict_margin])
    hi = ub - strict_margin
    for _ in range(3):
        for x1 in np.linspace(lo[0], hi[0], n):
            for x2 in np.linspace(lo[1], hi[1], n):
                ev = np.linalg.eigvalsh(det(np.array([x1, x2])))
                if ev[0] <= strict_margin:
                    continue
                val = float(np.sum(np.log(ev)))
                if val > best:
                    best = val
                    best_x = np.array([x1, x2])
        if best_x is None:
            return None, None
        span = (hi - lo) / (n - 1)
        lo = np.maximum(lo, best_x - 2 * span)
        hi = np.minimum(hi, best_x + 2 * span)
    return best, best_x


def test_grid_oracle_matches_point_loop():
    rng = np.random.default_rng(0)
    for _ in range(5):
        _, ub, det = verification._random_2var_maxdet(rng)
        got = verification._grid_oracle(det, ub, 1e-6, n=21)
        want = _loop_oracle(det, ub, 1e-6, n=21)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])



def test_property1_names_vacuous_bundles():
    # an empty inflated set passes, but the detail names the bundle
    res = verification.suite_property1(num_samples=20, rng_seed=0)
    assert res.passed
    assert "77 bundles x 20 samples, 4 vacuous (switching-event k=15, " \
        "switching-event k=16, time-np16-s1 k=56, time-np16-s2 k=88), " \
        "0 violations" in res.checks[0].detail


def test_lemma5_reports_worst_slacks():
    res = verification.suite_lemma5()
    assert res.passed
    assert [c.detail for c in res.checks] == [
        "16 runs, largest V/(pi V0) 0.707 exact, 0.707 data-based",
        "smallest pi_databased/pi_exact 1"]


def test_bound_ratio_skips_first_and_doubly_infinite_records():
    v = np.array([2.0, 1.0, np.inf, np.inf, 0.5])
    pi = np.array([1.0, 1.0, np.inf, 2.0, 0.25])
    # record 0 and the record where V and pi are both inf are left out;
    # an infinite V under a finite pi is the largest ratio
    assert verification._bound_ratio(v, pi) == np.inf
    assert verification._bound_ratio(v[[0, 1, 2, 4]], pi[[0, 1, 2, 4]]) \
        == 1.0
