import dataclasses

import numpy as np
import pytest

from ltvadapt import hybrid, plants, synthesis, verification
from test_synthesis import exploration_window


def _first_run_with(monkeypatch, records):
    """Make the suites see the first canonical run with these records."""
    name, plant, cfg, traj = verification.canonical_runs()[0]
    monkeypatch.setattr(verification, "canonical_runs", lambda: [
        (name, plant, cfg, hybrid.Trajectory(records=records))])


def _with_bundles(records, mutate):
    """The records with each bundle b replaced by mutate(b), one
    replacement per bundle, so records that shared a bundle still do."""
    new = {}
    for r in records:
        if r.bundle is not None and id(r.bundle) not in new:
            new[id(r.bundle)] = mutate(r.bundle)
    return [dataclasses.replace(r, bundle=new.get(id(r.bundle)))
            for r in records]


def _failed(res):
    return [c.name for c in res.checks if not c.passed]


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
    recs = list(verification.canonical_runs()[0][3].records)
    i = next(i for i, r in enumerate(recs) if i > 0 and r.tau == 1)
    recs[i] = dataclasses.replace(recs[i], tau=0)
    _first_run_with(monkeypatch, recs)
    assert _failed(verification.suite_prop3()) == ["toggle-marks-episodes"]


def test_prop3_domain_check_catches_a_repeated_step(monkeypatch):
    # two records of one step fail the domain check, and only it: a
    # repeated tau = 1 record leaves j counting the jumps
    recs = list(verification.canonical_runs()[0][3].records)
    i = next(i for i, r in enumerate(recs) if i > 0 and r.tau == 1)
    _first_run_with(monkeypatch, recs[:i + 1] + recs[i:])
    assert _failed(verification.suite_prop3()) == ["hybrid-domain-monotone"]


def test_center_decrease_fails_on_a_halved_rate(monkeypatch):
    # a certified rate a1 below the exact contraction at the centre of the
    # consistency set fails the check, and only it
    recs = verification.canonical_runs()[0][3].records
    _first_run_with(monkeypatch, _with_bundles(
        recs, lambda b: dataclasses.replace(b, a1=0.5 * b.a1)))
    res = verification.suite_solver()
    assert _failed(res) == ["center-decrease"]
    assert res.checks[-1].detail.startswith("1 non-empty sets, ")


def test_solver_suite_reports_the_centre_excess():
    res = verification.suite_solver()
    assert res.passed
    assert res.checks[-1].detail == \
        "73 non-empty sets, worst relative excess -0.0336"


def test_dominance_fails_without_the_inflation_term(monkeypatch):
    # with a2 = 0 a triggered bundle's data-based factor a1 lies below the
    # exact factor of every feedback step outside T1, so pi_databased
    # falls below pi_exact
    traj = verification.canonical_runs()[0][3]
    first = traj.initial_bundle
    _first_run_with(monkeypatch, _with_bundles(
        traj.records,
        lambda b: b if b is first else dataclasses.replace(b, a2=0.0)))
    res = verification.suite_lemma5()
    assert _failed(res) == ["databased-dominates-exact"]
    assert res.checks[1].detail.endswith("theta_databased/theta_exact 0.0856")


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
        "236 triggered feedback steps, smallest "
        "theta_databased/theta_exact 1.7e+05"]


def test_bound_ratio_skips_first_and_doubly_infinite_records():
    v = np.array([2.0, 1.0, np.inf, np.inf, 0.5])
    pi = np.array([1.0, 1.0, np.inf, 2.0, 0.25])
    # record 0 and the record where V and pi are both inf are left out;
    # an infinite V under a finite pi is the largest ratio
    assert verification._bound_ratio(v, pi) == np.inf
    assert verification._bound_ratio(v[[0, 1, 2, 4]], pi[[0, 1, 2, 4]]) \
        == 1.0


# a family at nx >= 3, kept out of canonical_scenarios(): three constant
# plants, each run in event, time and fixed mode with seed 1 over 100
# steps. A noise-free window of a constant plant holds the true pair, so
# no event run redesigns after its forced design.
A_NX3 = np.array([[1.1, 0.2, 0.0], [0.0, 0.9, 0.3], [0.1, 0.0, 1.05]])
WIDE_PLANTS = {
    "nx3-nu1": (A_NX3, np.array([[0.0], [0.0], [1.0]])),
    "nx3-nu2": (A_NX3, np.array([[1.0, 0.0], [0.0, 0.5], [0.3, 1.0]])),
    "nx4-nu2": (np.array([[1.05, 0.1, 0.0, 0.0], [0.0, 0.95, 0.2, 0.0],
                          [0.0, 0.0, 1.1, 0.1], [0.1, 0.0, 0.0, 0.9]]),
                np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])),
}


@pytest.fixture(scope="module")
def wide_runs():
    runs = []
    for name, (a, b) in WIDE_PLANTS.items():
        for mode in (hybrid.EVENT_TRIGGERED, hybrid.TIME_TRIGGERED,
                     hybrid.FIXED_GAIN):
            plant = plants.ConstantLti(a, b)
            cfg = hybrid.ScenarioConfig(mode=mode, horizon=100, seed=1)
            runs.append(("%s-%s" % (name, mode), plant, cfg,
                         hybrid.run(plant, cfg)))
    return runs


def test_wide_family_outcomes(wide_runs):
    assert {name: (traj.status, [e.k for e in traj.episodes])
            for name, _, _, traj in wide_runs} == {
        "nx3-nu1-event": ("Completed", [4]),
        "nx3-nu1-time": ("Completed", [4, 20, 32, 44, 56, 68, 80, 92]),
        "nx3-nu1-fixed": ("Completed", [4]),
        "nx3-nu2-event": ("Completed", [5]),
        "nx3-nu2-time": ("Completed", [5, 22, 34, 46, 58, 70, 82, 94]),
        "nx3-nu2-fixed": ("Completed", [5]),
        "nx4-nu2-event": ("Completed", [6]),
        "nx4-nu2-time": ("Completed", [6, 24, 36, 48, 60, 72, 84, 96]),
        "nx4-nu2-fixed": ("Completed", [6]),
    }


def test_wide_family_passes_the_suites(wide_runs, monkeypatch):
    monkeypatch.setattr(verification, "canonical_runs", lambda: wide_runs)
    lemma3 = verification.suite_lemma3()
    property1 = verification.suite_property1(num_samples=200)
    lemma5 = verification.suite_lemma5()
    prop3 = verification.suite_prop3()
    assert lemma3.passed and property1.passed and lemma5.passed \
        and prop3.passed
    # the set test covers the forced design of each of the 3 event runs
    assert lemma3.checks[1].detail == "1500 samples, 0 disagreements"
    assert "30 bundles x 200 samples, 0 vacuous, 0 violations" in \
        property1.checks[0].detail
    assert lemma5.checks[1].detail.startswith("0 triggered feedback steps")
