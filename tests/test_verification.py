import dataclasses
import itertools
import os

import numpy as np
import pytest

from ltvadapt import (hybrid, maxdet, plants, proximity, synthesis,
                      verification)
from ltvadapt.window import DataWindow
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
        sigma_a1=hybrid.sigma(b.a1, 0.1), bundle=b, explore=False,
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
        "75 non-empty sets, worst relative excess -0.0336"


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


class _MisstatedPlant(plants.LtvPlant):
    """A plant whose A(k) is 1% larger than the one that made the data."""

    def __init__(self, plant):
        super().__init__(plant.nx, plant.nu)
        self.plant = plant

    def eval(self, k):
        a, b = self.plant.eval(k)
        return 1.01 * a, b


def test_window_consistency_fails_on_a_misstated_plant(monkeypatch):
    # windows checked against a plant that did not generate them leave a
    # residual, which fails that check alone
    name, plant, cfg, traj = verification.canonical_runs()[0]
    monkeypatch.setattr(verification, "canonical_runs", lambda: [
        (name, _MisstatedPlant(plant), cfg, traj)])
    res = verification.suite_lemma3()
    assert _failed(res) == ["window-consistency"]
    assert not res.checks[0].detail.endswith("worst residual ratio 0")


def _lemma3_with_delta_scaled(monkeypatch, factor):
    contains_ellipsoid = proximity.contains_ellipsoid
    monkeypatch.setattr(proximity, "contains_ellipsoid", lambda par, zh:
                        contains_ellipsoid(dataclasses.replace(
                            par, Delta=factor * par.Delta), zh))
    return verification.suite_lemma3()


def test_set_equivalence_fails_on_a_grown_ellipsoid(monkeypatch):
    # an ellipsoid test that reads Delta 1e6 times too large accepts the
    # candidates scaled just outside the set, which the direct test
    # rejects, and fails that check alone
    res = _lemma3_with_delta_scaled(monkeypatch, 1e6)
    assert _failed(res) == ["set-equivalence"]
    assert not res.checks[1].detail.endswith(" 0 disagreements")


def test_set_equivalence_fails_on_a_shrunken_ellipsoid(monkeypatch):
    # one that reads half of Delta rejects sampled members near the
    # boundary, which the direct test accepts, and fails that check alone
    assert verification.suite_lemma3().checks[1].detail == \
        "3500 samples, 1052 members, 0 disagreements"
    res = _lemma3_with_delta_scaled(monkeypatch, 0.5)
    assert _failed(res) == ["set-equivalence"]
    assert not res.checks[1].detail.endswith(" 0 disagreements")


def test_min_inflation_certificate_fails_on_half_an_inflation(monkeypatch):
    # a set loosened by half of the certified inflation misses the true
    # pair, which fails that check alone
    inflated = proximity.inflated
    monkeypatch.setattr(proximity, "inflated",
                        lambda F, S, eps: inflated(F, S, 0.5 * eps))
    assert _failed(verification.suite_lemma3()) == \
        ["min-inflation-certificate"]


def test_scalar_hand_values_fail_on_other_data(monkeypatch):
    # the hand values belong to the hand window; other successor states
    # move Zc, Delta and the inflation, which fails that check alone
    monkeypatch.setattr(verification, "_hand_window", lambda: DataWindow(
        kappa=2, Xhat=np.array([[1.0, 0.5]]), X=np.array([[0.5, 0.3]]),
        U=np.array([[0.0, 0.0]])))
    res = verification.suite_lemma3()
    assert _failed(res) == ["scalar-hand-values"]
    assert res.checks[3].detail != "eps=0.040000000000000008"


def test_decrease_fails_on_a_halved_rate(monkeypatch):
    # a certified rate a1 halved lies below the exact contraction of
    # sampled plants, which fails property1's check
    recs = verification.canonical_runs()[0][3].records
    _first_run_with(monkeypatch, _with_bundles(
        recs, lambda b: dataclasses.replace(b, a1=0.5 * b.a1)))
    res = verification.suite_property1(num_samples=50)
    assert _failed(res) == ["decrease-on-sampled-plants"]
    assert ", 0 violations," not in res.checks[0].detail


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
    assert "77 bundles x 20 samples, 2 vacuous (switching-event k=15, " \
        "switching-event k=16), 0 violations" in res.checks[0].detail


def test_lemma5_reports_worst_slacks():
    res = verification.suite_lemma5()
    assert res.passed
    assert [c.detail for c in res.checks] == [
        "16 runs, largest V/(pi V0) 0.707 exact, 0.707 data-based, "
        "non-finite pi V0 on 0 exact and 0 data-based records",
        "236 triggered feedback steps, smallest "
        "theta_databased/theta_exact 1.7e+05"]


def test_bound_ratio_skips_first_and_doubly_infinite_records():
    v = np.array([2.0, 1.0, np.inf, np.inf, 0.5])
    pi = np.array([1.0, 1.0, np.inf, 2.0, 0.25])
    # record 0 and the record where V and pi are both inf are left out, the
    # latter counted as a bound that is not finite; an infinite V under a
    # finite pi is the largest ratio
    assert verification._bound_ratio(v, pi) == (np.inf, 1)
    assert verification._bound_ratio(v[[0, 1, 2, 4]], pi[[0, 1, 2, 4]]) \
        == (1.0, 1)
    # an overflowed pi under a finite V is counted, not read as ratio 0, and
    # so is a finite pi whose bound pi V0 overflows
    v = np.array([2.0, 1.0, 3.0, 0.5])
    pi = np.array([1.0, 1.0, np.inf, 1e308])
    assert verification._bound_ratio(v, pi) == (1.0 / 2.0, 2)


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
    assert lemma3.checks[1].detail == \
        "1500 samples, 704 members, 0 disagreements"
    assert "30 bundles x 200 samples, 0 vacuous, 0 violations" in \
        property1.checks[0].detail
    assert lemma5.checks[1].detail.startswith("0 triggered feedback steps")


def _solver_suite_with(monkeypatch, name, mutate):
    """The solver suite, with maxdet.name's result r replaced by
    mutate(problem, r), after the canonical runs are cached, so that only
    the suite's own solves see the mutation."""
    verification.canonical_runs()
    solve = getattr(maxdet, name)
    monkeypatch.setattr(maxdet, name, lambda problem, opts=None: mutate(
        problem, solve(problem, opts)))
    return verification.suite_solver()


def test_constant_feasibility_fails_on_a_margin_blind_answer(monkeypatch):
    # a constant problem answered Feasible whatever its margin disagrees
    # with the eigenvalue rule, and fails that check alone
    res = _solver_suite_with(
        monkeypatch, "solve_feasibility",
        lambda problem, sol: dataclasses.replace(
            sol, status=maxdet.FEASIBLE) if problem.num_vars == 0 else sol)
    assert _failed(res) == ["constant-feasibility-exact"]
    assert res.checks[0].detail == "9/100"


def test_grid_oracle_fails_on_a_suboptimal_maximizer(monkeypatch):
    # a two-variable solve that reports the middle of its box as optimal
    # falls short of the grid oracle, and fails that check alone
    def middle(problem, sol):
        if problem.num_vars != 2:
            return sol
        ub = np.array([f.constant[0, 0] for f in problem.constraints[1:3]])
        return dataclasses.replace(sol, x=0.5 * ub)

    res = _solver_suite_with(monkeypatch, "solve_maxdet", middle)
    assert _failed(res) == ["maxdet-matches-grid-oracle"]
    assert res.checks[1].detail == "20 instances, worst gap 0.123"


def test_design_margins_fail_on_a_boundary_design(monkeypatch):
    # a design solution with varsigma = 0 sits on the boundary of its
    # bound block, and fails the margin check alone
    def boundary(problem, sol):
        if problem.num_vars == 2:
            return sol
        x = sol.x.copy()
        x[0] = 0.0
        return dataclasses.replace(sol, x=x)

    res = _solver_suite_with(monkeypatch, "solve_maxdet", boundary)
    assert _failed(res) == ["design-margins"]


def test_suites_print_the_pinned_lines():
    # tests/verify_lines/S.txt holds what `ltvadapt verify --suite S`
    # prints on the canonical runs; a change that moves a line updates
    # the file in the same commit
    moved = []
    for suite, run in verification.SUITES.items():
        path = os.path.join(os.path.dirname(__file__), "verify_lines",
                            suite + ".txt")
        with open(path) as fh:
            old = fh.read().splitlines()
        moved += ["%s: %r -> %r" % (suite, a, b) for a, b in
                  itertools.zip_longest(old, run().lines()) if a != b]
    assert not moved, "\n".join(moved)
