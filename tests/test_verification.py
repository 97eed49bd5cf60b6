import numpy as np

from ltvadapt import hybrid, plants, synthesis, verification
from test_synthesis import exploration_window


def test_property1_reports_negative_slack(monkeypatch):
    plant = plants.ConstantLti()
    b = synthesis.synthesize(exploration_window(plant))
    # a run records its initial design as its first episode
    traj = hybrid.Trajectory(
        episodes=[hybrid.Episode(k=b.window.kappa, new_bundle=b)],
        initial_bundle=b)
    monkeypatch.setattr(verification, "canonical_runs",
                        lambda: [("nominal", plant, None, traj)])
    res = verification.suite_property1(num_samples=50, rng_seed=3)
    rep = synthesis.verify_property(b, num_samples=50, rng_seed=3)
    assert res.passed
    assert not rep.vacuous and rep.max_relative_excess < 0.0
    assert res.checks[0].detail.endswith(
        "worst excess %.3g" % rep.max_relative_excess)


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
