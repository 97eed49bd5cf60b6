import numpy as np
import pytest

from ltvadapt import hybrid, linalg, plants


def run_switching(mode="event", seed=53, horizon=100, **kw):
    cfg = hybrid.ScenarioConfig(mode=mode, horizon=horizon, seed=seed, **kw)
    return hybrid.run(plants.SwitchingPlant(), cfg)


@pytest.fixture(scope="module")
def event_run():
    """One switching-plant event run (seed 53) shared by the read-only
    tests."""
    return run_switching(seed=53)


def test_sigma_rule():
    assert abs(hybrid.sigma(0.8) - 0.98) < 1e-15
    assert hybrid.sigma(1.0) == 1.0
    assert abs(hybrid.sigma(0.0, c_sigma=1.0)) < 1e-15
    with pytest.raises(linalg.InvalidInput):
        hybrid.sigma(1.2)
    with pytest.raises(linalg.InvalidInput):
        hybrid.sigma(0.5, c_sigma=0.0)


def test_config_validation():
    plant = plants.ConstantLti()
    with pytest.raises(linalg.InvalidInput):
        hybrid.ScenarioConfig(horizon=2, T=4).validate(plant)
    # the forced design at k = T needs a step of its own
    with pytest.raises(linalg.InvalidInput):
        hybrid.ScenarioConfig(horizon=4, T=4).validate(plant)
    with pytest.raises(linalg.InvalidInput):
        hybrid.ScenarioConfig(eps_F=1.5).validate(plant)
    with pytest.raises(linalg.InvalidInput):
        hybrid.ScenarioConfig(mode="time", n_p=0).validate(plant)
    # values that would otherwise fail only once the run is under way
    for bad in ({"x0": np.ones(3)}, {"x0": np.array([1.0, np.nan])},
                {"c_sigma": 0.0}, {"c_sigma": 1.5}, {"seed": -1}):
        with pytest.raises(linalg.InvalidInput):
            hybrid.ScenarioConfig(**bad).validate(plant)
    assert hybrid.ScenarioConfig(c_sigma=1.0, x0=np.ones(2)).validate(
        plant) == 4
    assert hybrid.ScenarioConfig().validate(plant) == 4


def test_exploration_protocol(event_run):
    # the first T inputs come straight from the seeded generator
    traj = event_run
    rng = np.random.default_rng(53)
    for r in traj.records[:4]:
        assert np.array_equal(r.u, rng.uniform(-1.0, 1.0, 2))
    # first synthesis exactly at k = T
    assert traj.episodes[0].k == 4
    assert traj.monitor_start == 4


def test_records_one_per_step(event_run):
    traj = event_run
    ks = [r.k for r in traj.records]
    assert ks == list(range(len(ks)))


def test_toggle_zero_exactly_after_episodes(event_run):
    traj = event_run
    episode_ks = {e.k for e in traj.episodes}
    for r in traj.records:
        assert (r.tau == 0) == (r.k in episode_ks)


def test_event_mode_converges_and_triggers_after_switch(event_run):
    traj = event_run
    n = traj.state_norms()
    assert traj.status == hybrid.COMPLETED
    assert n[80:].max() <= 1e-2 * n.max()
    # first plant switch happens at k = 13
    assert any(13 <= e.k <= 16 for e in traj.episodes)


def test_fixed_mode_never_triggers():
    traj = run_switching(mode="fixed", seed=1)
    assert all(not r.trigger for r in traj.records)
    assert traj.num_episodes == 1  # only the forced initial design


def test_fixed_mode_divergence_flag():
    cfg = hybrid.ScenarioConfig(mode="fixed", horizon=100, seed=1)
    traj = hybrid.run(plants.SwitchingPlant(ell=2.5), cfg)
    assert traj.status == hybrid.DIVERGED
    # halts before the horizon
    assert traj.records[-1].k < 100
    assert float(np.linalg.norm(traj.records[-1].x)) > hybrid.DIVERGENCE_NORM


def test_time_mode_triggers_on_schedule():
    traj = run_switching(mode="time", seed=0, n_p=12)
    trigger_ks = [r.k for r in traj.records if r.trigger]
    assert trigger_ks == [k for k in range(4, 100) if (k - 4) % 12 == 0]


@pytest.mark.parametrize("n_p", [2, 4])
def test_time_mode_period_at_most_T(n_p):
    # ticks re-excite the plant for T = 4 steps; with n_p < T the next tick
    # would come first and no scheduled design would ever run, so such a
    # period is rejected; with n_p == T each design runs on the tick after
    # its own
    if n_p < 4:
        with pytest.raises(linalg.InvalidInput,
                           match=r"n_p \(2\) must be at least T \(4\)"):
            run_switching(mode="time", seed=1, n_p=n_p, horizon=30)
        return
    traj = run_switching(mode="time", seed=1, n_p=n_p, horizon=30)
    ticks = list(range(4 + n_p, 30, n_p))
    assert [r.k for r in traj.records if r.trigger] == [4] + ticks
    designs = [r.k for r in traj.records if r.synth_feasible is not None]
    assert designs == [4] + [t + 4 for t in ticks if t + 4 < 30]
    rng = np.random.default_rng(1)
    for r in traj.records[:-1]:
        if r.k < 4 or r.k >= 4 + n_p:
            assert np.array_equal(r.u, rng.uniform(-1.0, 1.0, 2))
        else:
            assert np.array_equal(r.u, traj.initial_bundle.K @ r.x)


def test_time_mode_adopts_after_excitation():
    traj = run_switching(mode="time", seed=0, n_p=12)
    # a jump following a scheduled trigger happens T steps later
    for e in traj.episodes[1:]:
        assert (e.k - 4 - 4) % 12 == 0


def test_jump_preserves_state(event_run):
    traj = event_run
    for e in traj.episodes[1:]:
        rec = next(r for r in traj.records if r.k == e.k)
        prev = next(r for r in traj.records if r.k == e.k - 1)
        a_mat, b_mat = plants.SwitchingPlant().eval(prev.k)
        assert np.allclose(rec.x, a_mat @ prev.x + b_mat @ prev.u)


def test_divergence_while_exploring():
    cfg = hybrid.ScenarioConfig(mode="event", horizon=100, seed=0)
    traj = hybrid.run(plants.ConstantLti(a=1e4 * np.eye(2)), cfg)
    assert traj.status == hybrid.DIVERGED
    assert traj.records[-1].k < 4  # before the forced design at k = T
    assert all(r.V is None and r.a1 is None for r in traj.records)
    assert traj.episodes == [] and traj.initial_bundle is None
    assert traj.monitor_start == len(traj.records)


@pytest.mark.parametrize("mode", ["event", "time", "fixed"])
def test_overflowing_step_ends_diverged(mode):
    # the first step overflows to inf: the run ends Diverged, the
    # non-finite state is recorded, and no window sample is rejected
    plant = plants.ConstantLti(a=1e300 * np.eye(2), b=np.eye(2))
    cfg = hybrid.ScenarioConfig(mode=mode, horizon=40, seed=0,
                                x0=np.array([1e10, 1e10]))
    traj = hybrid.run(plant, cfg)
    assert traj.status == hybrid.DIVERGED
    assert not np.all(np.isfinite(traj.records[-1].x))
    assert traj.records[-1].V is None


@pytest.mark.parametrize("mode", ["event", "time", "fixed"])
def test_infeasible_forced_design_falls_back(mode):
    # B = 0: no gain can stabilize the unstable nominal A
    plant = plants.ConstantLti(b=np.zeros((2, 2)))
    cfg = hybrid.ScenarioConfig(mode=mode, horizon=8, seed=3, n_p=4)
    traj = hybrid.run(plant, cfg)
    assert traj.initial_bundle.solver_status == "Fallback"
    assert not np.any(traj.initial_bundle.K)
    assert traj.episodes == [] and traj.monitor_start == 4
    assert all(r.j == 0 for r in traj.records)
    rec = traj.records[4]
    assert rec.k == 4 and rec.synth_feasible is False and rec.tau == 1
    assert rec.a1 == traj.initial_bundle.a1


def test_determinism(event_run):
    t1 = event_run
    t2 = run_switching(seed=53)
    assert np.array_equal(t1.state_norms(), t2.state_norms())
    assert [e.k for e in t1.episodes] == [e.k for e in t2.episodes]


def test_trajectory_csv(tmp_path, event_run):
    traj = event_run
    path = tmp_path / "traj.csv"
    hybrid.write_trajectory_csv(traj, str(path), 2, 2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("k,j,x_1,x_2,u_1,u_2,V,sigma_a1,a1,trigger,"
                        "synth_feasible,kappa")
    assert len(lines) == len(traj.records) + 1
