import numpy as np
import pytest

from ltvadapt import cli, hybrid, linalg, plants, verification


def run_switching(mode="event", seed=53, horizon=100, **kw):
    cfg = hybrid.ScenarioConfig(mode=mode, horizon=horizon, seed=seed, **kw)
    return hybrid.run(plants.SwitchingPlant(), cfg)


@pytest.fixture(scope="module")
def event_run():
    """One switching-plant event run (seed 53) shared by the read-only
    tests."""
    return run_switching(seed=53)


def check_time_schedule(traj, n_p, t_width=4):
    """Time mode: the inputs of [0, T) and of [tick, tick + T) after each
    tick are exploration draws, and a design runs at T and at each
    tick + T within the run."""
    n = len(traj.records) - 1  # the last record has no input
    ticks = range(t_width + n_p, n, n_p)
    explored = set(range(t_width)).union(
        *(range(tk, min(tk + t_width, n)) for tk in ticks))
    assert [r.k for r in traj.records if r.explore] == sorted(explored)
    designs = [r.k for r in traj.records if r.synth_feasible is not None]
    assert designs == [t_width] + [tk + t_width for tk in ticks
                                   if tk + t_width < n]


def check_timeline(traj):
    """The records are the one timeline: j counts the jumps (tau = 0) so
    far, no record before the first certificate carries a bundle, and from
    there the bundle changes exactly at the jumps."""
    recs = traj.records
    jumps = 0
    for r in recs:
        jumps += r.tau == 0
        assert r.j == jumps
    start = traj.monitor_start
    assert all(r.bundle is None for r in recs[:start])
    for prev, r in zip(recs[start:], recs[start + 1:]):
        assert (r.bundle is not prev.bundle) == (r.tau == 0)


# episode instants of the canonical runs, as the run recorded them when
# it kept its episode list alongside the records
CANONICAL_EPISODES = {
    "switching-event": [4, 15, 16],
    "switching-fixed-mild": [4],
    "switching-fixed-strong": [4],
    "sinusoidal-p10": [4],
    "sinusoidal-p20": [4],
    "sinusoidal-p40": [4],
    "vanishing": [4],
    "time-np8-s0": [4, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96],
    "time-np8-s1": [4, 16, 24, 32, 40, 48, 56, 64, 72, 80],
    "time-np8-s2": [4, 16, 24, 32, 40, 48, 56, 64, 72],
    "time-np12-s0": [4, 20, 32, 44, 56, 68, 80, 92],
    "time-np12-s1": [4, 20, 32, 44, 56, 68, 80, 92],
    "time-np12-s2": [4, 20, 32, 44, 56, 68, 80, 92],
    "time-np16-s0": [4, 24, 40, 56],
    "time-np16-s1": [4, 24, 40, 56],
    "time-np16-s2": [4, 24, 56, 72, 88],
}


def test_canonical_timeline_is_read_from_the_records():
    runs = verification.canonical_runs()
    assert [name for name, _, _, _ in runs] == list(CANONICAL_EPISODES)
    for name, _, _, traj in runs:
        check_timeline(traj)
        # every canonical forced design at k = T = 4 is adopted
        assert [e.k for e in traj.episodes] == CANONICAL_EPISODES[name]
        assert traj.monitor_start == 4
        assert traj.initial_bundle is traj.episodes[0].new_bundle
        assert all(e.new_bundle is traj.records[e.k].bundle
                   for e in traj.episodes)


def test_sigma_rule():
    assert abs(hybrid.sigma(0.8, 0.1) - 0.98) < 1e-15
    assert hybrid.sigma(1.0, 0.1) == 1.0
    assert abs(hybrid.sigma(0.0, c_sigma=1.0)) < 1e-15
    with pytest.raises(linalg.InvalidInput):
        hybrid.sigma(1.2, 0.1)
    # c_sigma is the run's and has no default
    with pytest.raises(TypeError):
        hybrid.sigma(0.8)
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
    # every count setting is a whole number, checked when the config is
    # made: 10.5 and 8.5 used to run as 11 steps and as designs at k = 4
    # and 25, and 3.5 and 1.5 failed inside numpy; horizon = True ran one
    # step, and 10**400 raised OverflowError
    for bad in ({"horizon": 10.5}, {"mode": "time", "n_p": 8.5},
                {"T": 3.5}, {"seed": 1.5}, {"T": 0}, {"horizon": 0},
                {"seed": float("nan")}, {"horizon": True}, {"seed": False},
                {"horizon": 10**400}):
        # the message names the setting, the last key
        with pytest.raises(linalg.InvalidInput, match=list(bad)[-1]):
            hybrid.ScenarioConfig(**bad)
    assert hybrid.ScenarioConfig(c_sigma=1.0, x0=np.ones(2)).validate(
        plant) == 4
    assert hybrid.ScenarioConfig().validate(plant) == 4
    # a whole float is its int and runs exactly as the int does
    cfg = hybrid.ScenarioConfig(mode="time", T=4.0, horizon=20.0, seed=3.0,
                                n_p=8.0)
    assert [type(v) for v in (cfg.T, cfg.horizon, cfg.seed, cfg.n_p)] == \
        [int] * 4
    runs = [run_switching(mode="time", T=t, horizon=h, seed=s, n_p=n)
            for t, h, s, n in ((4.0, 20.0, 3.0, 8.0), (4, 20, 3, 8))]
    assert [_record_bytes(r) for r in runs[0].records] == \
        [_record_bytes(r) for r in runs[1].records]
    assert sum(r.synth_feasible is not None for r in runs[1].records) == 2


def _record_bytes(r):
    """A record's fields, with each array as its bytes."""
    return (r.k, r.j, r.x.tobytes(), None if r.u is None else r.u.tobytes(),
            r.V, r.sigma_a1, r.explore, r.synth_feasible, r.tau,
            None if r.bundle is None else r.bundle.K.tobytes())


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


def test_event_mode_converges_and_triggers_after_switch(event_run):
    traj = event_run
    n = traj.state_norms()
    assert traj.status == hybrid.COMPLETED
    assert n[80:].max() <= 1e-2 * n.max()
    # first plant switch happens at k = 13
    assert any(13 <= e.k <= 16 for e in traj.episodes)


def test_fixed_mode_never_triggers():
    traj = run_switching(mode="fixed", seed=1)
    assert [r.k for r in traj.records if r.explore] == [0, 1, 2, 3]
    assert [r.k for r in traj.records
            if r.synth_feasible is not None] == [4]
    assert len(traj.episodes) == 1  # only the forced initial design


def test_fixed_mode_divergence_flag():
    cfg = hybrid.ScenarioConfig(mode="fixed", horizon=100, seed=1)
    traj = hybrid.run(plants.SwitchingPlant(ell=2.5), cfg)
    assert traj.status == hybrid.DIVERGED
    # halts before the horizon
    assert traj.records[-1].k < 100
    assert float(np.linalg.norm(traj.records[-1].x)) > hybrid.DIVERGENCE_NORM


def test_time_mode_triggers_on_schedule():
    traj = run_switching(mode="time", seed=0, n_p=12)
    check_time_schedule(traj, 12)


def test_canonical_time_runs_explore_before_each_design():
    # n_p = 8 leaves 4 feedback steps between the explorations
    seen = set()
    for _, _, cfg, traj in verification.canonical_runs():
        if cfg.mode == hybrid.TIME_TRIGGERED:
            check_time_schedule(traj, cfg.n_p)
            seen.add(cfg.n_p)
    assert seen == {8, 12, 16}


def test_explore_marks_the_inputs_that_are_not_feedback():
    # the flag agrees with a closeness test of u against K x of the
    # bundle in force; before the first design every input is a draw
    for name, _, _, traj in verification.canonical_runs():
        for r in traj.records[:-1]:
            feedback = r.bundle is not None and np.isclose(
                r.u, r.bundle.K @ r.x, rtol=1e-9, atol=1e-12).all()
            assert r.explore is not feedback, (name, r.k)
        assert traj.records[-1].u is None and not traj.records[-1].explore


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
    # the explorations run without a break from the first tick on
    check_time_schedule(traj, n_p)
    assert [r.k for r in traj.records if r.explore] == \
        [0, 1, 2, 3] + list(range(8, 30))
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


def test_recorded_V_is_the_form_of_the_records_bundle(event_run):
    # the decrease test and the record share one V per step; at a jump it
    # is the adopted bundle's, not the one the design replaced
    traj = event_run
    assert [e.k for e in traj.episodes] == [4, 15, 16]
    certified = [r for r in traj.records if r.bundle is not None]
    assert len(certified) == len(traj.records) - traj.monitor_start
    for r in certified:
        assert r.V == float(r.x @ r.bundle.S @ r.x)
    for e in traj.episodes[1:]:
        prev, rec = traj.records[e.k - 1], traj.records[e.k]
        assert rec.V != float(rec.x @ prev.bundle.S @ rec.x)


def test_divergence_while_exploring():
    cfg = hybrid.ScenarioConfig(mode="event", horizon=100, seed=0)
    traj = hybrid.run(plants.ConstantLti(a=1e4 * np.eye(2)), cfg)
    assert traj.status == hybrid.DIVERGED
    assert traj.records[-1].k < 4  # before the forced design at k = T
    assert all(r.V is None and r.bundle is None for r in traj.records)
    assert traj.episodes == [] and traj.initial_bundle is None
    assert traj.monitor_start == len(traj.records)
    check_timeline(traj)


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
    assert rec.bundle is traj.initial_bundle
    check_timeline(traj)


def test_determinism(event_run):
    t1 = event_run
    t2 = run_switching(seed=53)
    assert np.array_equal(t1.state_norms(), t2.state_norms())
    assert [e.k for e in t1.episodes] == [e.k for e in t2.episodes]


def test_trajectory_csv(tmp_path, event_run):
    traj = event_run
    path = tmp_path / "traj.csv"
    cli.write_trajectory_csv(traj, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("k,j,x_1,x_2,u_1,u_2,V,sigma_a1,a1,explore,"
                        "synth_feasible")
    assert len(lines) == len(traj.records) + 1
