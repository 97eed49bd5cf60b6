import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvadapt import linalg, proximity, verification
from ltvadapt.window import DataWindow


def hand_window():
    return DataWindow(kappa=2,
                      Xhat=np.array([[1.0, 0.5]]),
                      X=np.array([[0.5, 0.25]]),
                      U=np.array([[0.0, 0.0]]))


def test_hand_ellipsoid_params():
    par = proximity.ellipsoid_params(hand_window(), np.array([[0.01]]))
    assert np.allclose(par.M, [[1.25, 0.0], [0.0, 0.0]], atol=1e-14)
    assert np.allclose(par.Zc, [[0.5], [0.0]], atol=1e-14)
    # XZ'M+ZX' = 0.3125 cancels XX', leaving Delta = F
    assert np.allclose(par.Delta, [[0.01]], atol=1e-14)


def test_hand_min_inflation():
    # residual of the pair (0.3, 0) has squared norm 0.05, so the bound
    # 0.01 needs inflating by 0.04 in the unit metric
    eps = proximity.min_inflation(hand_window(), np.array([[0.01]]),
                                  np.array([[1.0]]), np.array([[0.3]]),
                                  np.array([[0.0]]))
    assert abs(eps - 0.04) <= 1e-12


def test_nonempty_and_bounded_flags():
    par = proximity.ellipsoid_params(hand_window(), np.array([[0.01]]))
    assert proximity.is_nonempty(par)


def test_dtilde_zero_for_generating_pair():
    w = hand_window()
    # X = 0.5 Xhat exactly, so (0.5, anything with zero input) fits
    d = proximity.dtilde(w, np.array([[0.5]]), np.array([[7.0]]))
    assert np.max(np.abs(d)) <= 1e-15


def test_contains_direct():
    w = hand_window()
    F = np.array([[0.01]])
    assert proximity.contains(w, F, [[0.5]], [[0.0]])
    assert not proximity.contains(w, F, [[0.3]], [[0.0]])


def test_center_is_member():
    par = proximity.ellipsoid_params(hand_window(), np.array([[0.01]]))
    assert proximity.contains_ellipsoid(par, par.Zc)


def test_inflated_loosens_bound():
    w = hand_window()
    F = np.array([[0.01]])
    S = np.array([[1.0]])
    assert not proximity.contains(w, F, [[0.3]], [[0.0]])
    assert proximity.contains(w, proximity.inflated(F, S, 0.04 + 1e-12),
                              [[0.3]], [[0.0]])
    # deflating below the minimal inflation loses the pair
    assert not proximity.contains(w, proximity.inflated(F, S, 0.02),
                                  [[0.3]], [[0.0]])


def _random_full_rank_window(rng, nx=2, nu=1, width=4):
    w = DataWindow.empty(nx, nu, width)
    a = rng.standard_normal((nx, nx)) * 0.4
    b = rng.standard_normal((nx, nu))
    x = rng.standard_normal(nx)
    for _ in range(width):
        u = rng.uniform(-1, 1, nu)
        xn = a @ x + b @ u + 0.01 * rng.standard_normal(nx)
        w = w.push(x, u, xn)
        x = xn
    return w


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_direct_and_ellipsoid_tests_agree(seed):
    rng = np.random.default_rng(seed)
    w = _random_full_rank_window(rng)
    F = 0.05 * np.eye(w.nx)
    par = proximity.ellipsoid_params(w, F)
    for _ in range(40):
        zh = rng.standard_normal((w.nx + w.nu, w.nx))
        if proximity.is_nonempty(par) and rng.uniform() < 0.5:
            zh = proximity.sample_members(par, 1, rng)[0] \
                + 0.02 * rng.standard_normal(zh.shape)
        ma = zh[:w.nx, :].T
        mb = zh[w.nx:, :].T
        assert proximity.contains(w, F, ma, mb) == \
            proximity.contains_ellipsoid(par, zh)


def test_delta_is_exact_at_full_column_rank():
    # a square regressor of full rank leaves ker Z = {0}, so Delta is F bit
    # for bit, even with |X|^2 about 1e4 against a bound of 1e-8; a wide
    # one matches F - X (I - Z^+ Z) X^T and Zc = (Z^+)^T X^T
    rng = np.random.default_rng(3)
    for width in (4, 4, 7):
        w = _random_full_rank_window(rng, nx=3, nu=1, width=width)
        w = DataWindow(kappa=w.kappa, Xhat=100.0 * w.Xhat, X=100.0 * w.X,
                       U=w.U)
        F = proximity.inflated(1e-8 * np.eye(3), np.eye(3),
                               np.array([0.0, 1e-9]))
        par = proximity.ellipsoid_params(w, F)
        z = w.z_matrix()
        z_pinv = np.linalg.pinv(z)
        assert np.allclose(par.Zc, z_pinv.T @ w.X.T, rtol=1e-9, atol=1e-12)
        if width == 4:
            assert par.Delta.tobytes() == F.tobytes()
        else:
            ref = F - w.X @ (np.eye(width) - z_pinv @ z) @ w.X.T
            assert np.allclose(par.Delta, ref, rtol=1e-9,
                               atol=1e-9 * np.max(np.abs(ref)))


def test_sampled_members_are_members():
    rng = np.random.default_rng(5)
    w = _random_full_rank_window(rng)
    F = 0.05 * np.eye(w.nx)
    par = proximity.ellipsoid_params(w, F)
    zh = proximity.sample_members(par, 100, rng)
    for z in zh:
        assert proximity.contains_ellipsoid(par, z)
    # a stack of candidates on both sides of the boundary gives, on this
    # set and on an empty one, the per-candidate results bit for bit
    zh = np.concatenate([zh, par.Zc + 1.1 * (zh - par.Zc),
                         rng.standard_normal(zh.shape)])
    empty = proximity.ellipsoid_params(w, 1e-12 * np.eye(w.nx))
    assert not proximity.is_nonempty(empty)
    for p, n_in in ((par, range(101, 300)), (empty, [0])):
        quad = proximity.membership_quadratic(p, zh)
        assert quad.shape == (300, w.nx, w.nx)
        assert quad.tobytes() == np.array(
            [proximity.membership_quadratic(p, z) for z in zh]).tobytes()
        flags = proximity.contains_ellipsoid(p, zh)
        assert flags.tolist() == \
            [proximity.contains_ellipsoid(p, z) for z in zh]
        assert flags.sum() in n_in


def test_membership_quadratic_center():
    par = proximity.ellipsoid_params(hand_window(), np.array([[0.01]]))
    gap = proximity.membership_quadratic(par, par.Zc)
    assert np.allclose(gap, par.Delta)


def _sample_members_loop(par, num_samples, rng):
    # per-sample reference: all normal blocks, then all radius uniforms,
    # then one member at a time
    w_m, v_m = np.linalg.eigh(par.M)
    tol_m = max(par.M.shape) * np.finfo(float).eps * max(w_m[-1], 0.0)
    w_m = np.clip(w_m, 0.0, None)
    m_pinv_sqrt = (v_m * np.where(w_m > tol_m, 1.0 / np.sqrt(
        np.maximum(w_m, 1e-300)), 0.0)) @ v_m.T
    w_d, v_d = np.linalg.eigh(par.Delta)
    d_sqrt = (v_d * np.sqrt(np.clip(w_d, 0.0, None))) @ v_d.T
    gs = [rng.standard_normal(par.Zc.shape) for _ in range(num_samples)]
    us = [rng.uniform() for _ in range(num_samples)]
    out = []
    for g, u in zip(gs, us):
        s = np.linalg.norm(g, 2)
        v = g if s == 0.0 else (u ** 0.25 / s) * g
        out.append(par.Zc + m_pinv_sqrt @ v @ d_sqrt)
    return np.array(out)


def test_sample_members_matches_per_sample_loop():
    rng = np.random.default_rng(8)
    w = _random_full_rank_window(rng, nx=3, nu=2, width=6)
    # a rank-deficient regressor as well: directions pinned to the center
    w_def = DataWindow(kappa=2, Xhat=np.array([[1.0, 0.5]]),
                       X=np.array([[0.5, 0.25]]), U=np.array([[0.0, 0.0]]))
    for win in (w, w_def):
        par = proximity.ellipsoid_params(win, 0.05 * np.eye(win.nx))
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        got = proximity.sample_members(par, 64, rng_a)
        want = _sample_members_loop(par, 64, rng_b)
        assert got.shape == (64,) + par.Zc.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-13)
        # both consumed the same draws
        assert rng_a.uniform() == rng_b.uniform()
    assert proximity.sample_members(par, 0, rng).shape == (0,) + \
        par.Zc.shape


def test_stacked_min_inflation_equals_single_calls():
    # on the hand window (0.5, 0) generates the data and clamps to 0, and
    # (0.3, 0) needs the hand value 0.04; then random windows and pairs
    def check(w, F, S, pairs):
        stacked = proximity.min_inflation(w, F, S,
                                          np.array([p[0] for p in pairs]),
                                          np.array([p[1] for p in pairs]))
        singles = [proximity.min_inflation(w, F, S, a, b) for a, b in pairs]
        assert all(type(e) is float for e in singles)
        assert stacked.shape == (len(pairs),)
        assert [e.hex() for e in stacked.tolist()] == \
            [e.hex() for e in singles]
        return singles

    pairs = [(np.array([[x]]), np.array([[0.0]])) for x in (0.3, 0.5, 0.7)]
    eps = check(hand_window(), np.array([[0.01]]), np.array([[1.0]]), pairs)
    assert abs(eps[0] - 0.04) <= 1e-12 and eps[1] == 0.0 and eps[2] > 0.0
    rng = np.random.default_rng(11)
    for _ in range(5):
        w = _random_full_rank_window(rng, nx=3, nu=2, width=6)
        s = rng.standard_normal((3, 3))
        pairs = [(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
                 for _ in range(12)]
        check(w, 0.05 * np.eye(3), s @ s.T + np.eye(3), pairs)


def _check_stacked_levels(w, F, S, eps, num_samples, seed):
    """Stacked inflated, ellipsoid_params, is_nonempty and sample_members
    against one call per level, bit for bit and draw for draw; returns the
    per-level non-empty flags."""
    f_stack = proximity.inflated(F, S, np.array(eps))
    par = proximity.ellipsoid_params(w, f_stack)
    flags = proximity.is_nonempty(par)
    singles = []
    for e, f_l, d_l in zip(eps, f_stack, par.Delta):
        f_one = proximity.inflated(F, S, e)
        one = proximity.ellipsoid_params(w, f_one)
        assert f_one.shape == F.shape
        assert f_l.tobytes() == f_one.tobytes()
        for name in ("M", "Zc"):
            assert getattr(par, name).tobytes() == \
                getattr(one, name).tobytes()
        assert d_l.tobytes() == one.Delta.tobytes()
        singles.append(one)
    flags_one = [proximity.is_nonempty(one) for one in singles]
    assert all(type(f) is bool for f in flags_one)
    assert flags.tolist() == flags_one
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    got = proximity.sample_members(
        dataclasses.replace(par, Delta=par.Delta[flags]), num_samples, rng_a)
    want = [proximity.sample_members(one, num_samples, rng_b)
            for one, f in zip(singles, flags_one) if f]
    assert got.shape == (len(want) * num_samples,) + par.Zc.shape
    assert got.tobytes() == np.concatenate(want).tobytes()
    # both consumed the same draws
    assert rng_a.uniform() == rng_b.uniform()
    return flags.tolist()


def test_stacked_levels_equal_per_level_calls():
    # switching-event k=15 is vacuous at its own inflations and has a
    # rank-deficient regressor; a large added eps makes its set non-empty
    runs = {name: traj for name, _, _, traj in verification.canonical_runs()}
    b = next(e.new_bundle for e in runs["switching-event"].episodes
             if e.k == 15)
    flags = _check_stacked_levels(b.window, b.F, b.S,
                                  [0.0, b.a / (2.0 * b.a2), 0.1, 2.0, 10.0],
                                  50, 3)
    assert flags == [False, False, False, True, True]
    rng = np.random.default_rng(12)
    for _ in range(3):
        w = _random_full_rank_window(rng, nx=3, nu=2, width=6)
        s = rng.standard_normal((3, 3))
        flags = _check_stacked_levels(w, 0.05 * np.eye(3),
                                      s @ s.T + np.eye(3),
                                      [0.0, 0.01, 0.5], 30, 5)
        assert all(flags)


def test_stacked_contains_equals_single_calls():
    def check(w, F, pairs):
        stacked = proximity.contains(w, F, np.array([p[0] for p in pairs]),
                                     np.array([p[1] for p in pairs]))
        singles = [proximity.contains(w, F, a, b) for a, b in pairs]
        assert all(type(f) is bool for f in singles)
        assert stacked.tolist() == singles
        return singles

    pairs = [(np.array([[x]]), np.array([[0.0]])) for x in (0.3, 0.5, 0.55)]
    assert check(hand_window(), np.array([[0.01]]), pairs) == \
        [False, True, True]
    rng = np.random.default_rng(13)
    n_in = n_out = 0
    for _ in range(5):
        w = _random_full_rank_window(rng, nx=3, nu=2, width=6)
        par = proximity.ellipsoid_params(w, 0.05 * np.eye(3))
        zh = proximity.sample_members(par, 8, rng)
        zh = np.concatenate([zh, zh + 0.05 * rng.standard_normal(zh.shape)])
        flags = check(w, 0.05 * np.eye(3),
                      [(z[:3].T, z[3:].T) for z in zh])
        n_in += sum(flags)
        n_out += len(flags) - sum(flags)
    assert n_in and n_out


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 300),
       st.integers(0, 10 ** 6), st.sampled_from([1e-150, 1e-8, 1.0, 1e8]))
def test_contiguous_gram_stack_is_the_strided_one(rows, cols, num, seed,
                                                  scale):
    # sample_members multiplies a contiguous copy of the transposed draws;
    # the Gram stack, and its eigenvalues from linalg's gufunc call, are
    # those of the strided view under numpy.linalg bit for bit (2 x 2 at
    # the canonical shapes, nx = 2 and nx + nu = 4)
    g = scale * np.random.default_rng(seed).standard_normal((num, rows, cols))
    gt = np.swapaxes(g, 1, 2)
    strided = g @ gt if rows <= cols else gt @ g
    gt = np.ascontiguousarray(gt)
    contiguous = g @ gt if rows <= cols else gt @ g
    assert contiguous.tobytes() == strided.tobytes()
    assert linalg.eigvalsh(contiguous).tobytes() == \
        np.linalg.eigvalsh(strided).tobytes()
