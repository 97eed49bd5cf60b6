import csv

import numpy as np
import pytest

from ltvadapt import hybrid, linalg, maxdet, plants, synthesis, verification
from test_synthesis import exploration_window


def one_var_det_problem():
    # det block diag(2x, 3 - x) over 0 < x < 3; the log-determinant
    # ln(2x) + ln(3 - x) peaks at x = 1.5 with det 4.5
    det = maxdet.AffineMatFn(
        np.diag([0.0, 3.0]),
        np.array([[[2.0, 0.0], [0.0, -1.0]]]),
    )
    cap = maxdet.AffineMatFn(np.array([[3.0]]), np.array([[[-1.0]]]))
    bound = maxdet.AffineMatFn(np.array([[0.0]]), np.array([[[1.0]]]))
    return maxdet.SdpProblem(num_vars=1, constraints=[det, cap, bound],
                             det_block=0)


def test_affine_mat_fn_symmetrizes():
    f = maxdet.AffineMatFn(np.array([[0.0, 2.0], [0.0, 0.0]]),
                           np.zeros((0, 2, 2)))
    assert np.allclose(f.constant, [[0.0, 1.0], [1.0, 0.0]])


def test_check_point_margins():
    p = one_var_det_problem()
    margins = maxdet.check_point(p, np.array([1.0]))
    # blocks: det diag(2,2) -> 2, cap [2] -> 2, bound [x-0] -> 1
    assert np.allclose(sorted(margins), [1.0, 2.0, 2.0])


@pytest.mark.parametrize("key,value", [
    ("strict_margin", 0.0), ("strict_margin", -1e-6), ("strict_margin", 1.0),
    ("strict_margin", float("nan")), ("max_newton", 0), ("max_newton", -5),
])
def test_solver_options_reject_invalid_values(key, value):
    with pytest.raises(linalg.InvalidInput, match=key):
        maxdet.SolverOptions(**{key: value})


def test_solver_options_accept_edge_values():
    opts = maxdet.SolverOptions(strict_margin=0.5, max_newton=1)
    assert (opts.strict_margin, opts.max_newton) == (0.5, 1)


def test_constant_feasibility_exact_rule():
    opts = maxdet.SolverOptions()
    good = maxdet.AffineMatFn(np.eye(2), np.zeros((0, 2, 2)))
    bad = maxdet.AffineMatFn(np.diag([1.0, opts.strict_margin / 4]),
                             np.zeros((0, 2, 2)))
    assert maxdet.solve_feasibility(
        maxdet.SdpProblem(0, [good])).status == maxdet.FEASIBLE
    assert maxdet.solve_feasibility(
        maxdet.SdpProblem(0, [bad])).status == maxdet.INFEASIBLE


def test_feasibility_finds_interior_point():
    p = one_var_det_problem()
    sol = maxdet.solve_feasibility(p)
    assert sol.status == maxdet.FEASIBLE
    assert float(np.min(maxdet.check_point(p, sol.x))) >= \
        maxdet.SolverOptions().strict_margin


def test_feasibility_detects_empty_interior():
    # x > 0 and x < 0 simultaneously
    lo = maxdet.AffineMatFn(np.array([[0.0]]), np.array([[[1.0]]]))
    hi = maxdet.AffineMatFn(np.array([[0.0]]), np.array([[[-1.0]]]))
    p = maxdet.SdpProblem(1, [lo, hi])
    assert maxdet.solve_feasibility(p).status == maxdet.INFEASIBLE


def test_maxdet_one_var_closed_form():
    problem = one_var_det_problem()
    sol = maxdet.solve_maxdet(problem)
    assert sol.status == maxdet.OPTIMAL
    assert abs(sol.x[0] - 1.5) < 1e-3
    sign, logdet = np.linalg.slogdet(
        problem.constraints[problem.det_block](sol.x))
    assert sign > 0 and abs(np.exp(logdet) - 4.5) < 1e-3
    assert sol.kkt_residual <= 1e-7


def test_maxdet_two_var_closed_form():
    # diag(x1, x2, 4 - x1 - x2): product maximized at x1 = x2 = 4/3
    det = maxdet.AffineMatFn(
        np.diag([0.0, 0.0, 4.0]),
        np.array([
            [[1.0, 0, 0], [0, 0, 0], [0, 0, -1.0]],
            [[0.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]],
        ]),
    )
    bounds = [maxdet.AffineMatFn(np.array([[0.0]]), e[:, None, None])
              for e in np.eye(2)]
    p = maxdet.SdpProblem(2, [det] + bounds, det_block=0)
    sol = maxdet.solve_maxdet(p, maxdet.SolverOptions())
    assert sol.status == maxdet.OPTIMAL
    assert np.allclose(sol.x, [4.0 / 3.0, 4.0 / 3.0], atol=1e-3)


def test_maxdet_margins_respect_floor():
    sol = maxdet.solve_maxdet(one_var_det_problem())
    sm = maxdet.SolverOptions().strict_margin
    assert float(np.min(sol.min_margins)) >= sm / 2


def test_maxdet_requires_det_block():
    p = one_var_det_problem()
    p.det_block = None
    with pytest.raises(linalg.InvalidInput):
        maxdet.solve_maxdet(p)


def test_solver_trace(tmp_path):
    path = tmp_path / "trace.csv"
    opts = maxdet.SolverOptions(trace_path=str(path))
    # phase I takes steps from x = 0, where the bound x > 0 has no margin
    maxdet.solve_maxdet(one_var_det_problem(), opts)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    phases = [r["phase"] for r in rows]
    assert "I" in phases and "II" in phases
    assert phases == sorted(phases)
    iterations = [int(r["iteration"]) for r in rows]
    assert iterations == sorted(iterations)
    assert all(r["logdet"] == "" for r in rows if r["phase"] == "I")
    assert all(r["logdet"] != "" for r in rows if r["phase"] == "II")


def test_solver_trace_keeps_every_solve(tmp_path):
    # a closed loop solves once per design into one trace file: each solve
    # appends its rows after the one header row
    def trace_rows(path, solves):
        opts = maxdet.SolverOptions(trace_path=str(path))
        for _ in range(solves):
            maxdet.solve_maxdet(one_var_det_problem(), opts)
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    one = trace_rows(tmp_path / "one.csv", 1)
    two = trace_rows(tmp_path / "two.csv", 2)
    assert one[0] == ["phase", "iteration", "mu", "min_margin", "logdet"]
    assert len(one) > 2
    assert two == one + one[1:]


def test_infeasible_reported_from_maxdet():
    det = maxdet.AffineMatFn(np.array([[0.0]]), np.array([[[1.0]]]))
    hi = maxdet.AffineMatFn(np.array([[0.0]]), np.array([[[-1.0]]]))
    p = maxdet.SdpProblem(1, [det, hi], det_block=0)
    assert maxdet.solve_maxdet(p).status == maxdet.INFEASIBLE


def design_problem():
    # blocks of sizes 4, 6, 2 and the 1x1 bound on varsigma, 11 variables
    return synthesis.build_design_problem(
        exploration_window(plants.ConstantLti())).problem


def per_block_terms(blocks, z, lin):
    """lin.z - sum w logdet G(z) block by block, G affine in z."""
    val, grad, hess = float(lin @ z), lin.copy(), 0.0
    for g, w in blocks:
        f = g(z)
        p = np.einsum("ab,kbc->kac", np.linalg.inv(f), g.coeffs)
        val -= w * np.linalg.slogdet(f)[1]
        grad = grad - w * np.einsum("kaa->k", p)
        hess = hess + w * np.einsum("kab,lba->kl", p, p)
    return val, grad, hess


def value(barrier, z):
    point = barrier.point(z)
    return None if point is None else point[0]


def terms(barrier, z):
    return barrier.terms(barrier.point(z))


def assert_terms_match(barrier, blocks, z, lin):
    val, grad, hess = terms(barrier, z)
    ref = per_block_terms(blocks, z, lin)
    assert abs(val - ref[0]) <= 1e-10 * (1.0 + abs(ref[0]))
    assert np.allclose(grad, ref[1], rtol=1e-9, atol=1e-9)
    assert np.allclose(hess, ref[2], rtol=1e-9, atol=1e-9)
    assert value(barrier, z) == val
    # central differences of the value and of the gradient
    h = 1e-6
    for k in range(z.size):
        e = h * np.eye(z.size)[k]
        fd = (value(barrier, z + e) - value(barrier, z - e)) / (2 * h)
        assert abs(fd - grad[k]) <= 1e-5 * (1.0 + abs(grad[k]))
        fd = (terms(barrier, z + e)[1] - terms(barrier, z - e)[1]) / (2 * h)
        assert np.allclose(fd, hess[k], rtol=1e-5, atol=1e-5)


def test_stacked_barrier_phase1():
    p = design_problem()
    m = p.num_vars
    x = 0.1 * np.random.default_rng(1).standard_normal(m)
    t_cap = 1.0
    z = np.append(x, min(np.min(maxdet.check_point(p, x)), t_cap) - 0.5)
    barrier = maxdet._phase1_barrier(p, t_cap)
    barrier.weights = np.full(len(barrier.constant), 0.1)
    ext = [maxdet.AffineMatFn(
        f.constant, np.concatenate([f.coeffs, -np.eye(f.dim)[None]]))
        for f in p.constraints]
    lin = -np.eye(m + 1)[m]
    cap = maxdet.AffineMatFn(np.array([[t_cap]]), lin[:, None, None])
    assert_terms_match(barrier, [(g, 0.1) for g in ext] + [(cap, 0.1)],
                       z, lin)
    # the cap is part of the stack: t at the cap leaves the domain
    assert barrier.point(np.append(x, t_cap)) is None


def test_stacked_barrier_phase2():
    p = design_problem()
    x = maxdet.solve_feasibility(
        p, maxdet.SolverOptions(strict_margin=0.05)).x
    shift, mu = 0.01, 100.0
    barrier, det_rows = maxdet._phase2_barrier(p, shift)
    barrier.weights = np.where(det_rows, 1.0, 1.0 / mu)
    shifted = [maxdet.AffineMatFn(f.constant - shift * np.eye(f.dim),
                                  f.coeffs) for f in p.constraints]
    blocks = [(g, 1.0 / mu) for g in shifted]
    blocks.append((p.constraints[p.det_block], 1.0))
    assert_terms_match(barrier, blocks, x, np.zeros(x.size))


def test_newton_stage_converges_at_float_noise():
    # phi(x) = 1e3 x - 1e12 log x has its minimum 1e9 where |phi| is about
    # 2e13, so steps stop decreasing it representably while the Newton
    # decrement is still far above the tolerance
    barrier = maxdet._Barrier(np.zeros((1, 1)), np.ones((1, 1, 1)),
                              np.array([1e3]))
    barrier.weights = np.array([1e12])
    x, _, steps, decrement, converged, stopped = maxdet._newton(
        barrier, np.array([0.5e9]), 500, 1e-8)
    assert converged and not stopped and steps < 500
    assert decrement > 1e-7
    assert abs(x[0] - 1e9) <= 1e-6 * 1e9


def test_maxdet_status_follows_last_stage(monkeypatch):
    # Optimal when the path finished and its last stage converged, whatever
    # decrement that stage reports
    newton = maxdet._newton
    for converged, status in [(True, maxdet.OPTIMAL),
                              (False, maxdet.MAXITER)]:
        def reporting_newton(*a, c=converged, **k):
            x, point, steps, _, _, stopped = newton(*a, **k)
            return x, point, steps, 1e-3, c, stopped

        monkeypatch.setattr(maxdet, "_newton", reporting_newton)
        sol = maxdet.solve_maxdet(one_var_det_problem())
        assert sol.status == status
        assert sol.kkt_residual == 1e-3


def test_no_maxiter_below_cap_on_canonical_designs(monkeypatch):
    # a final stage that stalls at float noise has converged and must not
    # read MaxIter; with a per-block barrier the k = 32 window of this run
    # stalled after 72 steps at decrement 2.05e-7
    name, plant, cfg = next(s for s in verification.canonical_scenarios()
                            if s[0] == "time-np12-s1")
    solve = maxdet.solve_maxdet
    sols = []

    def recording_solve(*args, **kwargs):
        sols.append(solve(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(maxdet, "solve_maxdet", recording_solve)
    hybrid.run(plant, cfg)
    cap = maxdet.SolverOptions().max_newton
    assert sum(s.status == maxdet.OPTIMAL for s in sols) > 0
    assert [(s.iterations, s.kkt_residual) for s in sols
            if s.status == maxdet.MAXITER and s.iterations < cap] == []


def test_early_stop_matches_min_of_check_point():
    # the phase-I early stop factors the phase-I matrix at z = (x, t),
    # shifted to (x, target); it must decide what the minimum margin decides
    # whatever t the point carries
    p = design_problem()
    m = p.num_vars
    barrier = maxdet._phase1_barrier(p, 1.0)
    x0 = maxdet.solve_feasibility(
        p, maxdet.SolverOptions(strict_margin=0.05)).x
    rng = np.random.default_rng(7)
    targets = [-1.0, 0.0, 1e-6, 0.01, 0.05]
    points = [x0 + s * rng.standard_normal(m)
              for s in (0.0, 1e-3, 1e-2, 1e-1, 1.0) for _ in range(8)]
    # only the last block, the bound varsigma > 0, falls short
    last = x0.copy()
    last[0] = -0.01
    margins = maxdet.check_point(p, last)
    assert np.all(margins[:-1] >= 1e-6) and margins[-1] < 1e-6
    points.append(last)
    decided = set()
    for x in points:
        for target in targets:
            ref = float(np.min(maxdet.check_point(p, x))) >= target
            for t in (-1.0, 0.0, 0.5):
                z = np.append(x, t)
                assert maxdet._margin_reached(
                    z, barrier._matrix(z), target) == ref
            decided.add(ref)
    assert decided == {True, False}
    # a block whose margin is NaN never reaches the target, first or last
    nan_block = maxdet.AffineMatFn(np.array([[1.0]]), np.zeros((m, 1, 1)))
    nan_block.constant[0, 0] = np.nan  # as if its entries had overflowed
    for blocks in ([nan_block] + p.constraints, p.constraints + [nan_block]):
        q = maxdet.SdpProblem(m, blocks)
        assert np.isnan(maxdet.check_point(q, x0)).any()
        ref = float(np.min(maxdet.check_point(q, x0))) >= -1.0
        z = np.append(x0, 0.0)
        assert maxdet._margin_reached(
            z, maxdet._phase1_barrier(q, 1.0)._matrix(z), -1.0) == ref
        assert ref is False


def test_early_stop_decides_as_check_point_on_a_canonical_run(monkeypatch):
    # every early-stop test of a closed-loop run answers what the minimum
    # over check_point's margins answers, and a solve whose stop fired is
    # Feasible
    name, plant, cfg = next(s for s in verification.canonical_scenarios()
                            if s[0] == "time-np12-s1")
    feasibility = maxdet.solve_feasibility
    reached = maxdet._margin_reached
    solves = []  # [problem, answers, status] per phase-I solve

    def recording_feasibility(problem, opts=None):
        solves.append([problem, [], None])
        sol = feasibility(problem, opts)
        solves[-1][2] = sol.status
        return sol

    def checked_reached(z, f, target):
        answer = reached(z, f, target)
        problem, answers, _ = solves[-1]
        assert answer == (
            float(np.min(maxdet.check_point(problem, z[:-1]))) >= target)
        answers.append(answer)
        return answer

    monkeypatch.setattr(maxdet, "solve_feasibility", recording_feasibility)
    monkeypatch.setattr(maxdet, "_margin_reached", checked_reached)
    hybrid.run(plant, cfg)
    answers = [a for _, ans, _ in solves for a in ans]
    assert set(answers) == {True, False}
    for _, ans, status in solves:
        # the stop ends the solve, so only its last test can fire
        assert True not in ans[:-1]
        if ans and ans[-1]:
            assert status == maxdet.FEASIBLE


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    fn = getattr(owner, name)
    calls = []

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_newton_factors_each_point_once(monkeypatch):
    # phi(x) = x - log x from x = 0.9: every Newton step is a full step, so
    # a stage of s steps builds and factors its start and each accepted
    # point only
    builds = counting(monkeypatch, maxdet._Barrier, "_matrix")
    chols = counting(monkeypatch, maxdet, "_chol")
    barrier = maxdet._Barrier(np.zeros((1, 1)), np.ones((1, 1, 1)),
                              np.array([1.0]))
    x, _, steps, _, converged, _ = maxdet._newton(
        barrier, np.array([0.9]), 500, 1e-8)
    assert converged and steps >= 3
    assert abs(x[0] - 1.0) <= 1e-12
    assert len(builds) == len(chols) == steps + 1

    # a path of stages x - log(x) / mu, mu growing by 1.1, whose minima
    # 1 / mu lie a full Newton step apart: a stage starts from the previous
    # stage's factored point, so the path builds and factors its start
    # and each accepted point once
    monkeypatch.setattr(maxdet, "MU_FACTOR", 1.1)
    monkeypatch.setattr(maxdet, "MU_MAX", 1.7)
    mus = []
    del builds[:], chols[:]
    z, total, _, finished = maxdet._path(
        barrier, np.array([0.9]), lambda mu: np.array([1.0 / mu]), 500,
        stage=lambda total, mu, z: mus.append(mu))
    assert finished and len(mus) == 6
    assert abs(z[0] - 1.0 / mus[-1]) <= 1e-7
    assert len(builds) == len(chols) == total + 1

    # phase I's stop factors each accepted point once more, shifted to the
    # target: one more Cholesky per accepted point, and no matrix build
    del builds[:], chols[:]
    stops = counting(monkeypatch, maxdet, "_margin_reached")
    sol = maxdet.solve_feasibility(one_var_det_problem())
    assert sol.status == maxdet.FEASIBLE and sol.iterations >= 1
    assert len(stops) == sol.iterations
    assert len(chols) == len(builds) + len(stops)


def log_barrier(scale, lin):
    """phi(x) = lin.x - scale * log x_0 over x_0 > 0; the other variables
    enter no block."""
    coeffs = np.zeros((len(lin), 1, 1))
    coeffs[0, 0, 0] = 1.0
    barrier = maxdet._Barrier(np.zeros((1, 1)), coeffs, np.asarray(lin))
    barrier.weights = np.array([scale])
    return barrier


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e12])
def test_newton_steps_are_scale_invariant(scale):
    # phi(x) = x - s log x has its minimum at x = s with Hessian 1/s there;
    # Newton's method on it is scale-invariant, so every s takes the steps
    # of s = 1
    x, _, steps, _, converged, _ = maxdet._newton(
        log_barrier(scale, [1.0]), np.array([1.3 * scale]), 500, 1e-8)
    assert converged and steps <= 10
    assert abs(x[0] - scale) <= 1e-6 * scale


@pytest.mark.parametrize("scale", [1.0, 1e12])
def test_newton_retries_a_singular_hessian(scale):
    # x_1 enters no block, so the Hessian's second row and column are zero
    # and Cholesky fails; the retry with a ridge relative to the Hessian's
    # own scale still takes full Newton steps in x_0
    barrier = log_barrier(scale, [1.0, 0.0])
    z = np.array([1.3 * scale, 0.0])
    hess = barrier.terms(barrier.point(z))[2]
    assert np.all(hess[1] == 0.0) and np.all(hess[:, 1] == 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(hess)
    x, _, steps, _, converged, _ = maxdet._newton(barrier, z, 500, 1e-8)
    assert converged and steps <= 10
    assert abs(x[0] - scale) <= 1e-6 * scale and x[1] == 0.0


def test_newton_zero_hessian_breaks_down():
    # no variable enters the block: the Hessian is zero and no ridge
    # relative to it makes the Newton system solvable
    barrier = maxdet._Barrier(np.eye(1), np.zeros((1, 1, 1)),
                              np.array([1.0]))
    with pytest.raises(maxdet.SolverBreakdown, match="singular"):
        maxdet._newton(barrier, np.array([0.0]), 500, 1e-8)


@pytest.mark.parametrize("pos", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1),
                                 (2, 2)])
def test_chol_rejects_a_nan_entry(pos):
    # LAPACK's potrf need not fail on NaN, so the factor is checked: a NaN
    # anywhere on or below the diagonal of a positive definite matrix makes
    # it not factor
    m = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    assert maxdet._chol(m) is not None
    m[pos] = m[pos[::-1]] = np.nan
    assert maxdet._chol(m) is None
    assert maxdet._logdet(lambda x: m, np.zeros(1)) is None


def test_newton_from_a_nan_point_breaks_down():
    # F(x) is NaN at a NaN start, so the start is outside the barrier's
    # domain rather than a point with a NaN value
    barrier = log_barrier(1.0, [1.0])
    assert barrier.point(np.array([np.nan])) is None
    with pytest.raises(maxdet.SolverBreakdown, match="left the barrier"):
        maxdet._newton(barrier, np.array([np.nan]), 500, 1e-8)
