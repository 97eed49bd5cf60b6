import csv
import dataclasses
import sys
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltvadapt import hybrid, linalg, maxdet, plants, synthesis, verification
from test_synthesis import exploration_window, synthesized_windows


def chol_in_stage(m):
    """maxdet._chol(m) under the error state _newton gives it: a failed
    factorization sets the invalid flag, which _chol leaves to its caller."""
    with np.errstate(invalid="ignore"):
        return maxdet._chol(m)


def reached_in_stage(z, f, target):
    """maxdet._margin_reached under the error state _newton gives it."""
    with np.errstate(invalid="ignore"):
        return maxdet._margin_reached(z, f, target)


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


def empty_interior_problem():
    # x > 0 and x < 0 simultaneously
    lo = maxdet.AffineMatFn(np.array([[0.0]]), np.array([[[1.0]]]))
    hi = maxdet.AffineMatFn(np.array([[0.0]]), np.array([[[-1.0]]]))
    return maxdet.SdpProblem(1, [lo, hi])


def test_affine_mat_fn_symmetrizes():
    f = maxdet.AffineMatFn(np.array([[0.0, 2.0], [0.0, 0.0]]),
                           np.zeros((0, 2, 2)))
    assert np.allclose(f.constant, [[0.0, 1.0], [1.0, 0.0]])


def test_check_point_margins():
    p = one_var_det_problem()
    margins = maxdet.check_point(p, np.array([1.0]))
    # blocks: det diag(2,2) -> 2, cap [2] -> 2, bound [x-0] -> 1
    assert np.allclose(sorted(margins), [1.0, 2.0, 2.0])


@pytest.mark.parametrize("x", [[np.nan, 0.5], [np.nan, np.nan],
                               [0.5, np.inf]])
def test_check_point_rejects_a_non_finite_decision_vector(x):
    # LAPACK's eigvalsh can return finite eigenvalues for a matrix with a
    # NaN entry (this numpy gives [0, -0] for [[nan, 0], [0, 1]]), so a
    # NaN x could read as a real margin
    p = verification._random_2var_maxdet(np.random.default_rng(0))[0]
    assert np.isfinite(maxdet.check_point(p, [0.5, 0.5])).all()
    with pytest.raises(linalg.InvalidInput, match="non-finite"):
        maxdet.check_point(p, x)


@pytest.mark.parametrize("key,value", [
    ("strict_margin", 0.0), ("strict_margin", -1e-6), ("strict_margin", 1.0),
    ("strict_margin", float("nan")), ("max_newton", 0), ("max_newton", -5),
    ("max_newton", 60.5), ("max_newton", float("nan")),
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
    p = empty_interior_problem()
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


def trace_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def phase_row(phase, sol, logdet=""):
    """The trace row a phase returning sol writes, as csv reads it back."""
    return [phase, str(sol.iterations), sol.status,
            repr(float(np.min(sol.min_margins))), logdet]


def design_problems(monkeypatch, runs):
    """The design problem of every window the closed loops of runs hand to
    synthesize above its data bound: the problems that reach the solver
    when the expansion certificate declines nothing, so solver-Infeasible
    windows included."""
    target = maxdet.SolverOptions().strict_margin
    return [synthesis.build_design_problem(w).problem
            for w in synthesized_windows(monkeypatch, runs)
            if synthesis.presolve_decline(w, target) != synthesis.DATA_BOUND]


def test_solver_trace(tmp_path, monkeypatch):
    # one row per phase of each solve, read from the solution that phase
    # returns: phase I's iteration count, status and least margin, and
    # phase II's with the det block's log-det at its x
    path = tmp_path / "trace.csv"
    opts = maxdet.SolverOptions(trace_path=str(path))
    problem = one_var_det_problem()
    # phase I takes steps from x = 0, where the bound x > 0 has no margin
    phase1 = maxdet.solve_feasibility(problem)
    sol = maxdet.solve_maxdet(problem, opts)
    assert phase1.iterations > 0 and sol.status == maxdet.OPTIMAL
    rows = trace_rows(path)
    assert rows[0] == ["phase", "iteration", "status", "min_margin",
                       "logdet"]
    assert rows[1] == phase_row("I", phase1)
    assert rows[2][:4] == phase_row("II", sol)[:4]
    logdet = np.linalg.slogdet(problem.constraints[0](sol.x))[1]
    assert abs(float(rows[2][4]) - logdet) <= 1e-12 * (1.0 + abs(logdet))
    assert abs(float(rows[2][4]) - np.log(4.5)) <= 1e-6
    assert len(rows) == 3

    # a constant problem is decided at x = 0 and still leaves its row
    const = maxdet.AffineMatFn(np.array([[-1.0]]), np.zeros((1, 1, 1)))
    sol = maxdet.solve_maxdet(maxdet.SdpProblem(1, [const], det_block=0),
                              opts)
    assert sol.status == maxdet.INFEASIBLE and sol.iterations == 0
    assert trace_rows(path)[3:] == [phase_row("I", sol)]

    # a closed loop and then every design problem of its windows, into one
    # trace: one phase-I row per design solve, followed by a phase-II row
    # exactly when phase I found the window feasible
    solves = []
    for name in ("solve_feasibility", "solve_maxdet"):
        def record(problem, opts=None, _solve=getattr(maxdet, name),
                   _name=name):
            out = _solve(problem, opts)
            solves.append((_name, problem, out))
            return out
        monkeypatch.setattr(maxdet, name, record)
    loop = tmp_path / "loop.csv"
    opts = maxdet.SolverOptions(trace_path=str(loop))
    _, plant, cfg = next(s for s in verification.canonical_scenarios()
                         if s[0] == "switching-event")
    run = ("switching-event", plant,
           dataclasses.replace(cfg, solver_options=opts))
    for problem in design_problems(monkeypatch, [run]):
        maxdet.solve_maxdet(problem, opts)
    expected = []
    for name, problem, out in solves:
        if name == "solve_feasibility":
            expected.append(phase_row("I", out))
        elif expected[-1][2] == maxdet.FEASIBLE:
            logdet = np.linalg.slogdet(
                problem.constraints[problem.det_block](out.x))[1]
            expected.append(phase_row("II", out, logdet))
    rows = trace_rows(loop)[1:]
    statuses = [row[2] for row in rows]
    assert statuses.count(maxdet.FEASIBLE) > 0
    assert statuses.count(maxdet.INFEASIBLE) > 0
    assert sum(name == "solve_maxdet" for name, _, _ in solves) == \
        sum(row[0] == "I" for row in rows)
    assert [row[:4] for row in rows] == [row[:4] for row in expected]
    for row, ref in zip(rows, expected):
        if row[0] == "I":
            assert row[4] == ""
        else:
            assert abs(float(row[4]) - ref[4]) <= 1e-9 * (1.0 + abs(ref[4]))


def test_solver_trace_keeps_every_solve(tmp_path):
    # a closed loop solves once per design into one trace file: each solve
    # appends its rows after the one header row
    def rows_of(path, solves):
        opts = maxdet.SolverOptions(trace_path=str(path))
        for _ in range(solves):
            maxdet.solve_maxdet(one_var_det_problem(), opts)
        return trace_rows(path)

    one = rows_of(tmp_path / "one.csv", 1)
    two = rows_of(tmp_path / "two.csv", 2)
    assert one[0] == ["phase", "iteration", "status", "min_margin", "logdet"]
    assert [row[0] for row in one[1:]] == ["I", "II"]
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


def test_phase1_is_feasible_when_its_stop_fires(monkeypatch):
    # the stop test gives the verdict: a path it stops is Feasible, even at
    # a point whose check_point margins fall short of the target, and
    # min_margins still holds check_point's margins there
    monkeypatch.setattr(maxdet, "_margin_reached", lambda z, f, target: True)
    p = empty_interior_problem()
    sol = maxdet.solve_feasibility(p)
    assert sol.status == maxdet.FEASIBLE and sol.iterations == 1
    assert np.array_equal(sol.min_margins, maxdet.check_point(p, sol.x))
    assert np.min(sol.min_margins) < maxdet.SolverOptions().strict_margin


def test_phase1_is_infeasible_only_when_its_last_stage_converged(
        monkeypatch):
    # a path that passes MU_MAX below the target is Infeasible if its last
    # stage converged, and undecided (MaxIter) if it did not, however few
    # steps it took
    newton = maxdet._newton
    for converged, status in [(True, maxdet.INFEASIBLE),
                              (False, maxdet.MAXITER)]:
        def reporting_newton(*a, c=converged, **k):
            x, point, steps, residual, _, stopped = newton(*a, **k)
            return x, point, steps, residual, c, stopped

        monkeypatch.setattr(maxdet, "_newton", reporting_newton)
        sol = maxdet.solve_feasibility(empty_interior_problem())
        assert sol.status == status
        assert sol.iterations < maxdet.SolverOptions().max_newton


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


def recording_stages(monkeypatch):
    """Replace maxdet._newton by a wrapper that records each stage's
    (mu, tol, decrement, converged, stopped); mu is read from the barrier
    weights, whose least entry is 1 / mu in both phases."""
    newton = maxdet._newton
    stages = []

    def recording_newton(barrier, x, max_steps, tol, *args):
        out = newton(barrier, x, max_steps, tol, *args)
        stages.append((1.0 / np.min(barrier.weights), tol, out[3], out[4],
                       out[5]))
        return out

    monkeypatch.setattr(maxdet, "_newton", recording_newton)
    return stages


def test_intermediate_stages_end_at_the_centering_tolerance(monkeypatch):
    # each phase runs its own stages to the end, phase I on an empty
    # interior and phase II on a design problem: phase I every mu of the
    # grid, 100, 1e3, ..., 1e6, centred to 0.1 / sqrt(mu), phase II every
    # other one, 100, 1e4, 1e6, centred to 0.25 / sqrt(mu); both end on the
    # same last stage, centred to NEWTON_TOL
    stages = recording_stages(monkeypatch)
    paths = {"I": ([1e2, 1e3, 1e4, 1e5, 1e6], 0.1),
             "II": ([1e2, 1e4, 1e6], 0.25)}
    sol = maxdet.solve_feasibility(empty_interior_problem())
    assert sol.status == maxdet.INFEASIBLE
    got = {"I": stages[:]}
    del stages[:]
    sol = maxdet.solve_maxdet(design_problem())
    assert sol.status == maxdet.OPTIMAL
    got["II"] = stages[-len(paths["II"][0]):]
    assert len(stages) > len(got["II"])  # phase I ran before
    for phase, (mus, centering) in paths.items():
        path = got[phase]
        assert len(path) == len(mus)
        assert np.allclose([mu for mu, *_ in path], mus, rtol=1e-12, atol=0)
        assert [tol for _, tol, *_ in path] == \
            [centering / np.sqrt(mu) for mu in mus[:-1]] + [maxdet.NEWTON_TOL]
        for _, tol, decrement, converged, stopped in path:
            assert converged and not stopped and decrement <= tol
    assert sol.kkt_residual == got["II"][-1][2] <= maxdet.NEWTON_TOL


def fully_centred(monkeypatch, solve, problem):
    """solve(problem) on the full path from mu = 1, every stage of both
    phases centred at least to NEWTON_TOL, since a centering tolerance of
    NEWTON_TOL gives NEWTON_TOL / sqrt(mu) <= NEWTON_TOL at mu >= 1."""
    with monkeypatch.context() as m:
        m.setattr(maxdet, "MU_INIT", 1.0)
        m.setattr(maxdet, "CENTERING_TOL", maxdet.NEWTON_TOL)
        m.setattr(maxdet, "PHASE2_CENTERING_TOL", maxdet.NEWTON_TOL)
        return solve(problem)


def test_loose_centring_keeps_verdicts_and_solutions(monkeypatch):
    # only the last stage's point is used, and it is centred as tightly
    # either way: phase-I verdicts and maxdet statuses are the same as on
    # the full path from mu = 1 with every stage fully centred, an Optimal x
    # agrees to 1e-6 relative (3.3e-8 at most over the 77 adopted canonical
    # windows), and the path from MU_INIT takes fewer steps; on the small
    # problems, the empty interior (phase I only) and the 118 solved
    # windows of the canonical runs, the 77 adopted ones among them. Phase
    # I's steps are compared on each problem of the small ones, the empty
    # interior and the windows of switching-event and time-np12-s1, and on
    # every Infeasible verdict; on the other runs' Feasible verdicts only
    # in total, since from mu = 1 its stop fires sooner on 4 of their
    # windows (2 steps against 4 or 5)
    first = ("switching-event", "time-np12-s1")
    runs = verification.canonical_scenarios()
    each = [one_var_det_problem(), design_problem()] + \
        design_problems(monkeypatch, [s for s in runs if s[0] in first])
    rest = design_problems(monkeypatch, [s for s in runs if s[0] not in first])
    assert len(each) + len(rest) == 2 + 118
    problems = each + rest
    statuses = []
    steps = np.zeros(2, dtype=int)
    for i, p in enumerate(problems + [empty_interior_problem()]):
        got = maxdet.solve_feasibility(p)
        ref = fully_centred(monkeypatch, maxdet.solve_feasibility, p)
        assert got.status == ref.status
        if not len(each) <= i < len(problems) or \
                got.status == maxdet.INFEASIBLE:
            assert got.iterations <= ref.iterations
        steps += got.iterations, ref.iterations
        statuses.append(got.status)
    assert steps[0] < steps[1]
    assert statuses.pop() == maxdet.INFEASIBLE
    assert statuses.count(maxdet.FEASIBLE) == 2 + 77
    assert statuses.count(maxdet.INFEASIBLE) == 41
    for p, status in zip(problems, statuses):
        got = maxdet.solve_maxdet(p)
        ref = fully_centred(monkeypatch, maxdet.solve_maxdet, p)
        assert got.status == ref.status
        assert got.status == (maxdet.OPTIMAL if status == maxdet.FEASIBLE
                              else maxdet.INFEASIBLE)
        assert got.iterations < ref.iterations
        if got.status == maxdet.OPTIMAL:
            assert np.linalg.norm(got.x - ref.x) <= \
                1e-6 * np.linalg.norm(ref.x)


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
                assert reached_in_stage(
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
        assert reached_in_stage(
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


def lapack_recorder():
    """A stand-in for the LAPACK gufunc module maxdet calls, recording each
    cholesky_lo, inv, solve1 and eigvalsh_lo call as (arguments, result);
    numpy.linalg's own calls bypass it. Returns (stand-in, {name: calls})."""
    calls = {name: [] for name in ("cholesky_lo", "inv", "solve1",
                                   "eigvalsh_lo")}

    def recorder(name):
        fn = getattr(maxdet._lapack, name)

        def call(*args):
            out = fn(*args)
            calls[name].append((args, out))
            return out
        return call

    return types.SimpleNamespace(
        **{name: recorder(name) for name in calls}), calls


def ridge_recorder():
    """A stand-in for maxdet._chol that records a copy of each matrix
    `_newton` itself tests, which is the ridged Hessian; the line search's
    calls, made from `_Barrier.point`, are not recorded. Returns
    (stand-in, recorded matrices)."""
    chol = maxdet._chol
    ridged = []

    def call(m):
        if sys._getframe(1).f_code is maxdet._newton.__code__:
            ridged.append(m.copy())
        return chol(m)
    return call, ridged


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

    # paths of stages x - log(x) / mu on the grid mu = 1, 1.1, ..., 1.7,
    # read at call time: phase I's stages, every mu of the grid, and phase
    # II's, every other mu and the last, whose minima 1 / mu lie a full
    # Newton step apart; a stage starts from the previous stage's factored
    # point, so a path builds and factors its start and each accepted point
    # once
    monkeypatch.setattr(maxdet, "MU_INIT", 1.0)
    monkeypatch.setattr(maxdet, "MU_FACTOR", 1.1)
    monkeypatch.setattr(maxdet, "MU_MAX", 1.7)
    grid = 1.1 ** np.arange(6)
    for stride, centering, want in [
            (1, maxdet.CENTERING_TOL, grid),
            (2, maxdet.PHASE2_CENTERING_TOL, grid[[0, 2, 4, 5]])]:
        stages = maxdet._stages(stride, centering)
        assert np.allclose([mu for mu, _ in stages], want, rtol=1e-12)
        assert [tol for _, tol in stages] == \
            [centering / np.sqrt(mu) for mu, _ in stages[:-1]] + \
            [maxdet.NEWTON_TOL]
        mus = []

        def weights(mu):
            # _path sets the weights once per stage
            mus.append(mu)
            return np.array([1.0 / mu])

        del builds[:], chols[:]
        z, total, _, finished, _ = maxdet._path(
            barrier, np.array([0.9]), weights, stages, 500)
        assert finished and mus == [mu for mu, _ in stages]
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


def test_newton_retries_a_hessian_that_gives_no_descent(monkeypatch):
    # an invertible indefinite Hessian whose LU step d = -H^-1 g has
    # g.d > 0 points uphill: the step is not taken, the Hessian is retried
    # with its ridge, Cholesky rejects the ridged matrix, and the solve
    # breaks down
    barrier = log_barrier(1.0, [1.0, 0.0])
    grad = np.array([1.0, 0.0])
    hess = np.diag([-1.0, 2.0])
    assert grad @ np.linalg.solve(hess, grad) < 0.0
    monkeypatch.setattr(maxdet._Barrier, "terms",
                        lambda self, point: (point[0], grad, hess))
    points = counting(monkeypatch, maxdet._Barrier, "point")
    lapack, calls = lapack_recorder()
    monkeypatch.setattr(maxdet, "_lapack", lapack)
    chol, ridged = ridge_recorder()
    monkeypatch.setattr(maxdet, "_chol", chol)
    with pytest.raises(maxdet.SolverBreakdown, match="singular"):
        maxdet._newton(barrier, np.array([1.3, 0.0]), 500, 1e-8)
    # only the start was evaluated, after one LU solve of the Newton
    # system; the ridged Hessian's negative diagonal entry rejects it
    # without a LAPACK call, so potrf saw only the start's F
    assert len(points) == 1
    assert len(calls["cholesky_lo"]) == len(calls["solve1"]) == 1
    ridge = 1e-12 * np.trace(hess) / 2
    assert len(ridged) == 1
    assert np.array_equal(ridged[0], hess + ridge * np.eye(2))


def test_newton_sends_a_singular_hessian_to_the_ridge_at_a_zero_gradient(
        monkeypatch):
    # LU fails on this Hessian, so the decrement is NaN although the
    # gradient is zero: the step still goes to the ridge, which is zero
    # for a traceless Hessian, Cholesky rejects it, and the solve breaks
    # down
    barrier = log_barrier(1.0, [1.0, 0.0, 0.0])
    grad = np.zeros(3)
    hess = np.diag([1.0, -1.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(hess, -grad)
    monkeypatch.setattr(maxdet._Barrier, "terms",
                        lambda self, point: (point[0], grad, hess))
    with pytest.raises(maxdet.SolverBreakdown, match="singular"):
        maxdet._newton(barrier, np.array([1.3, 0.0, 0.0]), 500, 1e-8)


def boundary_maxdet_problem():
    """Maximize log(1 + x0) subject to [[1, x0], [x0, 1]] > 0: the optimum
    sits on the boundary x0 = 1, so full Newton steps overshoot to trial
    points whose diagonal is positive but which are not positive definite;
    x1 enters no block, so every Hessian is singular."""
    box = np.zeros((2, 2, 2))
    box[0] = [[0.0, 1.0], [1.0, 0.0]]
    gain = np.zeros((2, 1, 1))
    gain[0] = 1.0
    return maxdet.SdpProblem(2, [maxdet.AffineMatFn(np.eye(1), gain),
                                 maxdet.AffineMatFn(np.eye(2), box)],
                             det_block=0)


def test_failed_lapack_calls_of_a_solve_emit_no_warning(monkeypatch,
                                                         tmp_path):
    # a failed potrf or a singular LU solve sets the invalid flag; the
    # solve's own error state keeps it from escaping as a RuntimeWarning,
    # which this test, like pyproject's filter, turns into an error
    lapack, calls = lapack_recorder()
    monkeypatch.setattr(maxdet, "_lapack", lapack)
    opts = maxdet.SolverOptions(trace_path=str(tmp_path / "trace.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = maxdet.solve_maxdet(boundary_maxdet_problem(), opts)
    assert sol.status == maxdet.OPTIMAL and abs(sol.x[0] - 1.0) < 1e-5
    failed_chol = [m for (m,), l in calls["cholesky_lo"]
                   if np.all(m.diagonal() > 0.0) and np.isnan(l[-1, -1])]
    assert len(failed_chol) > 0
    assert any(np.isnan(d).all() for _, d in calls["solve1"])


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


def lapack_chol(m):
    """LAPACK's answer on m: its factor, or None where potrf fails or its
    factor's last diagonal entry is NaN."""
    try:
        l = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    return None if np.isnan(l[-1, -1]) else l


def gram_matrix(rng, n, scale):
    """A symmetric matrix with a positive diagonal, definite or not: a Gram
    matrix less a random share of its smallest diagonal entry."""
    a = rng.standard_normal((n, n))
    m = a @ a.T
    m -= rng.uniform(0.0, 1.0) * np.min(m.diagonal()) * np.eye(n)
    return scale * m


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10 ** 6),
       st.sampled_from([0.0, -0.0, -1e-300, -1.0, np.nan]),
       st.sampled_from([1e-12, 1.0, 1e12]), st.booleans())
def test_chol_decides_a_non_positive_diagonal_without_lapack(
        n, seed, bad, scale, nan_off):
    # potrf's j-th pivot is m_jj minus a sum of squares, so a non-positive
    # or NaN m_jj makes it fail or leaves NaN in the factor: _chol answers
    # None without calling it
    rng = np.random.default_rng(seed)
    m = gram_matrix(rng, n, scale)
    j = rng.integers(n)
    m[j, j] = bad
    if nan_off and n > 1:
        i, k = rng.choice(n, 2, replace=False)
        m[i, k] = m[k, i] = np.nan
    assert lapack_chol(m) is None
    lapack, calls = lapack_recorder()
    with mock.patch.object(maxdet, "_lapack", lapack):
        assert maxdet._chol(m) is None
    assert calls["cholesky_lo"] == []


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10 ** 6),
       st.sampled_from([1e-12, 1.0, 1e12]), st.booleans())
def test_chol_with_a_positive_diagonal_is_lapacks(n, seed, scale, nan_off):
    # with a positive diagonal _chol returns LAPACK's factor bit for bit,
    # and None exactly where LAPACK fails or leaves NaN in the factor
    rng = np.random.default_rng(seed)
    m = gram_matrix(rng, n, scale)
    if nan_off and n > 1:
        i, k = rng.choice(n, 2, replace=False)
        m[i, k] = m[k, i] = np.nan
    assert np.all(m.diagonal() > 0.0)
    ref = lapack_chol(m)
    lapack, calls = lapack_recorder()
    with mock.patch.object(maxdet, "_lapack", lapack):
        l = chol_in_stage(m)
    assert len(calls["cholesky_lo"]) == 1
    assert (l is None) == (ref is None)
    if l is not None:
        assert l.tobytes() == ref.tobytes()


def test_design_solve_makes_only_the_lapack_calls_it_needs(monkeypatch):
    # the k = 4 design window of a canonical time-triggered run: each
    # Newton system is one LU solve, and Cholesky runs only on the F(x)
    # whose diagonal _chol could not decide, never on a Hessian
    name, plant, cfg = next(s for s in verification.canonical_scenarios()
                            if s[0] == "time-np8-s0")
    solve = maxdet.solve_maxdet
    problems = []

    def first_problem(problem, opts=None):
        problems.append(problem)
        raise maxdet.SolverBreakdown("recorded")

    monkeypatch.setattr(maxdet, "solve_maxdet", first_problem)
    hybrid.run(plant, cfg)
    monkeypatch.undo()

    public = {fn: counting(monkeypatch, np.linalg, fn)
              for fn in ("inv", "solve", "cholesky")}
    lapack, calls = lapack_recorder()
    hessians, chol_calls = [], []
    chol = maxdet._chol
    terms = maxdet._Barrier.terms

    def recording_terms(self, point):
        out = terms(self, point)
        hessians.append(out[2])
        return out

    def recording_chol(m):
        chol_calls.append(bool(np.all(m.diagonal() > 0.0)))
        return chol(m)

    monkeypatch.setattr(maxdet._Barrier, "terms", recording_terms)
    monkeypatch.setattr(maxdet, "_chol", recording_chol)
    monkeypatch.setattr(maxdet, "_lapack", lapack)
    sol = solve(problems[0])
    assert sol.status == maxdet.OPTIMAL
    assert len(hessians) > 0 and len(calls["solve1"]) == len(hessians)
    assert all(args[0] is h for (args, _), h in zip(calls["solve1"],
                                                    hessians))
    assert len(calls["inv"]) == len(hessians)
    # the diagonal rule decides some factorizations outright
    assert 0 < chol_calls.count(False) < len(chol_calls)
    assert len(calls["cholesky_lo"]) == chol_calls.count(True)
    assert not any(args[0] is h for args, _ in calls["cholesky_lo"]
                   for h in hessians)
    # and no call goes through numpy.linalg's wrappers
    assert public == {"inv": [], "solve": [], "cholesky": []}


KINDS = ("definite", "indefinite", "singular", "nan")


def symmetric_matrix(rng, n, kind, scale):
    """A symmetric n x n matrix of the given kind, times scale: definite;
    indefinite; singular, with two equal rows and columns (the 1 x 1 zero
    at n = 1), so that LU meets an exact zero pivot; or definite with a
    NaN entry and its mirror."""
    a = rng.standard_normal((n, n))
    if kind == "indefinite":
        w = rng.uniform(0.1, 2.0, n)
        w[rng.integers(n)] *= -1.0
        q = np.linalg.qr(a)[0]
        m = linalg.symmetrize((q * w) @ q.T)
    else:
        m = a @ a.T + np.eye(n)
    if kind == "singular":
        if n == 1:
            m[0, 0] = 0.0
        else:
            i, j = rng.choice(n, 2, replace=False)
            m[j] = m[i]
            m[:, j] = m[:, i]
    elif kind == "nan":
        i, j = rng.integers(n, size=2)
        m[i, j] = m[j, i] = np.nan
    return scale * m


matrices = (st.integers(1, 15), st.integers(0, 10 ** 6),
            st.sampled_from(KINDS), st.sampled_from([1e-12, 1.0, 1e12]))


@settings(max_examples=150, deadline=None)
@given(*matrices)
def test_chol_is_numpys_cholesky(n, seed, kind, scale):
    # _chol answers None exactly where numpy.linalg.cholesky raises or
    # leaves NaN in the factor, and otherwise returns its factor bit for
    # bit
    m = symmetric_matrix(np.random.default_rng(seed), n, kind, scale)
    ref = lapack_chol(m)
    l = chol_in_stage(m)
    assert (l is None) == (ref is None)
    if l is not None:
        assert l.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 15), st.integers(0, 10 ** 6),
       st.sampled_from([1e-12, 1.0, 1e12]))
def test_barrier_terms_invert_f_as_numpy_does(n, seed, scale):
    # terms inverts the factored F(x) by LU, and its inverse is
    # numpy.linalg.inv's bit for bit
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((3, n, n))
    barrier = maxdet._Barrier(
        symmetric_matrix(rng, n, "definite", scale),
        coeffs + coeffs.transpose(0, 2, 1), rng.standard_normal(3))
    barrier.weights = rng.uniform(0.5, 2.0, n)
    point = barrier.point(rng.standard_normal(3) * 1e-3 * scale)
    assert point is not None
    lapack, calls = lapack_recorder()
    with mock.patch.object(maxdet, "_lapack", lapack):
        barrier.terms(point)
    [(args, inv)] = calls["inv"]
    assert args[0] is point[1]
    assert inv.tobytes() == np.linalg.inv(point[1]).tobytes()


@settings(max_examples=150, deadline=None)
@given(*matrices, st.booleans())
# a NaN Hessian whose ridged copy potrf factors without failing, leaving
# NaN in the factor, and whose ridged LU is singular
@example(n=11, seed=474, kind="nan", scale=1e12, zero_grad=False)
def test_newton_lu_solve_is_numpys(n, seed, kind, scale, zero_grad):
    # the Newton direction is numpy.linalg.solve's bit for bit, and all
    # NaN where it raises; a failed solve, a NaN decrement or a step that
    # is not a descent direction at a non-zero gradient goes to the ridge,
    # which breaks down where Cholesky rejects the ridged Hessian or leaves
    # NaN in its factor
    rng = np.random.default_rng(seed)
    hess = symmetric_matrix(rng, n, kind, scale)
    grad = np.zeros(n) if zero_grad else rng.standard_normal(n)
    try:
        ref = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        ref = None
    ridged = hess + 1e-12 * float(np.trace(hess)) / n * np.eye(n)
    ridge_fails = lapack_chol(ridged) is None

    lapack, calls = lapack_recorder()
    chol, ridge_tests = ridge_recorder()

    x0 = 1.3 * np.eye(n)[0]
    with mock.patch.object(maxdet._Barrier, "terms",
                           lambda self, point: (point[0], grad, hess)), \
            mock.patch.object(maxdet, "_lapack", lapack), \
            mock.patch.object(maxdet, "_chol", chol):
        try:
            maxdet._newton(log_barrier(1.0, np.eye(n)[0]), x0, 1, 1e-8)
            broke = False
        except maxdet.SolverBreakdown:
            broke = True
    (_, d), *ridge_solves = calls["solve1"]
    if ref is None:
        assert np.all(np.isnan(d))
    else:
        assert d.tobytes() == ref.tobytes()
    decrement = float(-grad @ d)
    retried = not decrement > 0.0 and (np.isnan(decrement) or np.any(grad))
    assert retried or ref is not None
    assert len(ridge_tests) == int(retried)
    if retried:
        assert ridge_tests[0].tobytes() == ridged.tobytes()
    assert broke == (retried and ridge_fails)
    # a ridged Hessian that factors is solved by LU, as numpy.linalg.solve
    # solves it
    assert len(ridge_solves) == int(retried and not broke)
    for _, d in ridge_solves:
        assert d.tobytes() == np.linalg.solve(ridged, -grad).tobytes()
