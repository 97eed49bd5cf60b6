"""maxdet checked by its contract: verdicts on problems whose sup t or
optimum has a closed form, the margins and KKT residual at the returned
point, per-phase Newton-step counts read from the solver trace, and the
calls made through maxdet._lapack, the one internal a test replaces.
Kernel tests compare _chol and _Barrier with numpy references directly."""

import csv
import dataclasses
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvadapt import hybrid, linalg, maxdet, plants, synthesis, verification
from test_synthesis import exploration_window, synthesized_windows

TARGET = maxdet.SolverOptions().strict_margin


def scalar_block(constant, *coeffs):
    """The 1x1 block constant + sum_i coeffs[i] x_i."""
    return maxdet.AffineMatFn(np.array([[constant]]),
                              np.reshape(coeffs, (-1, 1, 1)))


def one_var_det_problem(scale=1.0):
    # det block diag(2x, 3 - x) over 0 < x < 3 in the variable scale * x;
    # the log-determinant ln(2x) + ln(3 - x) peaks at x = 1.5 with det 4.5
    det = maxdet.AffineMatFn(
        np.diag([0.0, 3.0]),
        np.array([[[2.0, 0.0], [0.0, -1.0]]]) / scale,
    )
    return maxdet.SdpProblem(
        num_vars=1, det_block=0, constraints=[
            det, scalar_block(3.0, -1.0 / scale),
            scalar_block(0.0, 1.0 / scale)])


def empty_interior_problem():
    # x > 0 and x < 0 simultaneously
    return maxdet.SdpProblem(1, [scalar_block(0.0, 1.0),
                                 scalar_block(0.0, -1.0)])


def band_problem(c):
    """x > 0 and 2c - x > 0: the least margin min(x, 2c - x) peaks at x =
    c, so sup t = c, and by symmetry every phase-I centre has x = c."""
    return maxdet.SdpProblem(1, [scalar_block(0.0, 1.0),
                                 scalar_block(2.0 * c, -1.0)], det_block=0)


def gap_problem():
    """x > 0 and (-1 - x) I_2 > 0: sup t = -1/2 at x = -1/2. The 2x2
    block's double weight pulls the centre of phase I's stage mu to x =
    -1/2 - 1/(mu - 2/3) + O(mu^-2), so the least margin at the returned x
    tells how far the path went: -1/2 - min margin = 1/mu."""
    hi = maxdet.AffineMatFn(-np.eye(2), -np.eye(2)[None])
    return maxdet.SdpProblem(1, [scalar_block(0.0, 1.0), hi])


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


def test_sdp_problem_checks_its_counts():
    # 1 + x > 0 and 2 - x > 0: num_vars is a count, det_block a count below
    # the number of blocks, and a bool is neither (det_block=True used to
    # maximize block 1's log det, x -> -1); a whole float reads as its int
    # (1.0 used to fail later, inside numpy or list indexing)
    blocks = [scalar_block(1.0, 1.0), scalar_block(2.0, -1.0)]
    for key, bad in [("num_vars", True), ("num_vars", -1), ("num_vars", 1.5),
                     ("num_vars", np.nan), ("det_block", True),
                     ("det_block", False), ("det_block", -1),
                     ("det_block", 2), ("det_block", 0.5),
                     ("det_block", np.nan)]:
        with pytest.raises(linalg.InvalidInput, match=key):
            maxdet.SdpProblem(**{"num_vars": 1, "constraints": blocks,
                                 "det_block": 0, key: bad})
    whole = maxdet.SdpProblem(1.0, blocks, det_block=1.0)
    assert (whole.num_vars, whole.det_block) == (1, 1)
    assert type(whole.num_vars) is type(whole.det_block) is int
    for det_block, x in [(0, 2.0), (1, -1.0)]:
        sol = maxdet.solve_maxdet(maxdet.SdpProblem(1, blocks, det_block))
        assert sol.status == maxdet.OPTIMAL
        assert abs(sol.x[0] - x) <= 1e-5
    assert maxdet.solve_maxdet(whole).x.tobytes() == sol.x.tobytes()


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
    assert float(np.min(maxdet.check_point(p, sol.x))) >= TARGET


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
    assert float(np.min(sol.min_margins)) >= TARGET / 2


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


def phase_steps(problem, tmp_path, solve=maxdet.solve_maxdet):
    """(phase, Newton steps, status) of each phase of solve(problem), read
    from its trace: a phase-II row counts both phases' steps."""
    path = tmp_path / "steps.csv"
    path.unlink(missing_ok=True)
    solve(problem, maxdet.SolverOptions(trace_path=str(path)))
    rows = [(phase, int(steps), status)
            for phase, steps, status, *_ in trace_rows(path)[1:]]
    return [(phase, steps - (rows[0][1] if phase == "II" else 0), status)
            for phase, steps, status in rows]


def design_problems(monkeypatch, runs):
    """The design problem of every window the closed loops of runs hand to
    synthesize above its data bound: the problems that reach the solver
    when the expansion certificate declines nothing, so solver-Infeasible
    windows included."""
    return [synthesis.build_design_problem(w).problem
            for w in synthesized_windows(monkeypatch, runs)
            if synthesis.presolve_decline(w, TARGET) != synthesis.DATA_BOUND]


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


def test_constant_maxdet_is_optimal_at_phase_one_point(tmp_path):
    # no x moves a constant problem, num_vars = 0 or all-zero coefficients
    # (which used to raise ValueError and SolverBreakdown): one that phase
    # I finds Feasible is Optimal at phase I's x, with a zero KKT residual,
    # no Newton system, and its phase-II row
    path = tmp_path / "trace.csv"
    opts = maxdet.SolverOptions(trace_path=str(path))
    det = np.diag([2.0, 3.0])
    problems = [
        maxdet.SdpProblem(0, [maxdet.AffineMatFn(det, np.zeros((0, 2, 2)))],
                          det_block=0),
        maxdet.SdpProblem(2, [maxdet.AffineMatFn(det, np.zeros((2, 2, 2))),
                              scalar_block(1.0, 0.0, 0.0)], det_block=0)]
    for problem in problems:
        sol, calls = recorded(maxdet.solve_maxdet, problem, opts)
        assert (sol.status, sol.iterations, sol.kkt_residual) == \
            (maxdet.OPTIMAL, 0, 0.0)
        assert np.array_equal(sol.x, np.zeros(problem.num_vars))
        assert [name for name, _, _ in calls
                if name in ("inv", "solve1")] == []
    rows = trace_rows(path)[1:]
    assert [row[:4] for row in rows] == [
        ["I", "0", maxdet.FEASIBLE, "2.0"], ["II", "0", maxdet.OPTIMAL, "2.0"],
        ["I", "0", maxdet.FEASIBLE, "1.0"], ["II", "0", maxdet.OPTIMAL, "1.0"]]
    assert [float(rows[i][4]) for i in (1, 3)] == \
        pytest.approx([np.log(6.0)] * 2, rel=1e-14)


def test_infeasible_reported_from_maxdet():
    p = dataclasses.replace(empty_interior_problem(), det_block=0)
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


def budget_sweep(solve, problem, target=TARGET):
    """solve(problem), after checking it under every Newton budget up to
    the n steps its verdict took: a smaller budget cuts the same path short,
    MaxIter, at a phase-I point short of the target (so the stop fired at
    the first point that reached it); n reaches the verdict's point, and
    n + 1 the verdict bit for bit, since a last stage that ends on its
    decrement test, not on a step, needs budget for that test."""
    sol = solve(problem, maxdet.SolverOptions(strict_margin=target))
    assert sol.status != maxdet.MAXITER and sol.iterations > 0
    for budget in range(1, sol.iterations + 2):
        cut = solve(problem, maxdet.SolverOptions(strict_margin=target,
                                                  max_newton=budget))
        assert np.array_equal(cut.min_margins,
                              maxdet.check_point(problem, cut.x))
        if budget > sol.iterations:
            assert (cut.status, cut.x.tobytes(), cut.kkt_residual) == \
                (sol.status, sol.x.tobytes(), sol.kkt_residual)
        elif budget == sol.iterations:
            assert cut.status in (sol.status, maxdet.MAXITER)
            assert cut.x.tobytes() == sol.x.tobytes()
        else:
            assert (cut.status, cut.iterations) == (maxdet.MAXITER, budget)
            if solve is maxdet.solve_feasibility:
                assert np.min(cut.min_margins) < target
    return sol


def test_newton_stage_converges_at_float_noise():
    # maximize log(1 + x) subject to x < 1e6: at mu = 1e6 the centre x is
    # within 1e-5 of 1e6 - 1, where the steps stop decreasing the objective
    # representably while the Newton decrement is still above NEWTON_TOL;
    # the last stage has converged, so the answer is Optimal, and the
    # reported KKT residual shows the stall
    p = maxdet.SdpProblem(1, [scalar_block(1.0, 1.0),
                              scalar_block(1e6, -1.0)], det_block=0)
    sol = maxdet.solve_maxdet(p)
    assert sol.status == maxdet.OPTIMAL
    assert sol.iterations < maxdet.SolverOptions().max_newton
    assert sol.kkt_residual > 10.0 * maxdet.NEWTON_TOL
    assert abs(sol.x[0] - (1e6 - 1.0)) <= 1e-5


def test_maxdet_status_follows_last_stage():
    # Optimal exactly when the path ran its last stage to convergence: a
    # budget that stops phase I or phase II anywhere short of that is
    # MaxIter, and the full budget returns the optimum, its residual within
    # NEWTON_TOL
    for problem, x in [(one_var_det_problem(), [1.5]),
                       (design_problem(), None)]:
        sol = budget_sweep(maxdet.solve_maxdet, problem)
        assert sol.status == maxdet.OPTIMAL
        assert sol.kkt_residual <= maxdet.NEWTON_TOL
        if x is not None:
            assert np.allclose(sol.x, x, atol=1e-5)


def test_phase1_is_feasible_when_its_stop_fires():
    # Feasible exactly when the stop fired: at the first accepted point
    # whose margins all reach the target, and the margins reported are
    # check_point's there
    for problem, target in [(one_var_det_problem(), TARGET),
                            (band_problem(0.6), 0.5),
                            (design_problem(), TARGET)]:
        sol = budget_sweep(maxdet.solve_feasibility, problem, target)
        assert sol.status == maxdet.FEASIBLE
        assert np.min(sol.min_margins) >= target


def test_phase1_is_infeasible_only_when_its_last_stage_converged(
        monkeypatch):
    # Infeasible exactly when the path ran to MU_MAX, read at each solve,
    # and centred its last stage there below the target: every budget
    # short of that is MaxIter, and the least margin at the returned x is
    # that of the centre at MU_MAX, 1/MU_MAX below sup t = -1/2
    sol = budget_sweep(maxdet.solve_feasibility, gap_problem())
    monkeypatch.setattr(maxdet, "MU_MAX", 1e10)
    longer = maxdet.solve_feasibility(gap_problem())
    for sol, mu_max in ((sol, 1e6), (longer, 1e10)):
        assert sol.status == maxdet.INFEASIBLE
        assert (-0.5 - np.min(sol.min_margins)) * mu_max == \
            pytest.approx(1.0, rel=1e-2)


def test_intermediate_stages_end_at_the_centering_tolerance(tmp_path,
                                                            monkeypatch):
    # the Newton steps of each phase, read from the trace: phase I runs
    # every mu of the grid, 100, 1e3, ..., 1e6, centred to 0.1 / sqrt(mu),
    # phase II every other one, 100, 1e4, 1e6, centred to 0.25 / sqrt(mu),
    # and both centre the last one to NEWTON_TOL. Each tolerance moves only
    # its own phase's steps
    problems = {"design": design_problem(), "one var": one_var_det_problem()}
    steps = {name: phase_steps(p, tmp_path) for name, p in problems.items()}
    steps["empty"] = phase_steps(empty_interior_problem(), tmp_path,
                                 maxdet.solve_feasibility)
    steps["gap"] = phase_steps(gap_problem(), tmp_path,
                               maxdet.solve_feasibility)
    assert steps == {
        "design": [("I", 4, maxdet.FEASIBLE), ("II", 20, maxdet.OPTIMAL)],
        "one var": [("I", 1, maxdet.FEASIBLE), ("II", 4, maxdet.OPTIMAL)],
        "empty": [("I", 22, maxdet.INFEASIBLE)],
        "gap": [("I", 23, maxdet.INFEASIBLE)]}
    monkeypatch.setattr(maxdet, "PHASE2_CENTERING_TOL", 0.1)
    assert phase_steps(problems["design"], tmp_path) == \
        [("I", 4, maxdet.FEASIBLE), ("II", 21, maxdet.OPTIMAL)]
    monkeypatch.undo()
    monkeypatch.setattr(maxdet, "CENTERING_TOL", 0.25)
    assert phase_steps(gap_problem(), tmp_path, maxdet.solve_feasibility) \
        == [("I", 21, maxdet.INFEASIBLE)]
    assert phase_steps(problems["design"], tmp_path) == steps["design"]


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
    # sup t = c: phase I is Feasible exactly when c exceeds the target, at
    # a point whose every margin reaches it, and otherwise Infeasible at the
    # centre x = c; for c on either side of three targets
    for c, target in [(0.3, 0.5), (0.6, 0.5), (0.1, 0.25), (0.4, 0.25),
                      (0.5e-6, 1e-6), (2e-6, 1e-6)]:
        p = band_problem(c)
        sol = maxdet.solve_feasibility(
            p, maxdet.SolverOptions(strict_margin=target))
        assert np.array_equal(sol.min_margins, maxdet.check_point(p, sol.x))
        if c > target:
            assert sol.status == maxdet.FEASIBLE
            assert np.min(sol.min_margins) >= target
        else:
            assert sol.status == maxdet.INFEASIBLE
            assert abs(sol.x[0] - c) <= 1e-9 * c


def test_early_stop_decides_as_check_point_on_a_canonical_run(monkeypatch):
    # every phase-I verdict of a closed-loop run follows check_point's
    # margins, and the stop fires at the first accepted point whose margins
    # reach the target, checked for each point of every Feasible path
    name, plant, cfg = next(s for s in verification.canonical_scenarios()
                            if s[0] == "time-np12-s1")
    feasibility = maxdet.solve_feasibility
    solves = []

    def recording_feasibility(problem, opts=None):
        solves.append((problem, feasibility(problem, opts)))
        return solves[-1][1]

    monkeypatch.setattr(maxdet, "solve_feasibility", recording_feasibility)
    hybrid.run(plant, cfg)
    monkeypatch.undo()
    assert {sol.status for _, sol in solves} == {maxdet.FEASIBLE}
    for problem, sol in solves:
        ref = budget_sweep(maxdet.solve_feasibility, problem)
        assert (ref.status, ref.x.tobytes()) == (sol.status, sol.x.tobytes())


LAPACK_CALLS = ("cholesky_lo", "inv", "solve1", "eigvalsh_lo")


def lapack_recorder(**replace):
    """(stand-in for maxdet._lapack, calls): each call goes to the gufunc,
    its result through replace[name](args, result) where given, and
    (name, args, result) to calls, in call order."""
    calls = []

    def wrapped(name):
        fn = getattr(linalg._lapack, name)

        def call(*args):
            out = fn(*args)
            if name in replace:
                out = replace[name](args, out)
            calls.append((name, args, out))
            return out
        return call

    return types.SimpleNamespace(
        **{name: wrapped(name) for name in LAPACK_CALLS}), calls


def recorded(solve, problem, opts=None, **replace):
    """(solve(problem, opts), calls), see lapack_recorder."""
    lapack, calls = lapack_recorder(**replace)
    with mock.patch.object(maxdet, "_lapack", lapack):
        return solve(problem, opts), calls


def first_call(fn):
    """A replace entry that applies fn to the first call only."""
    seen = []

    def replace(args, out):
        seen.append(1)
        return fn(args, out) if len(seen) == 1 else out
    return replace


def ridged(h):
    """h plus the solver's ridge, 1e-12 times h's mean diagonal entry."""
    return h + 1e-12 * float(np.trace(h)) / len(h) * np.eye(len(h))


def ridges(calls):
    """How many recorded Newton systems went to the ridge, each checked: a
    system is the solve1 of (H, -g) right after the inverse that builds H,
    and goes to the ridge where -g.d is not positive and is NaN or g is not
    zero; then the next two calls factor ridged(H) and solve it for -g, bit
    for bit as numpy does, and otherwise nothing factors ridged(H)."""
    count = 0
    for i, (name, args, d) in enumerate(calls):
        if name != "solve1" or i == 0 or calls[i - 1][0] != "inv":
            continue
        h, rhs = args
        decrement = float(rhs @ d)
        after = calls[i + 1:i + 3]
        factors_ridged = bool(after) and after[0][0] == "cholesky_lo" and \
            after[0][1][0].tobytes() == ridged(h).tobytes()
        if not decrement > 0.0 and (np.isnan(decrement) or np.any(rhs)):
            count += 1
            assert factors_ridged
            (name, (m, b), out) = after[1]
            assert (name, m.tobytes(), b.tobytes()) == \
                ("solve1", ridged(h).tobytes(), rhs.tobytes())
            assert out.tobytes() == np.linalg.solve(m, b).tobytes()
        else:
            assert not factors_ridged
    return count


def test_newton_factors_each_point_once(monkeypatch):
    # every Newton point is built and factored once: the line search's
    # F(x) and its factor feed the next Newton step, and a new stage starts
    # from the previous stage's, so no matrix reaches Cholesky twice in a
    # solve, and each Newton system is one LU solve of a Hessian built from
    # one inverse. On the default grid and on mu = 1, 1.1, ..., 1.7, read
    # at call time, whose stages start a full Newton step from their centre
    problems = [(maxdet.solve_maxdet, one_var_det_problem()),
                (maxdet.solve_maxdet, design_problem()),
                (maxdet.solve_feasibility, gap_problem())]
    for grid in [(), (("MU_INIT", 1.0), ("MU_FACTOR", 1.1),
                      ("MU_MAX", 1.7))]:
        with monkeypatch.context() as m:
            for name, mu in grid:
                m.setattr(maxdet, name, mu)
            for solve, problem in problems:
                sol, calls = recorded(solve, problem)
                assert sol.status in (maxdet.OPTIMAL, maxdet.INFEASIBLE)
                names = [name for name, _, _ in calls]
                factored = [args[0].tobytes() for name, args, _ in calls
                            if name == "cholesky_lo"]
                assert len(set(factored)) == len(factored) > 0
                assert ridges(calls) == 0
                assert names.count("solve1") == names.count("inv") > 0


def test_design_solve_makes_only_the_lapack_calls_it_needs(monkeypatch):
    # the k = 4 design window of a canonical time-triggered run: each
    # Newton system is one LU solve of a Hessian built from the inverse of
    # an F(x) just factored, Cholesky runs only on the F(x) whose diagonal
    # is positive, never on a Hessian, and on none twice, and no call goes
    # through numpy.linalg's wrappers
    name, plant, cfg = next(s for s in verification.canonical_scenarios()
                            if s[0] == "time-np8-s0")
    problems = []

    def first_problem(problem, opts=None):
        problems.append(problem)
        raise maxdet.SolverBreakdown("recorded")

    monkeypatch.setattr(maxdet, "solve_maxdet", first_problem)
    hybrid.run(plant, cfg)
    monkeypatch.undo()

    def wrapper(*args):
        raise AssertionError("a call through numpy.linalg's wrappers")

    with monkeypatch.context() as m:
        for fn in ("inv", "solve", "cholesky"):
            m.setattr(np.linalg, fn, wrapper)
        sol, calls = recorded(maxdet.solve_maxdet, problems[0])
    assert sol.status == maxdet.OPTIMAL
    factored = [args[0] for name, args, _ in calls if name == "cholesky_lo"]
    inverted = [args[0] for name, args, _ in calls if name == "inv"]
    hessians = [args[0] for name, args, _ in calls if name == "solve1"]
    assert ridges(calls) == 0 and len(hessians) == len(inverted) > 0
    assert all(any(f is m for m in factored) for f in inverted)
    assert all(np.all(m.diagonal() > 0.0) for m in factored)
    assert {m.shape for m in factored}.isdisjoint({h.shape for h in hessians})
    assert len({m.tobytes() for m in factored}) == len(factored)


def boundary_maxdet_problem(scale=1.0):
    """Maximize log(1 + x0) subject to [[1, x0], [x0, 1]] > 0 in the
    variable scale * x0: the optimum sits on the boundary x0 = scale, so
    full Newton steps overshoot to trial points whose diagonal is positive
    but which are not positive definite; x1 enters no block, so every
    Hessian is singular."""
    box = np.zeros((2, 2, 2))
    box[0] = [[0.0, 1.0], [1.0, 0.0]]
    return maxdet.SdpProblem(2, [scalar_block(1.0, 1.0 / scale, 0.0),
                                 maxdet.AffineMatFn(np.eye(2), box / scale)],
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
    failed_chol = [m for name, (m, *_), l in calls if name == "cholesky_lo"
                   and np.all(m.diagonal() > 0.0) and np.isnan(l[-1, -1])]
    assert len(failed_chol) > 0
    assert any(np.isnan(d).all() for name, _, d in calls if name == "solve1")


@pytest.mark.parametrize("scale", [1.0, 1e12])
def test_newton_retries_a_singular_hessian(scale):
    # every Hessian is singular, so each LU solve fails and each Newton
    # step goes to the ridge; the ridge is relative to the Hessian's own
    # scale, so the solve takes the steps of scale 1 to the optimum x0 =
    # scale, where a fixed ridge would swamp a Hessian of order 1/scale^2
    sol, calls = recorded(maxdet.solve_maxdet,
                          boundary_maxdet_problem(scale))
    assert sol.status == maxdet.OPTIMAL
    assert abs(sol.x[0] - scale) <= 1e-5 * scale and sol.x[1] == 0.0
    assert sol.iterations == maxdet.solve_maxdet(
        boundary_maxdet_problem()).iterations
    assert ridges(calls) == [name for name, _, _ in calls].count("inv") > 0


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e12])
def test_newton_steps_are_scale_invariant(scale, tmp_path):
    # the optimum x = 1.5 scale; Newton's method is invariant under the
    # change of variable, so every scale takes the steps of scale 1 in
    # each phase, and the same KKT residual to rounding
    problem = one_var_det_problem(scale)
    sol = maxdet.solve_maxdet(problem)
    ref = maxdet.solve_maxdet(one_var_det_problem())
    assert sol.status == maxdet.OPTIMAL
    assert abs(sol.x[0] - 1.5 * scale) <= 1e-6 * scale
    assert phase_steps(problem, tmp_path) == \
        phase_steps(one_var_det_problem(), tmp_path)
    assert sol.kkt_residual == pytest.approx(ref.kkt_residual, rel=1e-3)


def test_newton_retries_a_hessian_that_gives_no_descent(monkeypatch):
    # an LU step that points uphill, or nowhere at a non-zero gradient, is
    # not taken: the Hessian is retried with its ridge, and the solve still
    # reaches the optimum
    for direction in (lambda args, d: -d, lambda args, d: 0.0 * d):
        sol, calls = recorded(maxdet.solve_maxdet, one_var_det_problem(),
                              solve1=first_call(direction))
        assert sol.status == maxdet.OPTIMAL and abs(sol.x[0] - 1.5) < 1e-3
        assert ridges(calls) == 1
    # where Cholesky rejects the ridged Hessian, the solve breaks down
    # after that one LU solve and that one factorization of a Hessian
    lapack, calls = lapack_recorder(
        solve1=first_call(lambda args, d: -d),
        cholesky_lo=lambda args, l: np.full_like(l, np.nan)
        if calls and calls[-1][0] == "solve1" else l)
    monkeypatch.setattr(maxdet, "_lapack", lapack)
    with pytest.raises(maxdet.SolverBreakdown, match="singular"):
        maxdet.solve_maxdet(one_var_det_problem())
    assert [name for name, _, _ in calls][-2:] == ["solve1", "cholesky_lo"]
    h = calls[-2][1][0]
    assert calls[-1][1][0].tobytes() == ridged(h).tobytes()


def symmetric_problem(free):
    """Maximize log det diag(1 + x0, 1 - x0), with free more variables
    that enter no block: at x = 0 every gradient is zero bit for bit."""
    coeffs = np.zeros((1 + free, 2, 2))
    coeffs[0] = np.diag([1.0, -1.0])
    return maxdet.SdpProblem(1 + free, [maxdet.AffineMatFn(np.eye(2), coeffs)],
                             det_block=0)


def test_newton_sends_a_singular_hessian_to_the_ridge_at_a_zero_gradient():
    # phase I is Feasible at x = 0, the optimum, where the gradient is
    # zero: a zero step is no reason for the ridge, but a failed LU solve
    # (NaN, the Hessian singular in the free variable) is; either way each
    # of phase II's three stages has converged without a step
    for free, ridge_count in [(0, 0), (1, 3)]:
        sol, calls = recorded(maxdet.solve_maxdet, symmetric_problem(free))
        assert (sol.status, sol.iterations, sol.kkt_residual) == \
            (maxdet.OPTIMAL, 0, 0.0)
        assert np.array_equal(sol.x, np.zeros(1 + free))
        assert ridges(calls) == ridge_count
        assert [name for name, _, _ in calls].count("inv") == 3


def test_newton_zero_hessian_breaks_down():
    # an inverse of zero makes the Hessian zero: no ridge relative to it
    # makes the Newton system solvable, and the ridged Hessian's zero
    # diagonal rejects it without a LAPACK call
    lapack, calls = lapack_recorder(inv=lambda args, f: 0.0 * f)
    with mock.patch.object(maxdet, "_lapack", lapack), \
            pytest.raises(maxdet.SolverBreakdown, match="singular"):
        maxdet.solve_maxdet(one_var_det_problem())
    assert [name for name, _, _ in calls][-2:] == ["inv", "solve1"]
    assert np.isnan(calls[-1][2]).all()


def test_newton_from_a_nan_point_breaks_down():
    # F(x) is NaN at a NaN point, so it is outside the barrier's domain
    # rather than a point with a NaN value; a block whose margin is NaN, as
    # if its entries had overflowed, first or last, never reaches a target:
    # phase I cannot start
    p = one_var_det_problem()
    barrier, _ = maxdet._phase2_barrier(p, 0.0)
    assert barrier.point(np.array([1.5])) is not None
    assert barrier.point(np.array([np.nan])) is None
    nan_block = scalar_block(1.0, 0.0)
    nan_block.constant[0, 0] = np.nan
    for blocks in ([nan_block] + p.constraints, p.constraints + [nan_block]):
        q = maxdet.SdpProblem(1, blocks)
        assert np.isnan(maxdet.check_point(q, [0.0])).any()
        with pytest.raises(maxdet.SolverBreakdown, match="left the barrier"):
            maxdet.solve_feasibility(q)


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


def assert_chol_is_lapacks(m):
    """_chol(m), under the error state a solve gives it, is LAPACK's factor
    bit for bit, and None exactly where potrf fails or leaves NaN in the
    factor; potrf is called only on a matrix whose diagonal is positive."""
    try:
        ref = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        ref = None
    lapack, calls = lapack_recorder()
    with mock.patch.object(maxdet, "_lapack", lapack), \
            np.errstate(invalid="ignore"):
        l = maxdet._chol(m)
    assert len(calls) == int(np.all(m.diagonal() > 0.0))
    if ref is None or np.isnan(ref[-1, -1]):
        assert l is None
    else:
        assert l.tobytes() == ref.tobytes()


def gram_matrix(rng, n, scale, nan_off):
    """A symmetric matrix with a positive diagonal, definite or not: a Gram
    matrix less a random share of its smallest diagonal entry, with a NaN
    entry and its mirror off the diagonal if nan_off."""
    a = rng.standard_normal((n, n))
    m = a @ a.T
    m -= rng.uniform(0.0, 1.0) * np.min(m.diagonal()) * np.eye(n)
    if nan_off and n > 1:
        i, k = rng.choice(n, 2, replace=False)
        m[i, k] = m[k, i] = np.nan
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
    m = gram_matrix(rng, n, scale, nan_off)
    j = rng.integers(n)
    m[j, j] = bad
    assert_chol_is_lapacks(m)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10 ** 6),
       st.sampled_from([1e-12, 1.0, 1e12]), st.booleans())
def test_chol_with_a_positive_diagonal_is_lapacks(n, seed, scale, nan_off):
    # with a positive diagonal _chol returns LAPACK's factor bit for bit,
    # and None exactly where LAPACK fails or leaves NaN in the factor
    m = gram_matrix(np.random.default_rng(seed), n, scale, nan_off)
    assert np.all(m.diagonal() > 0.0)
    assert_chol_is_lapacks(m)


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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 15), st.integers(0, 10 ** 6), st.sampled_from(KINDS),
       st.sampled_from([1e-12, 1.0, 1e12]))
def test_chol_is_numpys_cholesky(n, seed, kind, scale):
    # _chol answers None exactly where numpy.linalg.cholesky raises or
    # leaves NaN in the factor, and otherwise returns its factor bit for
    # bit
    assert_chol_is_lapacks(
        symmetric_matrix(np.random.default_rng(seed), n, kind, scale))


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
    [(name, args, inv)] = calls
    assert name == "inv" and args[0] is point[1]
    assert inv.tobytes() == np.linalg.inv(point[1]).tobytes()


def test_newton_lu_solve_is_numpys():
    # every Newton direction of a solve is numpy.linalg.solve's bit for
    # bit, and all NaN where it raises; on a design problem, whose
    # Hessians are definite, and on the boundary problem, whose Hessians
    # are singular and go to the ridge
    for problem in (design_problem(), boundary_maxdet_problem()):
        sol, calls = recorded(maxdet.solve_maxdet, problem)
        assert sol.status == maxdet.OPTIMAL
        systems = [(args, d) for name, args, d in calls if name == "solve1"]
        assert systems
        for (h, rhs), d in systems:
            try:
                ref = np.linalg.solve(h, rhs)
            except np.linalg.LinAlgError:
                assert np.isnan(d).all()
            else:
                assert d.tobytes() == ref.tobytes()
        ridges(calls)
