"""Small-scale determinant maximization under LMI constraints.

Problems are affine symmetric-matrix functions of a real decision vector;
every constraint block must be positive definite. A bound on a variable is
an ordinary 1x1 block. Feasibility is decided by a phase-I max-margin
barrier solve, and log-det maximization by the classic MAXDET log-barrier
path following scheme with damped Newton steps.

Phase I runs the stages mu = MU_INIT, MU_INIT * MU_FACTOR, ..., MU_MAX,
that is 100, 1e3, ..., 1e6, the first barrier weight chosen as in Boyd &
Vandenberghe (Convex Optimization, sec. 11.3.1). At the centre of stage mu
each of the m barrier rows has a slack of about m / mu; the phase-I map of
a design problem has m = 4 nx + T + 2 rows, 14 at nx = nu = 2 (T = nx +
nu) and at most 100 while nx <= 16 and nu <= nx. Phase I starts at t0 =
min margin - 1, a slack of at least 1 on every row, so a stage with
m / mu > 1 has its centre at or below the start and can only move t away
from the target. mu = 100 is the first stage of the grid that moves
toward the target. Phase I's path decides its verdict, and a coarser grid
flips verdicts, so its grid stays. Phase II's path decides nothing: its
only output is the point centred at MU_MAX. So it runs every other stage
of phase I's grid and ends on the same last one, 100, 1e4, 1e6 (Boyd &
Vandenberghe, sec. 11.3; Vandenberghe, Boyd & Wu, SIAM J. Matrix Anal.
Appl. 1998, for MAXDET). It shares phase I's start, which saves it steps
as well; a start at 1000 or later costs phase II more steps than it
saves. Both grids are read from MU_INIT, MU_FACTOR and MU_MAX at each
solve.

Both phases stack their blocks into one block-diagonal affine map, built
once per solve, with one barrier weight per row: phase I adds the margin
variable t as a -t I column over every block and its cap t < t_cap as one
more 1x1 block, phase II a copy of the determinant block. One path routine
runs either phase's stages: a stage only changes the weights and the
tolerance, and one Newton routine minimizes every stage. The last stage,
mu = MU_MAX, has converged when its Newton decrement reaches NEWTON_TOL or
when an accepted step decreases the objective only at float-noise level;
the maximization is Optimal when the path reached MU_MAX and that stage
converged. Every earlier stage ends once its mu-normalized decrement is at
most c / sqrt(mu) (or at float noise), that is once mu times the stage
objective has a decrement of at most c. That function is self-concordant in
both phases (the barrier plus a linear term, or plus mu >= 1 times -log
det), so its objective is then within c^2 of the stage's centre, and a
decrement of at most eta = (1 - 2 alpha) / 4, 0.24995 at the line search's
alpha = 1e-4, puts the point in Newton's quadratically convergent region,
where every step is a full step and 2 lambda+ <= (2 lambda)^2 (Boyd &
Vandenberghe, Convex Optimization, sec. 9.6.4 and 11.5). Phase I takes c =
CENTERING_TOL = 0.1, inside that region. Phase II takes c =
PHASE2_CENTERING_TOL = 0.25, just above eta, so that guarantee does not
cover it; 0.25 was chosen by measurement: it saves phase II more steps
than 0.1 (seed-1 scheduled-redesign pass: 3,177 against 3,384) and moves
no decision. Such a point serves the next stage as a warm start as well
as the exact centre would, and no other use is made of it: the solution,
its margins and the m/mu gap are read only at the last stage's point,
centred as tightly as before. The step counts (`iterations`,
`max_newton`) are of Newton steps taken, so a stage that starts centred
costs nothing; a phase-II solution's `iterations`, and its trace row,
count both phases' steps. Each Newton point costs one matrix build and
one Cholesky factorization: the line search's F(x), its factor and the
barrier value feed the next gradient and Hessian, and a new stage starts
from the previous stage's F(x) and factor, recomputing only the barrier
value under its weights. The Newton system is solved by LU; retried with the
ridge when LU finds it singular or the step is not a descent direction. The
ridge is 1e-12 times the Hessian's mean diagonal, a floor relative to its own
scale, so that iterates of any magnitude keep full Newton steps; a ridged
Hessian that fails Cholesky is a SolverBreakdown.

The Newton step, its ridge retry included, and `check_point` call numpy's
LAPACK gufuncs (`numpy.linalg._umath_linalg`, imported once in `linalg`:
cholesky_lo, inv, solve1 and eigvalsh_lo) directly. They are the calls
np.linalg makes, so every result is the same bit for bit, but np.linalg's
wrapper (array conversion, type dispatch, an error-state context) costs
more than LAPACK does on matrices of 15 rows. A gufunc that fails returns
its output filled with NaN instead of raising: a NaN factor's last
diagonal entry rejects the matrix, a NaN Newton decrement sends the step
to the ridge, as LinAlgError did, and a NaN margin reaches no target. A
failed call also sets the floating-point invalid flag, so `_newton` runs
each stage inside one errstate(invalid="ignore"), and `_logdet` inside
its own.

Phase I stops after any accepted step at z = (x, t) once every block's own
lambda_min reaches the interior target, the textbook phase-I rule (Boyd &
Vandenberghe, Convex Optimization, sec. 11.4). The line search has just
built F(z), whose blocks are F_i(x) - t I, so F(z) + (t - target) I is the
phase-I map at (x, target), and one Cholesky of it decides what the minimum
over check_point's margins would (a NaN margin never reaches the target).
That stop gives the verdict: Feasible when it fired, Infeasible when the
path passed MU_MAX with its last stage converged, MaxIter otherwise; one
check_point at the returned point reports the margins.

A trace (`SolverOptions.trace_path`) gets one row per phase of each solve,
read from the SdpSolution that phase returns: phase I's row from
`solve_feasibility`, the x = 0 decisions included, then phase II's from
`solve_maxdet`. Only the phase-II log-det is computed for it.

The verdicts are the contract the tests check, through the public
functions and the trace: phase I's as above, so that every budget short
of a verdict's steps is MaxIter; `solve_maxdet` returns phase I's solution
unless it is Feasible, and is then Optimal exactly when phase II's last
stage converged, with that stage's Newton decrement as `kkt_residual` (a
constant problem, which no path moves, is Optimal at phase I's point with
a residual of 0.0); `min_margins` is check_point at the returned x. Their
one seam into the internals is `_lapack`, the gufunc module through which
every Cholesky, inverse, LU solve and eigenvalue call goes: a test
replaces it to count or check those calls, or to hand the Newton step a
failed or uphill solve1 and so drive the ridge rule.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import linalg

_lapack = linalg._lapack


class SolverBreakdown(RuntimeError):
    """The iterate left the barrier domain, or the Newton Hessian, singular
    or giving no descent direction, failed Cholesky with its relative
    ridge."""


FEASIBLE = "Feasible"
OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
MAXITER = "MaxIter"

# barrier path: weights 1/mu for mu = MU_INIT, MU_INIT * MU_FACTOR, ...,
# MU_MAX in phase I, every other one and MU_MAX in phase II; the last stage
# stops when the Newton decrement (affine-invariant residual of the barrier
# subproblem) drops below NEWTON_TOL, every earlier stage when the
# decrement of mu times its objective, the self-concordant stage function,
# drops below CENTERING_TOL in phase I and PHASE2_CENTERING_TOL in phase
# II. Why MU_INIT is 100 and why the phases differ: module docstring.
MU_INIT = 100.0
MU_MAX = 1e6
MU_FACTOR = 10.0
NEWTON_TOL = 1e-8
CENTERING_TOL = 0.1
PHASE2_CENTERING_TOL = 0.25
# an accepted step that decreases the stage objective by at most this
# relative amount is at float-noise level
_NOISE = 4.0 * np.finfo(float).eps

_TRACE_HEADER = ("phase", "iteration", "status", "min_margin", "logdet")


@dataclass
class AffineMatFn:
    """F(x) = constant + sum_i x_i * coeffs[i], all blocks symmetric."""

    constant: np.ndarray
    coeffs: np.ndarray  # shape (num_vars, dim, dim)

    def __post_init__(self):
        self.constant = linalg.symmetrize(self.constant)
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 3 or c.shape[1:] != self.constant.shape:
            raise linalg.InvalidInput("coefficient stack has wrong shape")
        self.coeffs = 0.5 * (c + np.transpose(c, (0, 2, 1)))

    @property
    def dim(self):
        return self.constant.shape[0]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.constant + np.einsum("i,iab->ab", x, self.coeffs)


@dataclass
class SdpProblem:
    num_vars: int
    constraints: list
    det_block: int | None = None

    def __post_init__(self):
        self.num_vars = linalg.as_count(self.num_vars, "num_vars", least=0)
        for f in self.constraints:
            if f.coeffs.shape[0] != self.num_vars:
                raise linalg.InvalidInput("constraint/variable count mismatch")
        if self.det_block is not None:
            self.det_block = linalg.as_count(self.det_block, "det_block",
                                             least=0)
            if self.det_block >= len(self.constraints):
                raise linalg.InvalidInput("det_block index out of range")


@dataclass
class SdpSolution:
    x: np.ndarray
    status: str
    min_margins: np.ndarray
    iterations: int = 0
    kkt_residual: float | None = None


@dataclass
class SolverOptions:
    strict_margin: float = 1e-6  # phase-I interior target, in (0, 1)
    max_newton: int = 500        # Newton step budget per solve, >= 1
    trace_path: str | None = None

    def __post_init__(self):
        if not 0.0 < self.strict_margin < 1.0:
            raise linalg.InvalidInput(
                "strict_margin must lie in (0, 1), got %r"
                % (self.strict_margin,))
        self.max_newton = linalg.as_count(self.max_newton, "max_newton")


def check_point(problem, x):
    """Per-constraint lambda_min at x; NaN for a block whose eigenvalue call
    fails. A non-finite x raises InvalidInput: LAPACK can return finite
    eigenvalues for a matrix with a NaN entry."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != problem.num_vars:
        raise linalg.InvalidInput("decision vector has wrong length")
    if not np.isfinite(x).all():
        raise linalg.InvalidInput("decision vector has non-finite entries")
    out = []
    for f in problem.constraints:
        out.append(float(_lapack.eigvalsh_lo(f(x))[0]))
    return np.array(out)


def _chol(m):
    """Cholesky factor of m, or None where m is not positive definite. A
    non-positive or NaN diagonal entry (the minimum propagates NaN) is
    rejected without calling LAPACK: the j-th pivot is m_jj minus a sum of
    squares, so potrf fails there anyway. A NaN entry need not make LAPACK
    fail, but it reaches the factor's last diagonal entry, so that one test
    rejects it. A failed factorization comes back filled with NaN and sets
    the invalid flag, which the caller's error state must ignore."""
    if not np.minimum.reduce(m.diagonal()) > 0.0:
        return None
    l = _lapack.cholesky_lo(m)
    return None if math.isnan(l[-1, -1]) else l


def _logdet(fn, x):
    """log det fn(x), or None where fn(x) is not positive definite."""
    with np.errstate(invalid="ignore"):
        l = _chol(fn(x))
    return None if l is None else 2.0 * float(np.sum(np.log(np.diag(l))))


def _constant(problem):
    """Whether no constraint depends on x, num_vars = 0 included."""
    return not any(np.any(f.coeffs) for f in problem.constraints)


def _write_trace(path, phase, sol, logdet=None):
    """Append the row of one solve phase, read from the solution it
    returns, to the trace file, after the header row when the file is
    missing or empty, so that it keeps every solve of a run."""
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(_TRACE_HEADER)
        writer.writerow((phase, sol.iterations, sol.status,
                         float(np.min(sol.min_margins)), logdet))


def _block_diag(fns):
    """Constant and coefficient stack of the blocks placed on one diagonal."""
    dim = sum(f.dim for f in fns)
    constant = np.zeros((dim, dim))
    coeffs = np.zeros((fns[0].coeffs.shape[0], dim, dim))
    pos = 0
    for f in fns:
        s = slice(pos, pos + f.dim)
        constant[s, s] = f.constant
        coeffs[:, s, s] = f.coeffs
        pos += f.dim
    return constant, coeffs


class _Barrier:
    """phi(x) = lin.x - sum_j w_j logdet F_j(x) over block-diagonal F(x).

    F(x) = constant + sum_k x_k coeffs[k] holds every constraint block on
    its diagonal, and `weights` has one entry per row of F, equal within a
    block. With F = L L^T the barrier is -2 sum_i w_i log L_ii; with
    P_k = F^-1 C_k the gradient is lin_k - tr(W P_k) and the Hessian
    tr(W P_k P_l), W = diag(weights).
    """

    def __init__(self, constant, coeffs, lin):
        self.constant = constant
        self.coeffs = coeffs
        self.flat = coeffs.reshape(len(coeffs), -1)
        self.lin = lin
        self.weights = np.ones(len(constant))

    def _matrix(self, x):
        return self.constant + (x @ self.flat).reshape(self.constant.shape)

    def point(self, x, factored=None):
        """(phi(x), F(x), L) with F(x) = L L^T, or None where F(x) is not
        positive definite. factored, the (F(x), L) of an earlier point at
        the same x, skips the build and the factorization."""
        if factored is None:
            f = self._matrix(x)
            l = _chol(f)
            if l is None:
                return None
        else:
            f, l = factored
        value = -2.0 * float(self.weights @ np.log(l.diagonal())) + \
            float(self.lin @ x)
        return value, f, l

    def terms(self, point):
        """(value, gradient, Hessian) at x, given point = self.point(x)."""
        value, f, _ = point
        # F has just been Cholesky-factored, so its LU cannot fail
        p = _lapack.inv(f) @ self.coeffs
        wp = self.weights[:, None] * p
        grad = self.lin - np.einsum("kaa->k", wp)
        hess = wp.reshape(len(p), -1) @ \
            p.transpose(0, 2, 1).reshape(len(p), -1).T
        return value, grad, hess


def _phase1_barrier(problem, t_cap):
    """-t plus the barrier of every F_i(x) - t I > 0 and of t_cap - t > 0
    over z = (x, t); all blocks, the cap included, share the -t I column."""
    m = problem.num_vars
    cap = AffineMatFn(np.array([[t_cap]]), np.zeros((m, 1, 1)))
    constant, coeffs = _block_diag(problem.constraints + [cap])
    coeffs = np.concatenate([coeffs, -np.eye(len(constant))[None]])
    return _Barrier(constant, coeffs, lin=-np.eye(m + 1)[m])


def _phase2_barrier(problem, shift):
    """Barrier of every F_i(x) - shift I > 0 plus an unshifted copy of the
    det block at the end of the stack; returns it with that copy's rows."""
    det_fn = problem.constraints[problem.det_block]
    constant, coeffs = _block_diag(problem.constraints + [det_fn])
    det_rows = np.arange(len(constant)) >= len(constant) - det_fn.dim
    barrier = _Barrier(constant - shift * np.diag(~det_rows), coeffs,
                       np.zeros(problem.num_vars))
    return barrier, det_rows


def _newton(barrier, x, max_steps, tol, early_stop=None, point=None):
    """Damped Newton on the barrier from x.

    Returns (x, point, steps, decrement, converged, stopped) with point =
    barrier.point(x) at the returned x. The stage converges when the Newton
    decrement reaches tol or when the accepted decrease is at float-noise
    level, so that no further progress is representable; `_path` passes
    NEWTON_TOL for its last stage and the looser tolerance of `_stages`,
    for a point it uses only as a warm start, for every other. It stops, and
    reports stopped, when early_stop(x, point) holds after an accepted step.
    F, its factor and the value at an accepted point come from the line
    search, so every point is factored once; a point passed in, the previous
    stage's at the same x, lends its F and factor, and only its value is
    recomputed under the current weights. The Newton system is solved by LU;
    retried with the ridge when LU finds it singular (the decrement is then
    NaN, whatever the gradient) or the step is not a descent direction at a
    non-zero gradient: 1e-12 * trace(H) / n is added to the Hessian's
    diagonal, and SolverBreakdown is raised if `_chol` rejects the ridged
    Hessian (a zero, indefinite or NaN one); otherwise LU solves it.
    """
    # a failed gufunc call (a rejected factor, a singular LU solve) sets
    # the invalid flag; one context covers every call of the stage
    with np.errstate(invalid="ignore"):
        steps = 0
        residual = np.inf
        point = barrier.point(x, None if point is None else point[1:])
        if point is None:
            raise SolverBreakdown("iterate left the barrier domain")
        while steps < max_steps:
            val, grad, hess = barrier.terms(point)
            # a singular Hessian's LU solve comes back filled with NaN
            d = _lapack.solve1(hess, -grad)
            decrement = float(-grad @ d)
            if not decrement > 0.0 and (math.isnan(decrement) or np.any(grad)):
                hess = hess + 1e-12 * float(np.trace(hess)) / len(x) * \
                    np.eye(len(x))
                if _chol(hess) is None:
                    raise SolverBreakdown("singular Newton system")
                d = _lapack.solve1(hess, -grad)
                decrement = float(-grad @ d)
            residual = math.sqrt(max(decrement, 0.0))
            if residual <= tol:
                return x, point, steps, residual, True, False
            alpha = 1.0
            gd = -decrement
            while alpha > 1e-14:
                trial = x + alpha * d
                trial_point = barrier.point(trial)
                if trial_point is not None and \
                        trial_point[0] <= val + 1e-4 * alpha * gd:
                    break
                alpha *= 0.5
            if alpha <= 1e-14:
                break
            x, point = trial, trial_point
            steps += 1
            if early_stop is not None and early_stop(x, point):
                return x, point, steps, residual, False, True
            if val - point[0] <= _NOISE * (1.0 + abs(val)):
                return x, point, steps, residual, True, False
        return x, point, steps, residual, False, False


def _margin_reached(z, f, target):
    """Whether every block's lambda_min at the phase-I point z = (x, t)
    reaches target, i.e. np.min(check_point(problem, x)) >= target, given
    f = F(z), whose blocks are F_i(x) - t I. f + (t - target) I is the
    phase-I map at (x, target), so one Cholesky decides; the cap block
    t_cap - target is positive. A NaN entry reads as not reached."""
    g = f.copy()
    g.flat[::len(g) + 1] += z[-1] - target
    return _chol(g) is not None


def _stages(stride, centering):
    """(mu, Newton tolerance) of each stage of a path on phase I's grid mu =
    MU_INIT, MU_INIT * MU_FACTOR, ..., MU_MAX, read at call time: every
    stride-th mu from MU_INIT, and the grid's last one. The last stage is
    centred to NEWTON_TOL, every earlier one to centering / sqrt(mu)."""
    grid = []
    mu = MU_INIT
    while mu <= MU_MAX:
        grid.append(mu)
        mu *= MU_FACTOR
    mus = grid[:-1:stride] + grid[-1:]
    return [(mu, centering / math.sqrt(mu)) for mu in mus[:-1]] + \
        [(mu, NEWTON_TOL) for mu in mus[-1:]]


def _path(barrier, z, weights, stages, budget, reached=None):
    """Barrier path from z: one Newton stage per (mu, tol) of stages, with
    barrier weights(mu), within budget steps in total. Each stage starts
    from the previous stage's factored point. An earlier stage's point is
    used only as the next stage's start, so its tol need only put it in or
    near Newton's quadratic region for mu times the self-concordant stage
    objective (module docstring). A stage ends early, and the path stops,
    at an accepted point where reached(z, point) holds. Returns (z, the
    Newton steps taken, the last stage's Newton decrement, whether the path
    ran its last stage and that stage converged, whether it stopped).
    """
    total = 0
    residual = np.inf
    converged = stopped = False
    point = None
    run = 0
    for mu, tol in stages:
        if total >= budget:
            break
        barrier.weights = weights(mu)
        z, point, steps, residual, converged, stopped = _newton(
            barrier, z, budget - total, tol, reached, point)
        total += steps
        run += 1
        if stopped:
            break
    return z, total, residual, run == len(stages) and converged, stopped


def solve_feasibility(problem, opts=None):
    """Decide strict feasibility of all constraint blocks.

    Phase-I scheme: maximize t subject to F_i(x) - t*I > 0 (t capped above).
    The path's own stop test decides: Feasible when it stopped because
    every margin reached strict_margin, Infeasible when it passed MU_MAX
    with its last stage converged below it, MaxIter otherwise. A problem
    feasible at x = 0, or constant, is decided there without a path.
    """
    opts = opts or SolverOptions()
    if not problem.constraints:
        raise linalg.InvalidInput("constraints must be non-empty")
    target = opts.strict_margin

    m = problem.num_vars
    x = np.zeros(m)
    margins = check_point(problem, x)
    if np.min(margins) >= target:
        sol = SdpSolution(x=x, status=FEASIBLE, min_margins=margins)
    elif _constant(problem):
        sol = SdpSolution(x=x, status=INFEASIBLE, min_margins=margins)
    else:
        t_cap = max(1.0, 10.0 * target)
        t0 = min(float(np.min(margins)) - 1.0, t_cap - 1.0)
        # objective normalized by mu: minimize -t + (1/mu) * barriers, so
        # line-search decreases stay well above float rounding of the value
        barrier = _phase1_barrier(problem, t_cap)
        z, total, _, finished, stopped = _path(
            barrier, np.concatenate([x, [t0]]),
            lambda mu: np.full(len(barrier.constant), 1.0 / mu),
            _stages(1, CENTERING_TOL), opts.max_newton,
            lambda z, point: _margin_reached(z, point[1], target))
        x = z[:m]
        sol = SdpSolution(
            x=x, status=FEASIBLE if stopped else INFEASIBLE if finished
            else MAXITER, min_margins=check_point(problem, x),
            iterations=total)
    if opts.trace_path is not None:
        _write_trace(opts.trace_path, "I", sol)
    return sol


def solve_maxdet(problem, opts=None):
    """Maximize log det of the designated block over the LMI constraints:
    phase I's solution unless it is Feasible, then phase II's, Optimal
    when its last stage converged and MaxIter otherwise (module
    docstring)."""
    opts = opts or SolverOptions()
    if problem.det_block is None:
        raise linalg.InvalidInput("det_block must be set for solve_maxdet")
    phase1 = solve_feasibility(problem, opts)
    if phase1.status != FEASIBLE:
        return phase1

    if _constant(problem):
        # every x is optimal, phase I's too, and the gradient is zero
        x, total, residual, finished = phase1.x, 0, 0.0, True
    else:
        # Barrier constraints are shifted by strict_margin/2 so accepted
        # points keep at least that margin. The stage objective is
        # normalized by mu (barrier weight 1/mu, unit det term), making the
        # returned gradient norm the KKT residual directly.
        barrier, det_rows = _phase2_barrier(problem,
                                            0.5 * opts.strict_margin)
        x, total, residual, finished, _ = _path(
            barrier, phase1.x, lambda mu: np.where(det_rows, 1.0, 1.0 / mu),
            _stages(2, PHASE2_CENTERING_TOL),
            opts.max_newton - phase1.iterations)
    sol = SdpSolution(x=x, status=OPTIMAL if finished else MAXITER,
                      min_margins=check_point(problem, x),
                      iterations=phase1.iterations + total,
                      kkt_residual=residual)
    if opts.trace_path is not None:
        logdet = _logdet(problem.constraints[problem.det_block], x)
        _write_trace(opts.trace_path, "II", sol,
                     np.nan if logdet is None else logdet)
    return sol
