"""Small-scale determinant maximization under LMI constraints.

Problems are affine symmetric-matrix functions of a real decision vector;
every constraint block must be positive definite. A bound on a variable is
an ordinary 1x1 block. Feasibility is decided by a phase-I max-margin
barrier solve, and log-det maximization by the classic MAXDET log-barrier
path following scheme with damped Newton steps.

Both phases stack their blocks into one block-diagonal affine map, built
once per solve, with one barrier weight per row: phase I adds the margin
variable t as a -t I column over every block and its cap t < t_cap as one
more 1x1 block, phase II a copy of the determinant block. One path routine
runs both phases: a stage only changes the weights, and one Newton routine
minimizes every stage. A stage has converged when its Newton decrement
reaches NEWTON_TOL or when an accepted step decreases the objective only at
float-noise level; the maximization is Optimal when the path reached MU_MAX
and its last stage converged. Each Newton point costs one matrix build and
one Cholesky factorization: the line search's F(x), its factor and the
barrier value feed the next gradient and Hessian, and a new stage starts
from the previous stage's F(x) and factor, recomputing only the barrier
value under its weights. The Newton system is tested for positive
definiteness by Cholesky; a Hessian that fails is retried once with a ridge
of 1e-12 times its mean diagonal, a floor relative to its own scale, so that
iterates of any magnitude keep full Newton steps, and one that fails again
is a SolverBreakdown.

Phase I stops after any accepted step at z = (x, t) once every block's own
lambda_min reaches the interior target, the textbook phase-I rule (Boyd &
Vandenberghe, Convex Optimization, sec. 11.4). The line search has just
built F(z), whose blocks are F_i(x) - t I, so F(z) + (t - target) I is the
phase-I map at (x, target), and one Cholesky of it decides what the minimum
over check_point's margins would (a NaN margin never reaches the target).
Stage margins and log-dets are computed only for a trace.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import linalg


class SolverBreakdown(RuntimeError):
    """The iterate left the barrier domain, or the Newton Hessian failed
    Cholesky both as is and with its relative ridge."""


FEASIBLE = "Feasible"
OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
MAXITER = "MaxIter"

# barrier path: weights 1/mu for mu = MU_INIT, MU_INIT * MU_FACTOR, ...,
# MU_MAX; a stage stops when the Newton decrement (affine-invariant
# residual of the barrier subproblem) drops below NEWTON_TOL
MU_INIT = 1.0
MU_MAX = 1e6
MU_FACTOR = 10.0
NEWTON_TOL = 1e-8
# an accepted step that decreases the stage objective by at most this
# relative amount is at float-noise level
_NOISE = 4.0 * np.finfo(float).eps

_TRACE_HEADER = ("phase", "iteration", "mu", "min_margin", "logdet")


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
        for f in self.constraints:
            if f.coeffs.shape[0] != self.num_vars:
                raise linalg.InvalidInput("constraint/variable count mismatch")
        if self.det_block is not None and not (
            0 <= self.det_block < len(self.constraints)
        ):
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
        if self.max_newton < 1:
            raise linalg.InvalidInput(
                "max_newton must be at least 1, got %r" % (self.max_newton,))


def check_point(problem, x):
    """Per-constraint lambda_min at x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != problem.num_vars:
        raise linalg.InvalidInput("decision vector has wrong length")
    out = []
    for f in problem.constraints:
        out.append(float(np.linalg.eigvalsh(f(x))[0]))
    return np.array(out)


def _chol(m):
    """Cholesky factor of m, or None where m is not positive definite. A
    NaN entry need not make LAPACK fail, but it reaches the factor's last
    diagonal entry, so that one test rejects it."""
    try:
        l = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    return None if math.isnan(l[-1, -1]) else l


def _logdet(fn, x):
    """log det fn(x), or None where fn(x) is not positive definite."""
    l = _chol(fn(x))
    return None if l is None else 2.0 * float(np.sum(np.log(np.diag(l))))


def _write_trace(path, rows):
    """Append stage rows to the trace file, after the header row when the
    file is missing or empty, so that it keeps every solve of a run."""
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(_TRACE_HEADER)
        writer.writerows(rows)


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
        p = np.linalg.inv(f) @ self.coeffs
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
    level, so that no further progress is representable; it stops, and
    reports stopped, when early_stop(x, point) holds after an accepted step.
    F, its factor and the value at an accepted point come from the line
    search, so every point is factored once; a point passed in, the previous
    stage's at the same x, lends its F and factor, and only its value is
    recomputed under the current weights. The Hessian is used as is when
    Cholesky accepts it; otherwise once more with 1e-12 * trace(H) / n added
    to its diagonal, and SolverBreakdown is raised if that fails too (a zero
    Hessian).
    """
    steps = 0
    residual = np.inf
    point = barrier.point(x, None if point is None else point[1:])
    if point is None:
        raise SolverBreakdown("iterate left the barrier domain")
    while steps < max_steps:
        val, grad, hess = barrier.terms(point)
        try:
            np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            hess = hess + 1e-12 * float(np.trace(hess)) / len(x) * \
                np.eye(len(x))
            try:
                np.linalg.cholesky(hess)
            except np.linalg.LinAlgError as exc:
                raise SolverBreakdown("singular Newton system") from exc
        d = np.linalg.solve(hess, -grad)
        decrement = float(-grad @ d)
        residual = np.sqrt(max(decrement, 0.0))
        if residual <= tol:
            return x, point, steps, residual, True, False
        alpha = 1.0
        gd = float(grad @ d)
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
    return _chol(f + (z[-1] - target) * np.eye(len(f))) is not None


def _path(barrier, z, weights, budget, reached=None, stage=None):
    """Barrier path from z: one Newton stage per mu = MU_INIT, ...,
    MU_MAX with barrier weights(mu), within budget steps in total. Each
    stage starts from the previous stage's factored point. A stage ends
    early, and the path stops, at an accepted point where
    reached(z, point) holds; stage(total, mu, z) runs after each stage.
    Returns (z, steps, the last stage's Newton decrement, whether the path
    passed MU_MAX and its last stage converged).
    """
    total = 0
    mu = MU_INIT
    residual = np.inf
    converged = False
    point = None
    while mu <= MU_MAX and total < budget:
        barrier.weights = weights(mu)
        z, point, steps, residual, converged, stopped = _newton(
            barrier, z, budget - total, NEWTON_TOL, reached, point)
        total += max(steps, 1)
        if stage is not None:
            stage(total, mu, z)
        mu *= MU_FACTOR
        if stopped:
            break
    return z, total, residual, mu > MU_MAX and converged


def solve_feasibility(problem, opts=None):
    """Decide strict feasibility of all constraint blocks.

    Phase-I scheme: maximize t subject to F_i(x) - t*I > 0 (t capped above)
    and return Feasible as soon as every margin reaches strict_margin,
    Infeasible when the barrier path converges below it.
    """
    opts = opts or SolverOptions()
    if not problem.constraints:
        raise linalg.InvalidInput("constraints must be non-empty")
    target = opts.strict_margin
    if opts.trace_path is not None:
        # a solve that writes no stage rows still leaves the header
        _write_trace(opts.trace_path, [])

    m = problem.num_vars
    x = np.zeros(m)
    margins = check_point(problem, x)
    if np.min(margins) >= target:
        return SdpSolution(x=x, status=FEASIBLE, min_margins=margins)
    # a constant problem is decided exactly at x = 0
    if m == 0 or all(
        np.max(np.abs(f.coeffs)) == 0.0 for f in problem.constraints
    ):
        return SdpSolution(x=x, status=INFEASIBLE, min_margins=margins)

    t_cap = max(1.0, 10.0 * target)
    t0 = min(float(np.min(margins)) - 1.0, t_cap - 1.0)
    rows = []

    def stage(total, mu, z):
        rows.append(("I", total, mu,
                     float(np.min(check_point(problem, z[:m]))), None))

    # objective normalized by mu: minimize -t + (1/mu) * barriers, so
    # line-search decreases stay well above float rounding of the value
    barrier = _phase1_barrier(problem, t_cap)
    z, total, _, _ = _path(
        barrier, np.concatenate([x, [t0]]),
        lambda mu: np.full(len(barrier.constant), 1.0 / mu),
        opts.max_newton,
        lambda z, point: _margin_reached(z, point[1], target),
        stage if opts.trace_path is not None else None)
    if rows:
        _write_trace(opts.trace_path, rows)

    x = z[:m]
    margins = check_point(problem, x)
    if float(np.min(margins)) >= target:
        status = FEASIBLE
    elif total >= opts.max_newton:
        status = MAXITER
    else:
        status = INFEASIBLE
    return SdpSolution(x=x, status=status, min_margins=margins,
                       iterations=total)


def solve_maxdet(problem, opts=None):
    """Maximize log det of the designated block over the LMI constraints."""
    opts = opts or SolverOptions()
    if problem.det_block is None:
        raise linalg.InvalidInput("det_block must be set for solve_maxdet")
    phase1 = solve_feasibility(problem, opts)
    if phase1.status != FEASIBLE:
        return phase1

    det_fn = problem.constraints[problem.det_block]
    rows = []

    def stage(total, mu, x):
        logdet = _logdet(det_fn, x)
        rows.append(("II", phase1.iterations + total, mu,
                     float(np.min(check_point(problem, x))),
                     np.nan if logdet is None else logdet))

    # Barrier constraints are shifted by strict_margin/2 so accepted points
    # keep at least that margin. The stage objective is normalized by mu
    # (barrier weight 1/mu, unit det term), making the returned gradient
    # norm the KKT residual directly.
    barrier, det_rows = _phase2_barrier(problem, 0.5 * opts.strict_margin)
    x, total, residual, finished = _path(
        barrier, phase1.x, lambda mu: np.where(det_rows, 1.0, 1.0 / mu),
        opts.max_newton - phase1.iterations,
        stage=stage if opts.trace_path is not None else None)
    if rows:
        _write_trace(opts.trace_path, rows)

    return SdpSolution(x=x, status=OPTIMAL if finished else MAXITER,
                       min_margins=check_point(problem, x),
                       iterations=phase1.iterations + total,
                       kkt_residual=residual)
