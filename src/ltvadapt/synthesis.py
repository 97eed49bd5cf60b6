"""Data-driven state-feedback design from a single window of measurements.

A feasible design produces a gain K together with a quadratic certificate
(S, F, a1, a2): V(x) = x^T S x decreases at rate a1 along the nominal
closed loop, and the decrease degrades gracefully (rate a1 + a2 * eps)
for any plant in the data-consistency set inflated by eps. The design
problem is a determinant-maximization SDP solved by the in-package
solver; the product Xhat Y is constrained to be symmetric by restricting
Y to the null space of the skew-symmetry conditions.

`synthesize` declines a window without building or solving the SDP when
its data are too small for any design to reach the solver's strict
margin: ||Xhat||_2^2 < 2 * strict_margin (derived in `synthesize`),
which includes every window with Xhat = 0. Every other window goes to
`maxdet.solve_maxdet`.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, maxdet, proximity
from .window import DataWindow

logger = logging.getLogger(__name__)

DEFAULT_EPS_F = 0.1

# status logged when a window is declined by the data bound, before any solve
DATA_BOUND = "DataBound"

# relative excess of a contraction factor over its certified rate that
# verify_property accepts
PROPERTY_REL_TOL = 1e-7


@dataclass(frozen=True)
class ControllerBundle:
    """Gain plus certificate extracted from one synthesis solve."""

    K: np.ndarray
    S: np.ndarray
    F: np.ndarray
    a1: float
    a2: float
    a: float
    varsigma: float
    window: DataWindow
    solver_status: str = ""

    def lyapunov(self, x):
        """V(x) = x S x of a float vector x that the caller has checked, as
        `hybrid.run` checks its state; a vector of the wrong length raises
        ValueError from the product."""
        return float(x @ self.S @ x)

    def rate(self, eps):
        """Certified contraction factor a1 + a2 * eps for plants within
        inflation eps. eps may be an array of inflations, which gives an
        array with one factor per inflation; each is nonnegative."""
        if np.any(np.asarray(eps) < 0):
            raise linalg.InvalidInput("inflation must be nonnegative")
        return self.a1 + self.a2 * eps


def theta_exact(a, b, k_gain, s):
    """Tight one-step contraction of V(., s) under the true closed loop:
    lambda_max(S^-1/2 Acl^T S Acl S^-1/2) with Acl = A + B K, the smallest
    t with Acl^T S Acl <= t S, which a certified rate must dominate.

    a and b may be stacks of plant pairs along a leading axis, all under
    the one gain and certificate; S^-1/2 is then taken once and the result
    is an array with one factor per pair, each equal bit for bit to the
    float a single call returns. A closed loop whose quadratic form
    overflows raises InvalidInput.
    """
    acl = np.asarray(a, dtype=float) + np.asarray(b, dtype=float) @ k_gain
    # an overflow leaves non-finite entries, which gen_eig_max's
    # symmetrize rejects
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.swapaxes(acl, -2, -1) @ s @ acl
    return linalg.gen_eig_max(m, s)


def fallback_bundle(w):
    """Zero gain with a unit certificate, used when design is infeasible
    at the forced initial synthesis."""
    nx = w.nx
    return ControllerBundle(
        K=np.zeros((w.nu, nx)),
        S=np.eye(nx),
        F=np.eye(nx),
        a1=1.0,
        a2=0.0,
        a=0.0,
        varsigma=0.0,
        window=w,
        solver_status="Fallback",
    )


def _symmetry_nullspace(xhat):
    """Basis Y_i of matrices with Xhat @ Y_i symmetric.

    Each strictly upper pair (r, c) gives one row of the constraint matrix
    on vec(Y) (row-major, entry Y[s, j] at s * nx + j): skew(Xhat Y)[r, c]
    takes xhat[r, s] from Y[s, c] and -xhat[c, s] from Y[s, r]. Returns an
    array of shape (d, T, nx); the basis is deterministic (right singular
    vectors of the constraint matrix beyond its numerical rank), and the
    identity basis when nx = 1 leaves nothing to constrain.
    """
    nx, t = xhat.shape
    r, c = np.triu_indices(nx, 1)
    if not r.size:
        return np.eye(t * nx).reshape(-1, t, nx)
    rows = np.arange(r.size)
    cmat = np.zeros((r.size, t, nx))
    cmat[rows, :, c] += xhat[r]
    cmat[rows, :, r] -= xhat[c]
    cmat = cmat.reshape(r.size, t * nx)
    _, sig, vt = linalg.svd(cmat)
    tol = max(cmat.shape) * np.finfo(float).eps * sig[0]
    rank = int(np.sum(sig > tol))
    return vt[rank:].reshape(-1, t, nx)


def _svec_basis(nx):
    """Symmetric basis E_ij = e_i e_j^T + e_j e_i^T (E_ii has a single 1
    at (i, i)) for i <= j, in row-major upper-triangle order; shape
    (nx (nx + 1) / 2, nx, nx)."""
    i, j = np.triu_indices(nx)
    rows = np.arange(i.size)
    basis = np.zeros((i.size, nx, nx))
    basis[rows, i, j] = 1.0
    basis[rows, j, i] = 1.0
    return basis


@dataclass
class _DesignProblem:
    problem: maxdet.SdpProblem
    y_basis: np.ndarray
    h_basis: np.ndarray

    def unpack(self, x):
        d_y = self.y_basis.shape[0]
        varsigma = float(x[0])
        y = np.einsum("i,iab->ab", x[1:1 + d_y], self.y_basis)
        h = np.einsum("i,iab->ab", x[1 + d_y:], self.h_basis)
        return varsigma, y, linalg.symmetrize(h)


def build_design_problem(w):
    """Assemble the SDP whose solution yields (K, S, F, a1, a2).

    The decision vector is [varsigma | Y coordinates | svec H]: Y is the
    combination of the `_symmetry_nullspace` basis, so that P = Xhat Y is
    symmetric (the parametrization of De Persis and Tesi, IEEE TAC 2020),
    and H that of the `_svec_basis`. Each block's coefficients are filled
    for the whole stacked Y basis at once:
      1. [[P - varsigma X X^T - H, X Y], [(X Y)^T, P]] > 0,
      2. [[I_T, Y], [Y^T, P]] > 0,
      3. H > 0, the determinant block of the objective,
      4. varsigma > 0.
    """
    xhat, x = w.Xhat, w.X
    nx, t = xhat.shape
    y_basis = _symmetry_nullspace(xhat)
    h_basis = _svec_basis(nx)
    d_y = y_basis.shape[0]
    nvar = 1 + d_y + h_basis.shape[0]
    ys = slice(1, 1 + d_y)
    hs = slice(1 + d_y, nvar)
    py = linalg.symmetrize(xhat @ y_basis)
    xy = x @ y_basis

    c1 = np.zeros((nvar, 2 * nx, 2 * nx))
    c1[0, :nx, :nx] = -(x @ x.T)
    c1[ys, :nx, :nx] = py
    c1[ys, :nx, nx:] = xy
    c1[ys, nx:, :nx] = xy.swapaxes(1, 2)
    c1[ys, nx:, nx:] = py
    c1[hs, :nx, :nx] = -h_basis

    k2 = np.zeros((t + nx, t + nx))
    k2[:t, :t] = np.eye(t)
    c2 = np.zeros((nvar, t + nx, t + nx))
    c2[ys, :t, t:] = y_basis
    c2[ys, t:, :t] = y_basis.swapaxes(1, 2)
    c2[ys, t:, t:] = py

    c3 = np.zeros((nvar, nx, nx))
    c3[hs] = h_basis

    c4 = np.zeros((nvar, 1, 1))
    c4[0, 0, 0] = 1.0

    problem = maxdet.SdpProblem(
        num_vars=nvar,
        constraints=[maxdet.AffineMatFn(np.zeros((2 * nx, 2 * nx)), c1),
                     maxdet.AffineMatFn(k2, c2),
                     maxdet.AffineMatFn(np.zeros((nx, nx)), c3),
                     maxdet.AffineMatFn(np.zeros((1, 1)), c4)],
        det_block=2,
    )
    return _DesignProblem(problem=problem, y_basis=y_basis, h_basis=h_basis)


def extract_bundle(w, design, solution, eps_F=DEFAULT_EPS_F):
    """Gain and certificate from a solved design problem."""
    if not 0.0 < eps_F < 1.0:
        raise linalg.InvalidInput("eps_F must lie in (0, 1)")
    varsigma, y, h = design.unpack(solution.x)
    p = linalg.symmetrize(w.Xhat @ y)
    s = linalg.pd_inverse(p)
    k = w.U @ y @ s
    sig_hat = varsigma / (varsigma + 1.0)
    f = linalg.symmetrize((1.0 - eps_F) * sig_hat * h)
    # largest a' with a' S^{-1} <= eps_F H; S^{-1} = P
    a = eps_F * float(linalg.gen_eig_min(h, p))
    a1 = 1.0 - a
    a2 = 1.0 + 1.0 / varsigma
    return ControllerBundle(
        K=k,
        S=linalg.symmetrize(s),
        F=f,
        a1=a1,
        a2=a2,
        a=a,
        varsigma=varsigma,
        window=w,
        solver_status=solution.status,
    )


def synthesize(w, eps_F=DEFAULT_EPS_F, opts=None):
    """Attempt a design from window w; None when no feasible design exists.

    A window with ||Xhat||_2^2 < 2 * strict_margin is declined (status
    DATA_BOUND) without building or solving the design problem, because
    no design on it can reach phase I's target t = strict_margin. Let
    P = Xhat Y and suppose every block of the design LMIs has
    lambda_min >= t, 0 < t < 1. The top-left of block 1 gives
    P >= H + varsigma X X^T + t I >= 2t I, since H >= t I and
    varsigma >= t. Block 2 minus t I is [[(1 - t) I, Y], [Y^T, P - t I]]
    >= 0, whose Schur complement gives Y^T Y <= (1 - t)(P - t I)
    <= (1 - t) P; with ||P|| <= ||Xhat|| ||Y|| this makes
    2t <= ||P|| <= (1 - t) ||Xhat||^2. A design thus needs
    ||Xhat||^2 >= 2t / (1 - t); the test's 2t lies below that by a
    relative t, which absorbs the rounding of the norm and of the
    solver's margins.
    """
    opts = opts or maxdet.SolverOptions()
    if linalg.spectral_norm(w.Xhat) ** 2 < 2.0 * opts.strict_margin:
        logger.info("design infeasible at kappa=%d (status %s)",
                    w.kappa, DATA_BOUND)
        return None
    design = build_design_problem(w)
    try:
        sol = maxdet.solve_maxdet(design.problem, opts)
    except maxdet.SolverBreakdown as exc:
        logger.warning("design solve broke down at kappa=%d: %s",
                       w.kappa, exc)
        return None
    if sol.status != maxdet.OPTIMAL:
        logger.info("design infeasible at kappa=%d (status %s)",
                    w.kappa, sol.status)
        return None
    return extract_bundle(w, design, sol, eps_F=eps_F)


@dataclass
class PropertyReport:
    eps_values: list
    max_relative_excess: float
    num_violations: int
    vacuous: bool


def verify_property(bundle, num_samples=500, rng_seed=0):
    """Sample the inflated consistency sets and check the certified rate.

    The inflation levels are eps = 0, a / (2 a2) and 2 a / a2, or eps = 0
    alone when a2 = 0. For each eps, every sampled pair (A, B) must satisfy
    (A + B K)^T S (A + B K) <= (a1 + a2 eps) S up to the relative
    tolerance PROPERTY_REL_TOL, that is theta_exact(A, B, K, S) <=
    a1 + a2 eps. The noise bounds of all levels form one stack, so the
    consistency set's M, M^+ and Zc are formed once, and one stacked
    eigendecomposition of the Delta stack tells which levels are non-empty.
    Sampling is boundary biased and draws the non-empty levels in order, in
    one call; all samples go through one stacked theta_exact. A report
    with vacuous=True means every inflated set was empty so the claim
    holds trivially. num_samples < 1 would check nothing and raises
    InvalidInput.
    """
    if bundle.a2 > 0:
        eps_values = [0.0, bundle.a / (2.0 * bundle.a2),
                      2.0 * bundle.a / bundle.a2]
    else:
        eps_values = [0.0]
    if num_samples < 1:
        raise linalg.InvalidInput("need at least one sample per level")
    rng = np.random.default_rng(rng_seed)
    w = bundle.window
    nx, nu = w.nx, w.nu
    eps = np.array(eps_values, dtype=float)
    params = proximity.ellipsoid_params(
        w, proximity.inflated(bundle.F, bundle.S, eps))
    keep = proximity.is_nonempty(params)
    vacuous = not keep.any()
    worst = -np.inf
    violations = 0
    if not vacuous:
        members = proximity.sample_members(
            replace(params, Delta=params.Delta[keep]), num_samples, rng)
        # members are stacked [A B]^T; transposed, each sample is [A B]
        zhat_t = np.swapaxes(members, 1, 2)
        lhs = theta_exact(zhat_t[:, :, :nx], zhat_t[:, :, nx:nx + nu],
                          bundle.K, bundle.S)
        rate = np.repeat(bundle.rate(eps[keep]), num_samples)
        excess = (lhs - rate) / np.maximum(np.abs(rate), 1.0)
        worst = float(np.max(excess))
        violations = int(np.count_nonzero(excess > PROPERTY_REL_TOL))
    return PropertyReport(
        eps_values=eps_values,
        max_relative_excess=(worst if np.isfinite(worst) else 0.0),
        num_violations=violations,
        vacuous=vacuous,
    )
