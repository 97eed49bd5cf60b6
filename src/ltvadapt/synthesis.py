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
from dataclasses import dataclass

import numpy as np

from . import linalg, maxdet, proximity
from .window import DataWindow

logger = logging.getLogger(__name__)

DEFAULT_EPS_F = 0.1

# status logged when a window is declined by the data bound, before any solve
DATA_BOUND = "DataBound"


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
    H: np.ndarray
    eps_F: float
    window: DataWindow
    solver_status: str = ""

    def lyapunov(self, x):
        x = linalg.as_vector(x, self.S.shape[0])
        return float(x @ self.S @ x)

    def rate(self, eps):
        """Certified contraction factor a1 + a2 * eps for plants within
        inflation eps."""
        if eps < 0:
            raise linalg.InvalidInput("inflation must be nonnegative")
        return self.a1 + self.a2 * eps


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
        H=np.eye(nx),
        eps_F=DEFAULT_EPS_F,
        window=w,
        solver_status="Fallback",
    )


def _symmetry_nullspace(xhat):
    """Basis Y_i of matrices with Xhat @ Y_i symmetric.

    Returns an array of shape (d, T, nx); the basis is deterministic
    (right singular vectors of the skew-symmetry constraint matrix).
    """
    nx, t = xhat.shape
    pairs = [(r, c) for r in range(nx) for c in range(r + 1, nx)]
    if not pairs:
        basis = np.zeros((t * nx, t, nx))
        for i in range(t * nx):
            basis[i, i // nx, i % nx] = 1.0
        return basis
    cmat = np.zeros((len(pairs), t * nx))
    for row, (r, c) in enumerate(pairs):
        for s in range(t):
            # entry Y[s, c] contributes xhat[r, s]; Y[s, r] contributes
            # -xhat[c, s] to skew(Xhat Y)[r, c]
            cmat[row, s * nx + c] += xhat[r, s]
            cmat[row, s * nx + r] -= xhat[c, s]
    _, sig, vt = np.linalg.svd(cmat)
    tol = max(cmat.shape) * np.finfo(float).eps * (sig[0] if sig.size else 0.0)
    rank = int(np.sum(sig > tol))
    null = vt[rank:]
    return null.reshape(-1, t, nx)


def _svec_basis(nx):
    basis = []
    for i in range(nx):
        for j in range(i, nx):
            e = np.zeros((nx, nx))
            e[i, j] = 1.0
            e[j, i] = 1.0
            if i == j:
                e[i, i] = 1.0
            basis.append(e)
    return np.array(basis)


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
    """Assemble the SDP whose solution yields (K, S, F, a1, a2)."""
    xhat, x, u = w.Xhat, w.X, w.U
    nx, t = xhat.shape
    y_basis = _symmetry_nullspace(xhat)
    h_basis = _svec_basis(nx)
    d_y = y_basis.shape[0]
    d_h = h_basis.shape[0]
    nvar = 1 + d_y + d_h

    xxt = x @ x.T

    # block 1: [[Xhat Y - varsigma X X^T - H, X Y], [(X Y)^T, Xhat Y]] > 0
    dim1 = 2 * nx
    c1 = np.zeros((nvar, dim1, dim1))
    c1[0, :nx, :nx] = -xxt
    for i in range(d_y):
        yi = y_basis[i]
        py = linalg.symmetrize(xhat @ yi)
        xy = x @ yi
        c1[1 + i, :nx, :nx] = py
        c1[1 + i, :nx, nx:] = xy
        c1[1 + i, nx:, :nx] = xy.T
        c1[1 + i, nx:, nx:] = py
    for j in range(d_h):
        c1[1 + d_y + j, :nx, :nx] = -h_basis[j]
    lmi1 = maxdet.AffineMatFn(np.zeros((dim1, dim1)), c1)

    # block 2: [[I_T, Y], [Y^T, Xhat Y]] > 0
    dim2 = t + nx
    k2 = np.zeros((dim2, dim2))
    k2[:t, :t] = np.eye(t)
    c2 = np.zeros((nvar, dim2, dim2))
    for i in range(d_y):
        yi = y_basis[i]
        c2[1 + i, :t, t:] = yi
        c2[1 + i, t:, :t] = yi.T
        c2[1 + i, t:, t:] = linalg.symmetrize(xhat @ yi)
    lmi2 = maxdet.AffineMatFn(k2, c2)

    # block 3: H > 0 (determinant objective)
    c3 = np.zeros((nvar, nx, nx))
    c3[1 + d_y:] = h_basis
    hblock = maxdet.AffineMatFn(np.zeros((nx, nx)), c3)

    # block 4: varsigma > 0
    c4 = np.zeros((nvar, 1, 1))
    c4[0, 0, 0] = 1.0
    positive = maxdet.AffineMatFn(np.zeros((1, 1)), c4)

    problem = maxdet.SdpProblem(
        num_vars=nvar,
        constraints=[lmi1, lmi2, hblock, positive],
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
        H=h,
        eps_F=eps_F,
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
    if sol.status not in (maxdet.OPTIMAL,):
        logger.info("design infeasible at kappa=%d (status %s)",
                    w.kappa, sol.status)
        return None
    return extract_bundle(w, design, sol, eps_F=eps_F)


def _sym(a):
    """Symmetric part of each matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@dataclass
class PropertyReport:
    num_samples: int
    eps_values: list
    max_relative_excess: float
    num_violations: int
    vacuous: bool


def verify_property(bundle, num_samples=500, rng_seed=0, eps_values=None,
                    rel_tol=1e-7):
    """Sample the inflated consistency sets and check the certified rate.

    For each eps, every sampled pair (A, B) must satisfy
    (A + B K)^T S (A + B K) <= (a1 + a2 eps) S up to the relative
    tolerance. Sampling is boundary biased. A report with vacuous=True
    means the inflated set was empty so the claim holds trivially.
    """
    if eps_values is None:
        if bundle.a2 > 0:
            eps_values = [0.0, bundle.a / (2.0 * bundle.a2),
                          2.0 * bundle.a / bundle.a2]
        else:
            eps_values = [0.0]
    if any(e < 0 for e in eps_values):
        raise linalg.InvalidInput("inflation values must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    w = bundle.window
    nx, nu = w.nx, w.nu
    s_inv_half = linalg.inv_sqrt_pd(bundle.S)
    worst = -np.inf
    violations = 0
    vacuous = True
    for eps in eps_values:
        f_eps = proximity.inflated(bundle.F, bundle.S, eps)
        params = proximity.ellipsoid_params(w, f_eps)
        if not proximity.is_nonempty(params):
            continue
        vacuous = False
        rate = bundle.rate(eps)
        # members are stacked [A B]^T; transposed, each sample is [A B]
        zhat_t = np.swapaxes(
            proximity.sample_members(params, num_samples, rng), 1, 2)
        acl = zhat_t[:, :, :nx] + zhat_t[:, :, nx:nx + nu] @ bundle.K
        # lambda_max(S^-1/2 Acl^T S Acl S^-1/2) is the smallest rate t
        # with Acl^T S Acl <= t S
        q = s_inv_half @ _sym(np.swapaxes(acl, 1, 2) @ bundle.S @ acl) \
            @ s_inv_half
        lhs = np.linalg.eigvalsh(_sym(q))[:, -1]
        excess = (lhs - rate) / max(abs(rate), 1.0)
        worst = max(worst, float(np.max(excess, initial=-np.inf)))
        violations += int(np.count_nonzero(excess > rel_tol))
    return PropertyReport(
        num_samples=num_samples,
        eps_values=list(eps_values),
        max_relative_excess=(worst if np.isfinite(worst) else 0.0),
        num_violations=violations,
        vacuous=vacuous,
    )

