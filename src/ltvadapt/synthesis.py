"""Data-driven state-feedback design from a single window of measurements.

A feasible design produces a gain K together with a quadratic certificate
(S, F, a1, a2): V(x) = x^T S x decreases at rate a1 along the nominal
closed loop, and the decrease degrades gracefully (rate a1 + a2 * eps)
for any plant in the data-consistency set inflated by eps. The design
problem is a determinant-maximization SDP solved by the in-package
solver; the product Xhat Y is constrained to be symmetric by restricting
Y to the null space of the skew-symmetry conditions.

`synthesize` declines a window without building or solving the SDP when
its data prove that no design can reach the solver's strict margin: when
they are too small, ||Xhat||_2^2 < 2 * strict_margin, which includes
every window with Xhat = 0, and when they show the closed loop that
produced them expanding along a left eigenvector of the least-squares
M = X Xhat^+ (both derived in `synthesize`). Every other window goes to
`maxdet.solve_maxdet`.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, maxdet, proximity
from .window import DataWindow

logger = logging.getLogger(__name__)

DEFAULT_EPS_F = 0.1

# statuses logged when a window is declined before any solve: by the data
# bound, and by the expansion certificate
DATA_BOUND = "DataBound"
UNSTABLE_DATA = "UnstableData"

_EPS = np.finfo(float).eps

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


def _row_norms(a):
    """Euclidean norm of each row of a real or complex 2-D array."""
    a = np.abs(a)
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _expansion_certified(w, u, sig, vt, target):
    """Whether a left eigenpair (v, lam), |lam| > 1, of the least-squares
    M = X Xhat^+ proves that no design on w reaches target, given the
    singular value decomposition u diag(sig) vt of Xhat; the test and its
    rounding bounds are derived in `synthesize`."""
    xhat, x = w.Xhat, w.X
    nx, width = xhat.shape
    # M as numpy's lstsq forms it: singular values of Xhat at or below
    # max(nx, T) eps sigma_1 count as zero. Huge data can overflow M or a
    # side of the test; an inf or nan there certifies nothing.
    r = int(np.count_nonzero(sig > max(nx, width) * _EPS * sig[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        m = (x @ vt[:r].T / sig[:r]) @ u[:, :r].T
        if not np.isfinite(m).all():
            return False
        # M^T u = lam u gives u^T M = lam u^T: the rows of vh are v^H,
        # v = conj(u)
        lam, vec = linalg.eig(m.T)
        vh = vec.T
        # real products only: v^H X and v^H Xhat from the real and
        # imaginary rows of v^H (a complex product would page in more of
        # BLAS)
        re_im = np.concatenate((vh.real, vh.imag))
        px, pxh = re_im @ x, re_im @ xhat
        vx = px[:nx] + 1j * px[nx:]
        s = vx - lam[:, None] * (pxh[:nx] + 1j * pxh[nx:])
        gamma = (nx + 4) * _EPS
        av = np.abs(vh)
        err_x = gamma * (av @ np.abs(x))
        err = err_x + gamma * np.abs(lam)[:, None] * (av @ np.abs(xhat))
        s_hi = _row_norms(s) + _row_norms(err)
        xv_lo = np.maximum(_row_norms(vx) - _row_norms(err_x), 0.0)
        q = lam.real ** 2 + lam.imag ** 2
        d = q - 1.0 - 3.0 * _EPS * q
        rho = (width + nx + 16) * _EPS
        lhs = q * s_hi ** 2 * (1.0 + rho)
        rhs = target * ((2.0 + q) * _row_norms(vh) ** 2 + xv_lo ** 2) * d \
            * (1.0 - rho)
    return bool(((lhs < rhs) & (rhs < np.inf)).any())


def presolve_decline(w, target):
    """The status with which `synthesize` declines w before building its
    design problem, DATA_BOUND or UNSTABLE_DATA, or None when the window
    goes to the solver with phase-I target `target`. One singular value
    decomposition of Xhat serves both tests."""
    u, sig, vt = linalg.svd(w.Xhat)
    if sig[0] ** 2 < 2.0 * target:
        return DATA_BOUND
    if _expansion_certified(w, u, sig, vt, target):
        return UNSTABLE_DATA
    return None


def synthesize(w, eps_F=DEFAULT_EPS_F, opts=None):
    """Attempt a design from window w; None when no feasible design exists.

    Two tests decline a window without building or solving the design
    problem, because they prove that no design on it can reach phase I's
    target t = strict_margin, 0 < t < 1; phase I answers Feasible only at
    a point where every block has lambda_min >= t, so a declined window
    could never be adopted. Below, P is the symmetric part of Xhat Y,
    which the blocks hold (the Y basis makes Xhat Y symmetric up to
    rounding), and every block of the design LMIs is supposed to have
    lambda_min >= t.

    Data bound (status DATA_BOUND): ||Xhat||_2^2 < 2t. The top-left of
    block 1 gives P >= H + varsigma X X^T + t I >= 2t I, since H >= t I
    and varsigma >= t. Block 2 minus t I is [[(1 - t) I, Y], [Y^T, P - t I]]
    >= 0, whose Schur complement gives Y^T Y <= (1 - t)(P - t I)
    <= (1 - t) P; with ||P|| <= ||Xhat Y|| <= ||Xhat|| ||Y|| this makes
    2t <= ||P|| <= (1 - t) ||Xhat||^2. A design thus needs
    ||Xhat||^2 >= 2t / (1 - t); the test's 2t lies below that by a
    relative t, which absorbs the rounding of the norm and of the
    solver's margins.

    Expansion certificate (status UNSTABLE_DATA), a data-informativity
    argument (van Waarde, Eising, Trentelman and Camlibel, IEEE TAC 2020)
    on the LMIs of `build_design_problem`. Take v in C^nx, v != 0, and a
    scalar lam with |lam| > 1, and let s = v^H X - lam v^H Xhat, a 1 x T
    row. If
        |lam|^2 ||s||^2 / (|lam|^2 - 1)
            < t ((2 + |lam|^2) ||v||^2 + ||X^T v||^2),
    no decision vector gives every block lambda_min >= t. Proof: take
    z = [v; -conj(lam) v] and write p = v^H P v. Block 2 gives
    ||Y v||^2 <= p, as in the data bound's proof; block 3 gives H >= t I
    and block 4 varsigma >= t. Since v^H X Y v = s Y v + lam v^H Xhat Y v,
    where v^H Xhat Y v - p, the form of the skew part, is imaginary,
        z^H B1 z = (1 - |lam|^2) p - varsigma ||X^T v||^2 - v^H H v
                   - 2 Re(conj(lam) s Y v)
                 <= (1 - |lam|^2) p + 2 |lam| ||s|| sqrt(p)
                    - t (||v||^2 + ||X^T v||^2),
    and the maximum over p >= 0 bounds it by
    |lam|^2 ||s||^2 / (|lam|^2 - 1) - t (||v||^2 + ||X^T v||^2). By the
    hypothesis that lies below t ||z||^2 = t (1 + |lam|^2) ||v||^2, so
    block 1 has lambda_min < t. When v^H is a left eigenvector of the
    least-squares M = X Xhat^+ with eigenvalue lam, s is v^H times the
    residual X - M Xhat: the test fires when the data follow a closed loop
    with an eigenvalue outside the unit disc closely enough. Every
    eigenpair is tried, and one with |lam| <= 1 cannot pass. The proof
    holds for any (v, lam), so how they were computed does not matter: no
    rank cut or tolerance of theirs can make the test wrong.

    Rounding: the test evaluates its two sides from the computed v, lam
    and row s~ = fl(v^H X - lam v^H Xhat), so that only the floating-point
    operations of the test itself count. Each entry of s~ comes from real
    dot products of length nx, a complex product and a difference, so
    |s~_j - s_j| <= e_j with
    e = (nx + 4) eps (|v|^T |X| + |lam| |v|^T |Xhat|) (Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 3.1 and 3.6), and
    ||s|| <= ||s~|| + ||e||; likewise ||X^T v|| >= ||fl(v^H X)|| - ||e_X||
    with e_X = (nx + 4) eps |v|^T |X|. d = q - 1 - 3 eps q, with
    q = fl(|lam|^2), lies below |lam|^2 - 1. The test multiplies the
    hypothesis through by d and asks
        q (||s~|| + ||e||)^2 (1 + rho)
            < t ((2 + q) ||v||^2 + ||X^T v||_lo^2) d (1 - rho),
    with ||X^T v||_lo the lower bound above: what is left are sums of at
    most T nonnegative terms, square roots and products, each side with
    a relative error below rho = (T + nx + 16) eps. Where d <= 0 the
    right-hand side is not positive and the test cannot pass; where M or
    the right-hand side overflowed, it is not tried.
    """
    opts = opts or maxdet.SolverOptions()
    status = presolve_decline(w, opts.strict_margin)
    if status is not None:
        logger.info("design infeasible at kappa=%d (status %s)",
                    w.kappa, status)
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
    holds trivially. num_samples, the draws per level, must be a whole
    number >= 1.
    """
    if bundle.a2 > 0:
        eps_values = [0.0, bundle.a / (2.0 * bundle.a2),
                      2.0 * bundle.a / bundle.a2]
    else:
        eps_values = [0.0]
    num_samples = linalg.as_count(num_samples, "num_samples")
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
