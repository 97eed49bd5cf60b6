"""Set of plant matrices consistent with a data window up to a noise bound.

For a window with regressor Z = [Xhat; U] and successor block X, the
consistency set collects the stacked transposed pairs Zhat = [A B]^T whose
one-step residual satisfies ([A B] Z - X)([A B] Z - X)^T <= F. The same
set has an ellipsoidal description centered at Zc with shape matrices
(M, Delta); both forms are implemented here together with sampling and
inflation utilities. One SVD of Z gives Zc, ker Z and the root M^(+1/2)
that sampling maps through, so Z's rank is cut in one place.

Every function takes stacks along a leading axis. The noise bound may be a
stack of bounds, one per inflation level: `inflated` forms the stack with
S^-1 taken once, `ellipsoid_params` then forms M, the SVD of Z and Zc once
with one Delta per level, and `is_nonempty` and `sample_members` take the
whole stack of Delta. The candidate pairs of `dtilde`, `contains`,
`membership_quadratic`, `contains_ellipsoid` and `min_inflation` may be a
stack as well.
Each level's or candidate's result equals bit for bit that of a call on it
alone.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class EllipsoidParams:
    M: np.ndarray
    Zc: np.ndarray
    Delta: np.ndarray
    M_pinv_sqrt: np.ndarray


def ellipsoid_params(w, F):
    """Center and shape matrices of the consistency set of window w.

    One SVD Z = U diag(s) V^T gives M^+ = U diag(s^-2) U^T on the singular
    values M's pseudoinverse keeps (s^2 > n * eps * s_max^2, n = nx + nu),
    Zc = M^+ Z X^T = U diag(1/s) V^T X^T and M^(+1/2) = U diag(1/s) U^T
    over them, and an orthonormal basis N of ker Z, the other columns of
    V. Then I - Z^T M^+ Z = N N^T, and Delta = F - (X N)(X N)^T holds no
    cancellation of terms of size |X|^2; when Z has full column rank N is
    empty and Delta is F bit for bit. F may be a stack of noise bounds
    along a leading axis; M, the SVD, Zc and M^(+1/2) are then formed once,
    and Delta is the stack, one matrix per bound."""
    F = linalg.symmetrize(linalg.as_matrix(F, (w.nx, w.nx)))
    z = w.z_matrix()
    m = linalg.symmetrize(z @ z.T)
    u, s, vh = linalg.svd(z)
    rank = int(np.count_nonzero(s * s > len(z) * _EPS * s[0] * s[0]))
    u_inv = u[:, :rank] / s[:rank]
    zc = u_inv @ (vh[:rank] @ w.X.T)
    xn = w.X @ vh[rank:].T
    delta = F - xn @ xn.T
    return EllipsoidParams(M=m, Zc=zc, Delta=linalg.symmetrize(delta),
                           M_pinv_sqrt=u_inv @ u[:, :rank].T)


def _psd(m, tol=None):
    """Whether symmetric m has lambda_min >= -tol; the default tol is
    1e-9 * (1 + lambda_max^+). A stack of matrices along a leading axis
    gives an array with one flag per matrix, from one stacked
    eigendecomposition."""
    eigs, _ = linalg.sym_eig(m)
    if tol is None:
        tol = 1e-9 * (1.0 + np.maximum(eigs[..., -1], 0.0))
    flags = eigs[..., 0] >= -tol
    return bool(flags) if flags.ndim == 0 else flags


def is_nonempty(params):
    """Whether the consistency set is non-empty, that is Delta >= 0; an
    array of flags, one per level, when Delta is a stack."""
    return _psd(params.Delta)


def dtilde(w, MA, MB):
    """Residual [MA MB] Z - X of a candidate pair against the window, or of
    each pair of the stacks MA, MB along a leading axis."""
    MA = linalg.as_matrix(MA, (w.nx, w.nx))
    MB = linalg.as_matrix(MB, (w.nx, w.nu))
    return np.concatenate([MA, MB], axis=-1) @ w.z_matrix() - w.X


def _gram(d):
    """d d^T, or that of each matrix of a stack. A residual too large to
    square overflows to inf or NaN without a warning; the kernels that then
    take the matrix reject it with InvalidInput."""
    with np.errstate(over="ignore", invalid="ignore"):
        return d @ np.swapaxes(d, -2, -1)


def contains(w, F, MA, MB, tol=None):
    """Whether (MA, MB) lies in the consistency set of (w, F); an array of
    flags, one per pair, when MA and MB are stacks of pairs."""
    return _psd(F - _gram(dtilde(w, MA, MB)), tol)


def membership_quadratic(params, zhat):
    """Delta - (zhat - Zc)^T M (zhat - Zc), psd iff zhat is a member; one
    matrix per candidate when zhat is a stack of them."""
    diff = np.asarray(zhat, dtype=float) - params.Zc
    return linalg.symmetrize(
        params.Delta - np.swapaxes(diff, -2, -1) @ params.M @ diff)


def contains_ellipsoid(params, zhat):
    """Whether zhat lies in the ellipsoidal form of the set; an array of
    flags, one per candidate, when zhat is a stack of them."""
    return _psd(membership_quadratic(params, zhat))


def min_inflation(w, F, S, A_true, B_true):
    """Smallest eps >= 0 with the true pair in the set for F + eps * S^-1.

    A_true and B_true may be stacks of pairs along a leading axis; the
    result is then an array with one eps per pair, each equal bit for bit
    to the float a single call returns. S^-1 is formed once either way.
    """
    S = linalg.as_matrix(S, (w.nx, w.nx))
    gap = _gram(dtilde(w, A_true, B_true)) - \
        linalg.as_matrix(F, (w.nx, w.nx))
    s_inv = linalg.pd_inverse(S)
    # a NaN clamps to 0 as well, as max(0.0, nan) does
    eps = np.asarray(linalg.gen_eig_max(gap, s_inv))
    eps = np.where(eps > 0.0, eps, 0.0)
    return eps if eps.ndim else float(eps)


def inflated(F, S, eps):
    """Noise bound loosened by eps in the S^-1 metric. eps may be a 1-D
    array of inflations; the result is then the stack F + eps_l S^-1, with
    S^-1 formed once."""
    eps = np.asarray(eps, dtype=float)
    s_inv = linalg.pd_inverse(S)
    if eps.ndim:
        eps = eps[:, None, None]
    return linalg.symmetrize(F + eps * s_inv)


def sample_members(params, num_samples, rng):
    """Draw members of the ellipsoidal form of the consistency set.

    Points are generated as Zhat = Zc + M^(+1/2) V Delta^(1/2) with
    sigma_max(V) <= 1, so the quadratic membership condition holds by
    construction. Directions in the kernel of M are pinned to the center.
    The radius is drawn as u^(1/4), concentrating samples near the
    boundary where violations would show up first.
    Returns an array of shape (num_samples, rows, cols). When Delta is a
    stack of L levels, each level draws its normal block and then its
    radii, level by level, and the result has shape
    (L * num_samples, rows, cols), level after level; the spectral norms
    of all draws come from one stacked eigenvalue call. M^(+1/2) is the
    one `ellipsoid_params` took from the SVD of Z.
    """
    d_sqrt = linalg.psd_sqrt(params.Delta)
    rows, cols = params.Zc.shape
    d_stack = d_sqrt.reshape(-1, cols, cols)
    gs, rs = [], []
    for _ in d_stack:
        gs.append(rng.standard_normal((num_samples, rows, cols)))
        rs.append(rng.uniform(size=num_samples) ** 0.25)
    g, r = np.concatenate(gs), np.concatenate(rs)
    # a contiguous transpose takes numpy's faster matmul path; the Gram
    # stack is the same bit for bit
    gt = np.ascontiguousarray(np.swapaxes(g, 1, 2))
    gram = g @ gt if rows <= cols else gt @ g
    s = np.sqrt(np.maximum(linalg.eigvalsh(gram)[:, -1], 0.0))
    # a zero block stays zero, as the radius scaling would leave it
    scale = np.divide(r, s, out=np.zeros(len(g)), where=s > 0.0)
    v = (params.M_pinv_sqrt @ (scale[:, None, None] * g)).reshape(
        len(d_stack), num_samples, rows, cols)
    return (params.Zc + v @ d_stack[:, None]).reshape(-1, rows, cols)
