"""Set of plant matrices consistent with a data window up to a noise bound.

For a window with regressor Z = [Xhat; U] and successor block X, the
consistency set collects the stacked transposed pairs Zhat = [A B]^T whose
one-step residual satisfies ([A B] Z - X)([A B] Z - X)^T <= F. The same
set has an ellipsoidal description centered at Zc with shape matrices
(M, Delta); both forms are implemented here together with sampling and
inflation utilities.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class EllipsoidParams:
    M: np.ndarray
    Zc: np.ndarray
    Delta: np.ndarray


def ellipsoid_params(w, F):
    """Center and shape matrices of the consistency set of window w."""
    F = linalg.symmetrize(linalg.as_matrix(F, (w.nx, w.nx)))
    z = w.z_matrix()
    m = linalg.symmetrize(z @ z.T)
    m_pinv = linalg.pinv(m)
    zc = m_pinv @ z @ w.X.T
    delta = w.X @ z.T @ m_pinv @ z @ w.X.T - w.X @ w.X.T + F
    return EllipsoidParams(M=m, Zc=zc, Delta=linalg.symmetrize(delta))


def _psd(m, tol=None):
    """Whether symmetric m has lambda_min >= -tol; the default tol is
    1e-9 * (1 + lambda_max^+)."""
    eigs, _ = linalg.sym_eig(m)
    if tol is None:
        tol = 1e-9 * (1.0 + max(float(eigs[-1]), 0.0))
    return bool(eigs[0] >= -tol)


def is_nonempty(params):
    return _psd(params.Delta)


def dtilde(w, MA, MB):
    """Residual [MA MB] Z - X of a candidate pair against the window, or of
    each pair of the stacks MA, MB along a leading axis."""
    MA = linalg.as_matrix(MA, (w.nx, w.nx))
    MB = linalg.as_matrix(MB, (w.nx, w.nu))
    return np.concatenate([MA, MB], axis=-1) @ w.z_matrix() - w.X


def contains(w, F, MA, MB, tol=None):
    """Whether (MA, MB) lies in the consistency set of (w, F)."""
    d = dtilde(w, MA, MB)
    return _psd(linalg.symmetrize(F - d @ d.T), tol)


def membership_quadratic(params, zhat):
    """Delta - (zhat - Zc)^T M (zhat - Zc), psd iff zhat is a member."""
    diff = np.asarray(zhat, dtype=float) - params.Zc
    return linalg.symmetrize(params.Delta - diff.T @ params.M @ diff)


def contains_ellipsoid(params, zhat):
    return _psd(membership_quadratic(params, zhat))


def min_inflation(w, F, S, A_true, B_true):
    """Smallest eps >= 0 with the true pair in the set for F + eps * S^-1.

    A_true and B_true may be stacks of pairs along a leading axis; the
    result is then an array with one eps per pair, each equal bit for bit
    to the float a single call returns. S^-1 is formed once either way.
    """
    S = linalg.as_matrix(S, (w.nx, w.nx))
    d = dtilde(w, A_true, B_true)
    gap = linalg.symmetrize(d @ np.swapaxes(d, -2, -1) -
                            linalg.as_matrix(F, (w.nx, w.nx)))
    s_inv = linalg.pd_inverse(S)
    # a NaN clamps to 0 as well, as max(0.0, nan) does
    eps = np.asarray(linalg.gen_eig_max(gap, s_inv))
    eps = np.where(eps > 0.0, eps, 0.0)
    return eps if eps.ndim else float(eps)


def inflated(F, S, eps):
    """Noise bound loosened by eps in the S^-1 metric."""
    return linalg.symmetrize(F + eps * linalg.pd_inverse(S))


def _psd_sqrt_and_pinv_sqrt(m):
    w, v = linalg.sym_eig(m)
    tol = max(m.shape) * np.finfo(float).eps * max(float(w[-1]), 0.0)
    w = np.clip(w, 0.0, None)
    root = np.sqrt(w)
    inv_root = np.where(w > tol, 1.0 / np.maximum(root, 1e-300), 0.0)
    return v @ np.diag(root) @ v.T, v @ np.diag(inv_root) @ v.T


def sample_members(params, num_samples, rng):
    """Draw members of the ellipsoidal form of the consistency set.

    Points are generated as Zhat = Zc + M^(+1/2) V Delta^(1/2) with
    sigma_max(V) <= 1, so the quadratic membership condition holds by
    construction. Directions in the kernel of M are pinned to the center.
    The radius is drawn as u^(1/4), concentrating samples near the
    boundary where violations would show up first.
    Returns an array of shape (num_samples, rows, cols).
    """
    _, m_pinv_sqrt = _psd_sqrt_and_pinv_sqrt(params.M)
    d_sqrt, _ = _psd_sqrt_and_pinv_sqrt(params.Delta)
    rows, cols = params.Zc.shape
    g = rng.standard_normal((num_samples, rows, cols))
    r = rng.uniform(size=num_samples) ** 0.25
    gt = np.swapaxes(g, 1, 2)
    gram = g @ gt if rows <= cols else gt @ g
    s = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    # a zero block stays zero, as the radius scaling would leave it
    scale = np.divide(r, s, out=np.zeros(num_samples), where=s > 0.0)
    return params.Zc + m_pinv_sqrt @ (scale[:, None, None] * g) @ d_sqrt
