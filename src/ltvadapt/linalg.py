"""Dense small-matrix kernels used across the package.

Everything here assumes tiny matrices (dimension well below 100). The
symmetric and general eigensolvers and the singular value decomposition
are LAPACK's; the pseudoinverse, the psd square root, the spectral norm,
the positive definite inverse and inverse square root, and the
generalized-eigenvalue extremes are built on the symmetric eigensolvers.
The pseudoinverse and the psd square root map eigenvalues through one
form, (v * d) v^T; both positive definite kernels reject a matrix by one
rule, `_pd_eig`'s. The module also holds input validation.

LAPACK is called through numpy's gufuncs (`numpy.linalg._umath_linalg`:
eigh_lo for `sym_eig`, eigvalsh_lo for `eigvalsh`, svd_f for `svd`, eig
for `eig`), the calls numpy.linalg's eigh, eigvalsh, svd and eig make, so
every result is the same bit for bit; their wrapper (array conversion,
type dispatch, an error-state context) costs more than LAPACK does at
these sizes. The gufunc module is private to numpy, and only numpy 2.4.6
has been run. A gufunc call that fails returns its output filled with
NaN, so a NaN eigenvalue or singular value raises LinAlgError, as
np.linalg does; the failed call also sets the floating-point invalid
flag, which numpy first reports as a RuntimeWarning under the caller's
error state. `maxdet` calls its gufuncs through the same import.
"""

import math
import numbers

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

_EPS = np.finfo(float).eps
_COUNT_MAX = np.iinfo(np.int64).max


class InvalidInput(ValueError):
    """Raised on malformed numerical input (shape, finiteness)."""


class NotPositiveDefinite(ValueError):
    """Raised when an operation requires a positive definite matrix."""


def as_matrix(a, shape=None, name="matrix"):
    """Coerce to a finite 2-D float array, or a 3-D stack of such matrices
    along a leading axis, raising InvalidInput otherwise. shape, when given,
    is that of one matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim not in (2, 3) or m.size == 0:
        raise InvalidInput(f"{name} must be a non-empty 2-D array or a stack "
                           "of them")
    if not np.isfinite(m).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    if shape is not None and m.shape[-2:] != tuple(shape):
        raise InvalidInput(f"{name} has shape {m.shape[-2:]}, expected "
                           f"{tuple(shape)}")
    return m


def as_vector(a, length=None, name="vector"):
    v = np.asarray(a, dtype=float).reshape(-1)
    if v.size == 0:
        raise InvalidInput(f"{name} must be non-empty")
    if not np.isfinite(v).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    if length is not None and v.size != length:
        raise InvalidInput(f"{name} has length {v.size}, expected {length}")
    return v


def as_count(value, what, least=1):
    """value as an int, or InvalidInput unless it is a whole number >=
    least that fits in an int64, as numpy's dimensions must (12.0 and
    np.int64(12) are; 2.5, nan, "12", True and 10**400 are not): the
    package's one rule for a count setting. An integer is compared as an
    int, never through a float."""
    whole = not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) or
        isinstance(value, numbers.Real) and float(value).is_integer())
    if not (whole and least <= int(value) <= _COUNT_MAX):
        raise InvalidInput("%s must be >= %d, below 2**63 and whole, got %r"
                           % (what, least, value))
    return int(value)


def as_finite(value, what):
    """value as a float, or InvalidInput where it is nan or infinite."""
    v = float(value)
    if not math.isfinite(v):
        raise InvalidInput("%s must be finite, got %r" % (what, v))
    return v


def symmetrize(a):
    a = as_matrix(a)
    if a.shape[-2] != a.shape[-1]:
        raise InvalidInput("square matrix required")
    # .T is the cheaper transpose of one matrix; a stack swaps its last axes
    return 0.5 * (a + (a.T if a.ndim == 2 else a.swapaxes(-2, -1)))


def _checked(w):
    """w, eigenvalues (one row per matrix of a stack) from a gufunc call;
    LinAlgError where the call failed and filled a row with NaN."""
    if math.isnan(w[0]) if w.ndim == 1 else np.isnan(w[:, 0]).any():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def eigvalsh(a):
    """Eigenvalues, ascending, of the symmetric matrix whose lower triangle
    is a's, or of each matrix of a stack along a leading axis: LAPACK's, bit
    for bit those of numpy.linalg.eigvalsh. The input is neither validated
    nor symmetrized."""
    return _checked(_lapack.eigvalsh_lo(a))


def sym_eig(s):
    """Eigendecomposition of a symmetric matrix, or of each one in a stack,
    by LAPACK (bit for bit numpy.linalg.eigh).

    Returns (eigenvalues ascending, eigenvectors as columns). The input is
    symmetrized first; non-finite entries raise InvalidInput.
    """
    w, v = _lapack.eigh_lo(symmetrize(s))
    return _checked(w), v


def svd(a):
    """Singular value decomposition a = u diag(s) vh with square u and vh,
    by LAPACK (bit for bit numpy.linalg.svd); s is descending. The input
    is not validated."""
    u, s, vh = _lapack.svd_f(a, signature="d->ddd")
    return u, _checked(s), vh


def eig(a):
    """Eigenvalues and right eigenvectors (unit columns) of a real square
    matrix, both complex, by LAPACK (bit for bit numpy.linalg.eig, which
    casts an all-real result to real). The input is not validated."""
    w, v = _lapack.eig(a, signature="d->DD")
    _checked(w.real)
    return w, v


def spectral_norm(m):
    m = as_matrix(m)
    g = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    w, _ = sym_eig(g)
    return float(np.sqrt(max(w[-1], 0.0)))


def pinv(m):
    """Moore-Penrose pseudoinverse of a symmetric matrix via its
    eigendecomposition; eigenvalues with |w| <= n * eps * max|w| count as
    zero. A non-symmetric input raises InvalidInput.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise InvalidInput("pinv needs a symmetric matrix")
    # np.allclose(m, m.T, atol) with its default rtol 1e-5, on finite m
    mt = m.T
    atol = 1e-13 * (1.0 + np.abs(m).max())
    if not (np.abs(m - mt) <= atol + 1e-5 * np.abs(mt)).all():
        raise InvalidInput("pinv needs a symmetric matrix")
    w, v = sym_eig(m)
    cut = n * _EPS * np.max(np.abs(w))
    return _eig_map(v, np.where(np.abs(w) > cut,
                                 1.0 / np.where(w == 0.0, 1.0, w), 0.0))


def _eig_map(v, d):
    """v diag(d) v^T, for one matrix or a stack along a leading axis."""
    return (v * d[..., None, :]) @ np.swapaxes(v, -2, -1)


def psd_sqrt(m):
    """Square root of a psd matrix, or of each matrix of a stack along a
    leading axis; negative eigenvalues count as zero."""
    w, v = sym_eig(m)
    return _eig_map(v, np.sqrt(np.clip(w, 0.0, None)))


def _pd_eig(s):
    """sym_eig(s) of a symmetric positive definite matrix, or of a stack of
    them; raises NotPositiveDefinite when lambda_min <= 1e-12 *
    max(lambda_max, 1e-12) for the matrix or for any member of the
    stack."""
    w, v = sym_eig(s)
    if np.any(w[..., 0] <= 1e-12 * np.maximum(w[..., -1], 1e-12)):
        raise NotPositiveDefinite("matrix is not positive definite")
    return w, v


def inv_sqrt_pd(b):
    """B^(-1/2) of a symmetric positive definite B, or of each matrix of a
    stack along a leading axis, checked as `_pd_eig` checks."""
    w, v = _pd_eig(b)
    return (v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -2, -1)


def _gen_eigvals(a, b):
    """Generalized eigenvalues of (A, B) with B > 0, ascending: the
    eigenvalues alone (`eigvalsh`) of the symmetrized sandwich
    B^{-1/2} A B^{-1/2}, for one pair or for stacks as `gen_eig_max` takes
    them."""
    a = symmetrize(a)
    bmh = inv_sqrt_pd(b)
    return eigvalsh(symmetrize(bmh @ a @ bmh))


def gen_eig_max(a, b):
    """Largest generalized eigenvalue of (A, B) with B > 0.

    Equals lambda_max(B^{-1/2} A B^{-1/2}) = min{t : A <= t B}. A may be
    a stack of matrices along a leading axis, all paired with the one B,
    which is then factored once; or B may be a stack too, paired member by
    member with the stack of A. The result is then an array with one value
    per pair, which equals the value of each single call bit for bit.
    """
    w = _gen_eigvals(a, b)
    return float(w[-1]) if w.ndim == 1 else w[:, -1]


def gen_eig_min(a, b):
    """Smallest generalized eigenvalue of (A, B) with B > 0."""
    return float(_gen_eigvals(a, b)[0])


def pd_inverse(s):
    """Inverse of a symmetric positive definite matrix, checked as
    `_pd_eig` checks."""
    w, v = _pd_eig(s)
    return (v / w) @ v.T

