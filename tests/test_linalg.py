import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvadapt import linalg


def rand_sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a + a.T) / 2


def test_sym_eig_hand_values():
    # [[2,1],[1,2]] has eigenvalues 1 and 3
    w, v = linalg.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)
    # eigenvector reconstruction
    m = v @ np.diag(w) @ v.T
    assert np.allclose(m, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)


def test_sym_eig_orders_ascending():
    rng = np.random.default_rng(7)
    for _ in range(25):
        w, _ = linalg.sym_eig(rand_sym(rng, 4))
        assert np.all(np.diff(w) >= -1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10 ** 6))
def test_sym_eig_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    m = rand_sym(rng, n, scale=3.0)
    w, v = linalg.sym_eig(m)
    w_np = np.linalg.eigvalsh(m)
    assert np.allclose(w, w_np, atol=1e-9 * (1 + np.max(np.abs(w_np))))
    assert np.allclose(v @ v.T, np.eye(n), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 7), st.integers(0, 10 ** 6))
def test_svd_is_numpys(rows, cols, seed):
    a = np.random.default_rng(seed).standard_normal((rows, cols))
    got = linalg.svd(a)
    want = np.linalg.svd(a)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10 ** 6))
def test_eig_is_numpys(n, seed):
    # numpy.linalg.eig casts an all-real result to real; linalg.eig keeps
    # it complex, with the same values
    a = np.random.default_rng(seed).standard_normal((n, n))
    got = linalg.eig(a)
    want = np.linalg.eig(a)
    for g, w in zip(got, want):
        assert g.dtype == complex
        assert g.tobytes() == w.astype(complex).tobytes()


def test_pinv_scalar():
    assert np.allclose(linalg.pinv(np.array([[1.25]])), [[0.8]], atol=1e-14)


def test_pinv_rank_deficient():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = linalg.pinv(m)
    assert np.allclose(p, m, atol=1e-14)
    # Moore-Penrose identities
    assert np.allclose(m @ p @ m, m, atol=1e-12)
    assert np.allclose(p @ m @ p, p, atol=1e-12)


def test_pinv_rejects_non_symmetric():
    for m in (np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones((2, 3))):
        with pytest.raises(linalg.InvalidInput, match="symmetric"):
            linalg.pinv(m)


def test_spectral_norm():
    assert abs(linalg.spectral_norm(np.array([[3.0, 0.0], [0.0, -4.0]]))
               - 4.0) < 1e-12


def test_gen_eig_diagonal_oracle():
    a = np.diag([2.0, 1.0])
    b = np.diag([1.0, 4.0])
    assert abs(linalg.gen_eig_max(a, b) - 2.0) < 1e-12
    assert abs(linalg.gen_eig_min(a, b) - 0.25) < 1e-12


def _gen_eig_max_bisection(a, b, lo=-1e3, hi=1e3, iters=200):
    # independent oracle: smallest t with t*b - a psd, by bisection
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.linalg.eigvalsh(mid * b - a)[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_gen_eig_matches_bisection():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rand_sym(rng, 3)
        base = rng.standard_normal((3, 3))
        b = base @ base.T + 0.5 * np.eye(3)
        got = linalg.gen_eig_max(a, b)
        want = _gen_eig_max_bisection(a, b)
        assert abs(got - want) < 1e-8 * (1 + abs(want))


def test_pd_inverse_round_trip():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((3, 3))
    s = base @ base.T + np.eye(3)
    assert np.allclose(linalg.pd_inverse(s) @ s, np.eye(3), atol=1e-10)


def test_pd_inverse_rejects_indefinite():
    with pytest.raises(linalg.NotPositiveDefinite):
        linalg.pd_inverse(np.diag([1.0, -2.0]))


def test_as_matrix_validation():
    with pytest.raises(linalg.InvalidInput):
        linalg.as_matrix(np.ones((2, 3)), (2, 2))
    with pytest.raises(linalg.InvalidInput):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_as_count_rejects_bools_and_counts_past_int64():
    # True used to pass as 1, and 10**400 raised OverflowError from float()
    for bad, least in ((True, 1), (False, 0), (np.True_, 1), (10**400, 1),
                       (2**63, 1), (1e300, 1)):
        with pytest.raises(linalg.InvalidInput, match="width"):
            linalg.as_count(bad, "width", least=least)
    for good, count in ((12.0, 12), (np.int64(3), 3), (2**63 - 1, 2**63 - 1),
                        (0, 0)):
        out = linalg.as_count(good, "width", least=0)
        assert type(out) is int and out == count


def _rand_pd(rng, n, scale=1.0):
    base = rng.standard_normal((n, n))
    return scale * (base @ base.T + 0.1 * np.eye(n))


def test_gen_eig_max_with_stacked_b_equals_single_calls():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        a = np.array([rand_sym(rng, n) for _ in range(12)])
        b = np.array([_rand_pd(rng, n) for _ in range(12)])
        stacked = linalg.gen_eig_max(a, b)
        singles = [linalg.gen_eig_max(ai, bi) for ai, bi in zip(a, b)]
        assert all(type(t) is float for t in singles)
        assert stacked.shape == (12,)
        assert [t.hex() for t in stacked.tolist()] == \
            [t.hex() for t in singles]


def test_stacked_inv_sqrt_pd():
    rng = np.random.default_rng(22)
    b = np.array([_rand_pd(rng, 3) for _ in range(5)])
    stacked = linalg.inv_sqrt_pd(b)
    for bi, si in zip(b, stacked):
        assert si.tobytes() == linalg.inv_sqrt_pd(bi).tobytes()
    b[3] = np.diag([1.0, -2.0, 3.0])
    with pytest.raises(linalg.NotPositiveDefinite):
        linalg.inv_sqrt_pd(b)


def _eigh_gen_eig_max(a, b):
    # lambda_max from the eigenvalues and eigenvectors of numpy.linalg.eigh
    w, v = np.linalg.eigh(0.5 * (b + b.T))
    bmh = (v / np.sqrt(w)) @ v.T
    q = bmh @ (0.5 * (a + a.T)) @ bmh
    return float(np.linalg.eigh(0.5 * (q + q.T))[0][-1])


def test_gen_eig_max_equals_eigh_reference():
    # eigvalsh and eigh give the same eigenvalues bit for bit at 2 x 2;
    # at 3 x 3 and beyond they may round apart
    rng = np.random.default_rng(23)
    for _ in range(2000):
        sa, sb = 10.0 ** rng.uniform(-8, 8, size=2)
        a, b = rand_sym(rng, 2, sa), _rand_pd(rng, 2, sb)
        assert linalg.gen_eig_max(a, b).hex() == \
            _eigh_gen_eig_max(a, b).hex()
    for n in (3, 4):
        for _ in range(500):
            sa, sb = 10.0 ** rng.uniform(-8, 8, size=2)
            g = rng.standard_normal((n, n))
            a, b = sa * (g @ g.T), _rand_pd(rng, n, sb)
            want = _eigh_gen_eig_max(a, b)
            assert abs(linalg.gen_eig_max(a, b) - want) <= 1e-14 * want


# linalg calls the LAPACK gufuncs numpy.linalg's eigh and eigvalsh call,
# without their wrapper; every result must be theirs bit for bit
sizes = (st.integers(1, 15), st.integers(0, 15), st.integers(0, 10 ** 6),
         st.sampled_from([1e-12, 1.0, 1e12]))


def square_draws(rng, n, stack, scale):
    """Random n x n matrices, neither symmetric nor definite: one matrix at
    stack = 0, else a stack of that many."""
    return scale * rng.standard_normal((n, n) if stack == 0 else
                                       (stack, n, n))


@settings(max_examples=150, deadline=None)
@given(*sizes)
def test_sym_eig_is_numpys_eigh_bit_for_bit(n, stack, seed, scale):
    a = square_draws(np.random.default_rng(seed), n, stack, scale)
    w, v = linalg.sym_eig(a)
    w_np, v_np = np.linalg.eigh(linalg.symmetrize(a))
    assert w.tobytes() == w_np.tobytes()
    assert v.tobytes() == v_np.tobytes()


@settings(max_examples=150, deadline=None)
@given(*sizes)
def test_eigvalsh_is_numpys_bit_for_bit(n, stack, seed, scale):
    # both read the lower triangle of a matrix that need not be symmetric
    a = square_draws(np.random.default_rng(seed), n, stack, scale)
    assert linalg.eigvalsh(a).tobytes() == np.linalg.eigvalsh(a).tobytes()


def nan_filled(fn, member):
    """fn with the outputs of one matrix filled with NaN, as a failed
    LAPACK call leaves them: every output of a single matrix, or those of
    stack member `member`."""
    def call(a):
        out = fn(a)
        for o in out if isinstance(out, tuple) else (out,):
            o[... if a.ndim == 2 else member] = np.nan
        return out
    return call


@pytest.mark.parametrize("member", [0, 2])
def test_a_failed_lapack_call_raises(monkeypatch, member):
    # a failed call fills its output with NaN instead of raising; linalg
    # raises LinAlgError as numpy.linalg does, for one matrix and for any
    # member of a stack
    rng = np.random.default_rng(member)
    a = np.array([rand_sym(rng, 3) for _ in range(3)])
    b = np.array([_rand_pd(rng, 3) for _ in range(3)])
    lapack = linalg._lapack
    monkeypatch.setattr(linalg, "_lapack", types.SimpleNamespace(
        eigh_lo=nan_filled(lapack.eigh_lo, member),
        eigvalsh_lo=nan_filled(lapack.eigvalsh_lo, member)))
    calls = [lambda: linalg.sym_eig(a), lambda: linalg.eigvalsh(a),
             lambda: linalg.gen_eig_max(a, b), lambda: linalg.sym_eig(b[0]),
             lambda: linalg.eigvalsh(a[0]), lambda: linalg.pinv(b[0]),
             lambda: linalg.pd_inverse(b[0]),
             lambda: linalg.spectral_norm(a[0]),
             lambda: linalg.gen_eig_max(a[0], b[0])]
    for call in calls:
        with pytest.raises(np.linalg.LinAlgError):
            call()
    monkeypatch.undo()
    for call in calls:
        call()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10 ** 6),
       st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]),
       st.floats(-12.0, 0.0))
def test_pinv_symmetry_rule_is_allclose(n, seed, scale, log_skew):
    # pinv accepts m exactly where np.allclose(m, m.T) does with pinv's
    # atol and allclose's default rtol
    rng = np.random.default_rng(seed)
    m = scale * rand_sym(rng, n)
    m = m + 10.0 ** log_skew * scale * rng.standard_normal((n, n))
    want = np.allclose(m, m.T, atol=1e-13 * (1.0 + np.max(np.abs(m))))
    try:
        linalg.pinv(m)
        got = True
    except linalg.InvalidInput:
        got = False
    assert got == want


def _diagonal_form(v, d):
    # the explicit-diagonal product v @ diag(d) @ v^T that psd_sqrt used
    # before it shared pinv's (v * d) @ v^T
    return v @ (d[..., :, None] * np.eye(d.shape[-1])) @ \
        np.swapaxes(v, -2, -1)


def psd_draws(rng, n, stack, kind, scale):
    """Random n x n psd matrices of the given rank kind (full, deficient,
    zero, or a mix of ranks across a stack): one matrix at stack = 0, else
    a stack of that many."""
    def one():
        rank = {"full": n, "deficient": int(rng.integers(0, n)), "zero": 0,
                "mixed": int(rng.integers(0, n + 1))}[kind]
        g = rng.standard_normal((n, rank))
        return scale * (g @ g.T)
    return one() if stack == 0 else np.array([one() for _ in range(stack)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 10 ** 6),
       st.sampled_from(["full", "deficient", "zero", "mixed"]),
       st.sampled_from([1e-12, 1.0, 1e12]))
def test_psd_roots_equal_the_explicit_diagonal_form(n, stack, seed, kind,
                                                    scale):
    m = psd_draws(np.random.default_rng(seed), n, stack, kind, scale)
    w, v = np.linalg.eigh(linalg.symmetrize(m))
    root = _diagonal_form(v, np.sqrt(np.clip(w, 0.0, None)))
    assert linalg.psd_sqrt(m).tobytes() == root.tobytes()


def _old_pd_rule(w):
    # the threshold pd_inverse wrote out for itself
    return w[0] <= 1e-12 * max(float(w[-1]), 1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10 ** 6),
       st.sampled_from([1e-14, 1e-12, 1.0, 1e12]),
       st.floats(-14.0, -10.0), st.sampled_from([-1.0, 0.0, 1.0]))
def test_pd_kernels_reject_what_they_rejected(n, seed, scale, log_gap,
                                              sign):
    # eigenvalues straddling lambda_min = 1e-12 * max(lambda_max, 1e-12):
    # pd_inverse and inv_sqrt_pd, alone and on a stack, reject exactly the
    # matrices the written-out rules rejected, and return the same bits
    # where they accept
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(3):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        w = scale * rng.uniform(0.5, 2.0, n)
        w[0] = sign * 10.0 ** log_gap * max(w.max(), 1e-12)
        members.append(linalg.symmetrize((q * w) @ q.T))
    b = np.array(members)
    rejected = []
    for m in members:
        w, v = np.linalg.eigh(m)
        rejected.append(_old_pd_rule(w))
        try:
            got = linalg.pd_inverse(m)
        except linalg.NotPositiveDefinite:
            got = None
        assert (got is None) == rejected[-1]
        if got is not None:
            assert got.tobytes() == ((v / w) @ v.T).tobytes()
        try:
            got = linalg.inv_sqrt_pd(m)
        except linalg.NotPositiveDefinite:
            got = None
        assert (got is None) == rejected[-1]
        if got is not None:
            assert got.tobytes() == ((v / np.sqrt(w)) @ v.T).tobytes()
    try:
        linalg.inv_sqrt_pd(b)
        stack_rejected = False
    except linalg.NotPositiveDefinite:
        stack_rejected = True
    assert stack_rejected == any(rejected)
