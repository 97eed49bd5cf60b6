import numpy as np
import pytest

from ltvadapt import linalg, plants
from ltvadapt.window import DataWindow


def test_empty_window():
    w = DataWindow.empty(2, 1, 4)
    assert w.nx == 2 and w.nu == 1 and w.width == 4
    assert w.kappa == 0
    assert not w.Xhat.any()
    # each dimension is a count: a whole float is its int; 2.5, 0, True
    # and 10**400 fail
    w2 = DataWindow.empty(2.0, 1, 4.0)
    assert (w2.nx, w2.nu, w2.width) == (2, 1, 4)
    for dims in ((2.5, 1, 3), (2, 0, 3), (2, 1, 0), (2, 1, float("nan")),
                 (True, 1, 3), (2, 1, 10**400)):
        with pytest.raises(linalg.InvalidInput, match="window"):
            DataWindow.empty(*dims)


def test_push_replays_samples():
    w = DataWindow.empty(1, 1, 2)
    w = w.push([1.0], [0.5], [2.0])
    w = w.push([2.0], [0.25], [3.0])
    assert w.kappa == 2
    assert np.array_equal(w.Xhat, [[1.0, 2.0]])
    assert np.array_equal(w.U, [[0.5, 0.25]])
    assert np.array_equal(w.X, [[2.0, 3.0]])
    # oldest sample drops out
    w = w.push([3.0], [0.1], [4.0])
    assert np.array_equal(w.Xhat, [[2.0, 3.0]])


def test_z_matrix_and_rank():
    w = DataWindow(kappa=2, Xhat=np.array([[1.0, 0.0]]),
                   X=np.array([[0.5, 0.5]]), U=np.array([[0.0, 1.0]]))
    assert np.array_equal(w.z_matrix(), [[1.0, 0.0], [0.0, 1.0]])


def test_consistency_residual_scalar_lti():
    # x+ = 0.5 x + u with x0 = 1 and constant input 0.1:
    # x1 = 0.6, x2 = 0.4
    plant = plants.ConstantLti(a=[[0.5]], b=[[1.0]])
    w = DataWindow.empty(1, 1, 2)
    x = np.array([1.0])
    for k in range(2):
        u = np.array([0.1])
        xn = plant.step(k, x, u)
        w = w.push(x, u, xn)
        x = xn
    assert np.allclose(w.X, [[0.6, 0.4]], atol=1e-15)
    assert w.consistency_residual(plant) <= 1e-14
    # the residual must expose a wrong model
    wrong = plants.ConstantLti(a=[[0.9]], b=[[1.0]])
    assert w.consistency_residual(wrong) > 0.1


class _OffsetPlant(plants.ConstantLti):
    """x+ = A x + B u + 1: a step that is not A(k) x + B(k) u."""

    def step(self, k, x, u):
        return super().step(k, x, u) + 1.0


def test_consistency_residual_predicts_by_plant_step():
    # the residual of a window is zero under the plant whose steps made it
    plant = _OffsetPlant(a=[[0.5]], b=[[1.0]])
    w = DataWindow.empty(1, 1, 3)
    x = np.array([1.0])
    for k in range(3):
        u = np.array([0.1 * k])
        xn = plant.step(k, x, u)
        w = w.push(x, u, xn)
        x = xn
    assert w.consistency_residual(plant) == 0.0


def test_push_rejects_bad_samples():
    w = DataWindow.empty(2, 1, 3)
    with pytest.raises(linalg.InvalidInput):
        w.push([1.0, 2.0, 3.0], [0.5], [1.0, 1.0])  # x(k) too long
    with pytest.raises(linalg.InvalidInput):
        w.push([1.0, 2.0], [0.5, 0.5], [1.0, 1.0])  # u(k) too long
    with pytest.raises(linalg.InvalidInput):
        w.push([1.0, 2.0], [0.5], [np.nan, 1.0])
    with pytest.raises(linalg.InvalidInput):
        w.push([1.0, 2.0], [np.inf], [1.0, 1.0])


def test_window_shape_validation():
    with pytest.raises(linalg.InvalidInput):
        DataWindow(kappa=0, Xhat=np.zeros((2, 3)), X=np.zeros((2, 4)),
                   U=np.zeros((1, 3)))


def test_pushed_window_equals_the_constructed_one():
    # push builds through the constructor, so the window it returns is
    # the one the constructor gives for the last T samples, byte for byte
    rng = np.random.default_rng(4)
    samples = [(rng.standard_normal(2), rng.standard_normal(1),
                rng.standard_normal(2)) for _ in range(5)]
    w = DataWindow.empty(2, 1, 3)
    for x_prev, u_prev, x_next in samples:
        w = w.push(x_prev, u_prev, x_next)
    xs, us, xns = zip(*samples[-3:])
    built = DataWindow(5, np.column_stack(xs), np.column_stack(xns),
                       np.column_stack(us))
    assert built.kappa == w.kappa
    for a, b in ((built.Xhat, w.Xhat), (built.X, w.X), (built.U, w.U)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_window_reads_a_1d_block_as_one_row():
    w = DataWindow(kappa=2, Xhat=[1.0, 0.5], X=[0.5, 0.25], U=[0, 1])
    assert w.Xhat.shape == w.X.shape == w.U.shape == (1, 2)
    assert w.U.dtype == float
    assert np.array_equal(w.z_matrix(), [[1.0, 0.5], [0.0, 1.0]])


@pytest.mark.parametrize("xhat, x, u", [
    (np.zeros((2, 0)), np.zeros((2, 0)), np.zeros((1, 0))),  # empty
    (np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((0, 3))),  # empty U
    (np.zeros(()), np.zeros(()), np.zeros(())),  # not an array of samples
    ([[1.0, np.nan]], [[1.0, 2.0]], [[0.0, 1.0]]),  # nan state
    ([[1.0, 2.0]], [[1.0, np.inf]], [[0.0, 1.0]]),  # inf successor
    ([[1.0, 2.0]], [[1.0, 2.0]], [[0.0, -np.inf]]),  # inf input
    (np.zeros((2, 3)), np.zeros((1, 3)), np.zeros((1, 3))),  # X rows
    (np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((1, 2))),  # U columns
    # a stack of windows is not one window
    (np.zeros((3, 2, 4)), np.zeros((3, 2, 4)), np.zeros((3, 2, 4))),
    (np.zeros((3, 2, 4)), np.zeros((3, 2, 4)), np.zeros((1, 2))),
])
def test_window_rejects_empty_nonfinite_and_mismatched_blocks(xhat, x, u):
    with pytest.raises(linalg.InvalidInput):
        DataWindow(kappa=3, Xhat=xhat, X=x, U=u)
