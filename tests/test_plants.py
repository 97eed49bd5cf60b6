import dataclasses

import numpy as np
import pytest

from ltvadapt import linalg, plants
from ltvadapt.window import DataWindow


def test_nominal_pair():
    p = plants.ConstantLti()
    a, b = p.eval(17)
    assert np.array_equal(a, [[1.1, 0.1], [0.1, 0.2]])
    assert np.array_equal(b, [[0.5, 1.0], [0.1, 0.2]])


def test_switching_schedule():
    p = plants.SwitchingPlant(p=12, ell=1.0)
    # block 1 covers k in [1, 12] with the nominal input matrix
    _, b1 = p.eval(1)
    _, b12 = p.eval(12)
    assert np.array_equal(b1, [[0.5, 1.0], [0.1, 0.2]])
    assert np.array_equal(b12, b1)
    # block 2 covers [13, 24] with the alternate matrix
    _, b13 = p.eval(13)
    assert np.array_equal(b13, [[0.5, -1.0], [0.1, -0.2]])
    _, b25 = p.eval(25)
    assert np.array_equal(b25, b1)
    # k <= 0 is nominal
    _, b0 = p.eval(0)
    assert np.array_equal(b0, b1)


def test_switching_ell_scales_alternate_column():
    p = plants.SwitchingPlant(p=12, ell=2.5)
    _, b = p.eval(13)
    assert np.allclose(b, [[0.5, -2.5], [0.1, -0.5]])


def test_sinusoidal_at_zero():
    # cos(0) = 1: A = A0 (I + 0.8 diag(1, -1)) = A0 diag(1.8, 0.2)
    p = plants.SinusoidalPlant(p=10, delta_a=0.8)
    a, b = p.eval(0)
    assert np.allclose(a, [[1.98, 0.02], [0.18, 0.04]], atol=1e-12)
    assert np.array_equal(b, [[0.5, 1.0], [0.1, 0.2]])


def test_sinusoidal_periodicity():
    p = plants.SinusoidalPlant(p=10)
    a0, _ = p.eval(3)
    a1, _ = p.eval(13)
    assert np.allclose(a0, a1, atol=1e-12)


@pytest.mark.parametrize("kind", ["switching", "sinusoidal", "vanishing"])
def test_period_below_one_is_rejected(kind):
    # a sinusoidal period p = 0 would divide by zero at the first step
    with pytest.raises(linalg.InvalidInput, match="p must be >= 1"):
        plants.make_plant(kind, {"p": 0})


@pytest.mark.parametrize("plant", [
    plants.SinusoidalPlant(p=10), plants.SinusoidalPlant(p=40),
    plants.SinusoidalPlant(p=7, delta_a=-2.5),
    plants.VanishingPerturbationPlant(p=10, t_delta=30)])
def test_sinusoidal_eval_is_the_matrix_formula_bit_for_bit(plant):
    # A(k) scales A0's columns; the bytes are those of the formula's
    # A0 @ (I + delta diag(c, -c)), including where a factor is 0
    for k in range(-5, 300):
        c = np.cos(2.0 * np.pi * k / plant.p)
        d = plant._delta(k)
        ref = plants.A_NOMINAL @ (np.eye(2) + d * np.diag([c, -c]))
        a, b = plant.eval(k)
        assert a.dtype == ref.dtype and a.tobytes() == ref.tobytes(), k
        assert b.tobytes() == plants.B_NOMINAL.tobytes()
        assert b is not plants.B_NOMINAL


def test_vanishing_perturbation():
    p = plants.VanishingPerturbationPlant(p=10, t_delta=30)
    a_end, _ = p.eval(30)
    a_nominal, _ = plants.ConstantLti().eval(0)
    assert np.allclose(a_end, a_nominal, atol=1e-12)
    a_mid, _ = p.eval(15)
    assert not np.allclose(a_mid, a_nominal)


def test_step_matches_eval():
    p = plants.SwitchingPlant()
    x = np.array([1.0, -1.0])
    u = np.array([0.5, 0.2])
    a, b = p.eval(14)
    assert np.allclose(p.step(14, x, u), a @ x + b @ u)


def test_plant_dimensions_are_counts():
    # a subclass passing (2.7, 1) used to get nx = 2
    for dims in ((2.7, 1), (2, 0), (True, 1), (2, np.nan)):
        with pytest.raises(linalg.InvalidInput, match="plant n"):
            plants.LtvPlant(*dims)
    p = plants.LtvPlant(2.0, np.int64(1))
    assert (p.nx, p.nu) == (2, 1) and type(p.nx) is int


def test_step_is_plain_arithmetic_that_warns_on_overflow():
    # the caller guards a step that can overflow, as hybrid.run does
    p = plants.ConstantLti(a=1e300 * np.eye(2), b=np.eye(2))
    with pytest.warns(RuntimeWarning, match="overflow"):
        x = p.step(0, np.array([1e10, 1e10]), np.zeros(2))
    assert np.isinf(x).all()


def test_window_residual_across_switch():
    # B switches at k = 13; a window of steps 10 .. 15 straddles it, so
    # only the right alignment of steps to columns explains every column
    p = plants.SwitchingPlant()
    assert not np.array_equal(p.eval(12)[1], p.eval(13)[1])
    rng = np.random.default_rng(2)
    w = DataWindow.empty(2, 2, 6)
    x = np.array([1.0, -0.5])
    for k in range(16):
        u = rng.uniform(-1.0, 1.0, 2)
        x_next = p.step(k, x, u)
        w = w.push(x, u, x_next)
        x = x_next
    assert w.kappa == 16
    assert w.consistency_residual(p) == 0.0
    for kappa in (15, 17):
        shifted = dataclasses.replace(w, kappa=kappa)
        assert shifted.consistency_residual(p) > 0.1


def test_piecewise_file_plant(tmp_path):
    path = tmp_path / "plant.txt"
    path.write_text(
        "1 1 2 hold\n"
        "0 0.5 1.0\n"
        "10 0.9 1.0\n"
    )
    p = plants.PiecewiseFilePlant(str(path))
    a, b = p.eval(3)
    assert a[0, 0] == 0.5 and b[0, 0] == 1.0
    a, _ = p.eval(10)
    assert a[0, 0] == 0.9


def test_piecewise_file_linear(tmp_path):
    path = tmp_path / "plant.txt"
    path.write_text(
        "1 1 2 linear\n"
        "0 0.0 1.0\n"
        "10 1.0 1.0\n"
    )
    p = plants.PiecewiseFilePlant(str(path))
    a, _ = p.eval(5)
    assert abs(a[0, 0] - 0.5) < 1e-12


def test_piecewise_file_line_breaks_do_not_matter(tmp_path):
    # one nx = 2 knot on one line, and on 1 + 2 nx lines, read the same
    knot = ["0", "1.1 0.1", "0.1 0.2", "1 0", "0 1"]
    plants_read = []
    for sep in (" ", "\n"):
        path = tmp_path / ("plant%d.txt" % len(plants_read))
        path.write_text("2 2 1 hold\n" + sep.join(knot) + "\n")
        plants_read.append(plants.PiecewiseFilePlant(str(path)))
    for p in plants_read:
        a, b = p.eval(3)
        assert np.array_equal(a, [[1.1, 0.1], [0.1, 0.2]])
        assert np.array_equal(b, np.eye(2))


def _scan_eval(knots, mode, k):
    """Reference: knot lookup by a linear scan over (k, A, B) knots."""
    if k <= knots[0][0]:
        return knots[0][1].copy(), knots[0][2].copy()
    if k >= knots[-1][0]:
        return knots[-1][1].copy(), knots[-1][2].copy()
    for (k0, a0, b0), (k1, a1, b1) in zip(knots, knots[1:]):
        if k0 <= k < k1:
            if mode == "hold":
                return a0.copy(), b0.copy()
            w = (k - k0) / (k1 - k0)
            return (1 - w) * a0 + w * a1, (1 - w) * b0 + w * b1
    raise AssertionError("unreachable")


def test_piecewise_eval_is_the_scan_bit_for_bit(tmp_path):
    # random files in both modes whose entries include signed zeros, read
    # at every k from 3 steps before the first knot to 3 after the last
    rng = np.random.default_rng(7)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 1e-300, 3e7])
    path = tmp_path / "plant.txt"
    for trial in range(80):
        nx, nu, n = rng.integers(1, 4), rng.integers(1, 3), rng.integers(1, 6)
        mode = ("hold", "linear")[trial % 2]
        ks = np.sort(rng.choice(np.arange(-6, 30), n, replace=False))
        knots = []
        for k in ks:
            a = np.where(rng.random((nx, nx)) < 0.5,
                         rng.choice(pool, (nx, nx)),
                         rng.standard_normal((nx, nx)))
            knots.append((int(k), a, rng.choice(pool, (nx, nu))))
        path.write_text("%d %d %d %s\n" % (nx, nu, n, mode) + "".join(
            "%d %s\n" % (k, " ".join(map(repr, np.r_[a.ravel(), b.ravel()]
                                          .tolist())))
            for k, a, b in knots))
        p = plants.PiecewiseFilePlant(str(path))
        for k in range(ks[0] - 3, ks[-1] + 4):
            for got, ref in zip(p.eval(k), _scan_eval(knots, mode, k)):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (trial, k)


def test_make_plant_factory():
    p = plants.make_plant("switching", {"p": 12, "ell": 2.5})
    assert isinstance(p, plants.SwitchingPlant)
    with pytest.raises(linalg.InvalidInput):
        plants.make_plant("no-such-kind", {})


@pytest.mark.parametrize("kind,key", [("vanishing", "delta_a"),
                                      ("sinusoidal", "ell"),
                                      ("constant", "p")])
def test_make_plant_rejects_parameters_of_other_kinds(kind, key):
    with pytest.raises(linalg.InvalidInput,
                       match="%r takes no parameter %r" % (kind, key)):
        plants.make_plant(kind, {key: 0.4})


def test_make_plant_constant_uses_given_matrices():
    a = np.array([[0.5, 0.0], [0.2, 0.9]])
    b = np.array([[1.0], [0.0]])
    p = plants.make_plant("constant", {"a": a, "b": b})
    pa, pb = p.eval(7)
    assert np.array_equal(pa, a) and np.array_equal(pb, b)
    assert (p.nx, p.nu) == (2, 1)
    na, nb = plants.make_plant("constant").eval(0)
    assert np.array_equal(na, plants.A_NOMINAL)
    assert np.array_equal(nb, plants.B_NOMINAL)


@pytest.mark.parametrize("kind,cls", [
    ("constant", plants.ConstantLti), ("switching", plants.SwitchingPlant),
    ("sinusoidal", plants.SinusoidalPlant),
    ("vanishing", plants.VanishingPerturbationPlant)])
def test_make_plant_defaults_are_the_class_defaults(kind, cls):
    made, own = plants.make_plant(kind), cls()
    assert type(made) is cls
    assert vars(made).keys() == vars(own).keys()
    for key, value in vars(own).items():
        assert np.array_equal(vars(made)[key], value), key
    for k in range(0, 40, 3):
        for m, o in zip(made.eval(k), own.eval(k)):
            assert np.array_equal(m, o)


def test_make_plant_wraps_constructor_errors(tmp_path):
    with pytest.raises(linalg.InvalidInput):
        plants.make_plant("piecewise_file", {})
    with pytest.raises(linalg.InvalidInput):
        plants.make_plant("switching", {"p": "twelve"})
    with pytest.raises(linalg.InvalidInput, match="block length"):
        plants.make_plant("switching", {"p": 0})
    # a parameter that is not finite, or a count that is not whole, is
    # rejected rather than run: ell = nan diverged, delta_a = inf warned
    # and diverged, and p = 2.5 ran as p = 2
    for kind, params, match in [
            ("switching", {"ell": np.nan}, "ell"),
            ("switching", {"ell": np.inf}, "ell"),
            ("switching", {"p": 2.5}, "block length"),
            ("switching", {"p": np.nan}, "block length"),
            ("sinusoidal", {"delta_a": np.inf}, "delta_a"),
            ("sinusoidal", {"delta_a": np.nan}, "delta_a"),
            ("sinusoidal", {"p": 10.5}, "period"),
            ("vanishing", {"t_delta": 30.5}, "decay horizon"),
            ("vanishing", {"t_delta": np.inf}, "decay horizon")]:
        with pytest.raises(linalg.InvalidInput, match=match):
            plants.make_plant(kind, params)
    with pytest.raises(linalg.InvalidInput, match="block length"):
        plants.SwitchingPlant(p=2.5)
    # a whole float is a count
    assert plants.make_plant("switching", {"p": 12.0}).p == 12
    # a knot entry that is not finite, in A or in B
    for knot in ("0 nan 1.0", "0 0.5 inf"):
        path = tmp_path / "plant.txt"
        path.write_text("1 1 1 hold\n" + knot + "\n")
        with pytest.raises(linalg.InvalidInput, match="non-finite"):
            plants.make_plant("piecewise_file", {"path": str(path)})
