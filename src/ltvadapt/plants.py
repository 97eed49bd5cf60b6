"""Discrete-time linear time-varying plant models.

Each plant exposes the pair (A(k), B(k)) at any step k and a one-step
state update.
"""

import bisect

import numpy as np

from . import linalg

# nominal pair shared by the benchmark scenarios
A_NOMINAL = np.array([[1.1, 0.1], [0.1, 0.2]])
B_NOMINAL = np.array([[0.5, 1.0], [0.1, 0.2]])


class LtvPlant:
    """Base class; subclasses implement eval(k) -> (A, B)."""

    def __init__(self, nx, nu):
        self.nx = linalg.as_count(nx, "plant nx")
        self.nu = linalg.as_count(nu, "plant nu")

    def eval(self, k):
        raise NotImplementedError

    def step(self, k, x, u):
        """A(k) x + B(k) u of float vectors x and u that the caller has
        checked, as `hybrid.run` checks its state and input; a vector of
        the wrong length raises ValueError from the product. A caller
        whose step can overflow guards it, as `hybrid.run` does."""
        a, b = self.eval(k)
        return a @ x + b @ u


class ConstantLti(LtvPlant):
    def __init__(self, a=None, b=None):
        a = A_NOMINAL if a is None else linalg.as_matrix(a)
        b = B_NOMINAL if b is None else linalg.as_matrix(b)
        if a.shape[0] != a.shape[1] or b.shape[0] != a.shape[0]:
            raise linalg.InvalidInput("incompatible plant dimensions")
        super().__init__(a.shape[0], b.shape[1])
        self._a = a
        self._b = b

    def eval(self, k):
        return self._a.copy(), self._b.copy()


class SwitchingPlant(LtvPlant):
    """A is constant; B alternates between two values on blocks of length p.

    The blocks are k in [1 + p*(z-1), p*z]; odd z uses the nominal input
    matrix, even z the alternate one scaled by ell. Step k = 0 belongs to
    the first (nominal) branch.
    """

    def __init__(self, p=12, ell=1.0):
        super().__init__(2, 2)
        self.p = linalg.as_count(p, "block length p")
        self.ell = linalg.as_finite(ell, "ell")
        self._b_alt = np.array(
            [[0.5, -self.ell], [0.1, -0.2 * self.ell]]
        )

    def eval(self, k):
        if k <= 0:
            z = 1
        else:
            z = (k - 1) // self.p + 1
        b = B_NOMINAL if z % 2 == 1 else self._b_alt
        return A_NOMINAL.copy(), b.copy()


class SinusoidalPlant(LtvPlant):
    """A(k) = A0 (I + delta_a diag(cos(2 pi k / p), -cos(2 pi k / p)))."""

    def __init__(self, p=10, delta_a=0.8):
        super().__init__(2, 2)
        self.p = linalg.as_count(p, "period p")
        self.delta_a = linalg.as_finite(delta_a, "delta_a")

    def _delta(self, k):
        return self.delta_a

    def eval(self, k):
        c = np.cos(2.0 * np.pi * k / self.p)
        d = self._delta(k)
        # A0 (I + diag(d c, -d c)) scales A0's columns
        return A_NOMINAL * [1.0 + d * c, 1.0 - d * c], B_NOMINAL.copy()


class VanishingPerturbationPlant(SinusoidalPlant):
    """Sinusoidal variation whose amplitude decays linearly to zero.

    delta_a(k) = 1 - k / T_delta for k <= T_delta, zero afterwards.
    """

    def __init__(self, p=10, t_delta=30):
        super().__init__(p=p, delta_a=1.0)
        self.t_delta = linalg.as_count(t_delta, "decay horizon t_delta")

    def _delta(self, k):
        if k >= self.t_delta:
            return 0.0
        return 1.0 - k / self.t_delta


class PiecewiseFilePlant(LtvPlant):
    """Plant defined by knot points loaded from a plain UTF-8 text file.

    Format: "nx nu num_knots mode", where mode is hold or linear, then a
    table of num_knots rows, each the step index k followed by the
    entries of A and of B, each row-major. The file is read as
    whitespace-separated tokens, so line breaks do not matter. Knot
    indices must be strictly increasing.
    """

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().split()
        if len(tokens) < 4:
            raise linalg.InvalidInput("truncated plant file")
        super().__init__(int(tokens[0]), int(tokens[1]))
        nx, nu = self.nx, self.nu
        num_knots = linalg.as_count(int(tokens[2]), "plant file num_knots")
        self.mode = tokens[3]
        if self.mode not in ("hold", "linear"):
            raise linalg.InvalidInput("mode must be hold or linear")
        per_knot = 1 + nx * nx + nx * nu
        need = 4 + num_knots * per_knot
        if len(tokens) != need:
            raise linalg.InvalidInput(
                "plant file has %d tokens, expected %d" % (len(tokens), need))
        table = np.reshape(tokens[4:], (num_knots, per_knot))
        self._ks = [int(t) for t in table[:, 0]]
        entries = np.array([[float(t) for t in row] for row in table[:, 1:]])
        if not np.isfinite(entries).all():
            raise linalg.InvalidInput("plant file has non-finite entries")
        self.knots = [(k, row[:nx * nx].reshape(nx, nx),
                       row[nx * nx:].reshape(nx, nu))
                      for k, row in zip(self._ks, entries)]
        if any(k2 <= k1 for k1, k2 in zip(self._ks, self._ks[1:])):
            raise linalg.InvalidInput("knot indices must strictly increase")

    def eval(self, k):
        ks, knots = self._ks, self.knots
        # knots[i - 1] is the last knot at or before k; the first knot
        # returns its own matrices, since the formula at w = 0 would turn
        # a -0.0 entry into 0.0
        i = bisect.bisect_right(ks, k)
        if k <= ks[0] or i == len(ks) or self.mode == "hold":
            _, a, b = knots[max(i - 1, 0)]
            return a.copy(), b.copy()
        (k0, a0, b0), (k1, a1, b1) = knots[i - 1:i + 1]
        w = (k - k0) / (k1 - k0)
        return (1 - w) * a0 + w * a1, (1 - w) * b0 + w * b1


# kind -> (plant class, the parameter keys it takes)
_FACTORIES = {
    "constant": (ConstantLti, ("a", "b")),
    "switching": (SwitchingPlant, ("p", "ell")),
    "sinusoidal": (SinusoidalPlant, ("p", "delta_a")),
    "vanishing": (VanishingPerturbationPlant, ("p", "t_delta")),
    "piecewise_file": (PiecewiseFilePlant, ("path",)),
}


def make_plant(kind, params=None):
    """Construct a plant from a config-style kind string and parameter dict.

    A parameter the kind does not take is rejected, not ignored; one left
    out takes the class's default. A missing required parameter or a value
    the class cannot take raises InvalidInput.
    """
    params = params or {}
    try:
        cls, keys = _FACTORIES[kind]
    except KeyError:
        raise linalg.InvalidInput("unknown plant kind %r" % (kind,))
    for key in params:
        if key not in keys:
            raise linalg.InvalidInput("plant kind %r takes no parameter %r"
                                      % (kind, key))
    try:
        return cls(**params)
    except linalg.InvalidInput:
        raise
    except (TypeError, ValueError) as exc:
        raise linalg.InvalidInput("bad %r plant parameters: %s"
                                  % (kind, exc))
