"""Discrete-time linear time-varying plant models.

Each plant exposes the pair (A(k), B(k)) at any step k and a one-step
state update.
"""

import numpy as np

from . import linalg

# nominal pair shared by the benchmark scenarios
A_NOMINAL = np.array([[1.1, 0.1], [0.1, 0.2]])
B_NOMINAL = np.array([[0.5, 1.0], [0.1, 0.2]])


class LtvPlant:
    """Base class; subclasses implement eval(k) -> (A, B)."""

    def __init__(self, nx, nu):
        self.nx = int(nx)
        self.nu = int(nu)

    def eval(self, k):
        raise NotImplementedError

    def step(self, k, x, u):
        """A(k) x + B(k) u of float vectors x and u that the caller has
        checked, as `hybrid.run` checks its state and input; a vector of
        the wrong length raises ValueError from the product."""
        a, b = self.eval(k)
        # a step that overflows yields a non-finite state, which the caller
        # reports as divergence
        with np.errstate(over="ignore", invalid="ignore"):
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
    """Plant defined by knot points loaded from a plain text file.

    Format: "nx nu num_knots mode", where mode is hold or linear, then
    for each knot the step index k followed by the entries of A and of B,
    each row-major. The file is read as whitespace-separated tokens, so
    line breaks do not matter. Knot indices must be strictly increasing.
    """

    def __init__(self, path):
        with open(path) as fh:
            tokens = fh.read().split()
        if len(tokens) < 4:
            raise linalg.InvalidInput("truncated plant file")
        nx, nu, num_knots = (
            linalg.as_count(int(t), "plant file " + what)
            for t, what in zip(tokens, ("nx", "nu", "num_knots")))
        mode = tokens[3]
        if mode not in ("hold", "linear"):
            raise linalg.InvalidInput("mode must be hold or linear")
        super().__init__(nx, nu)
        self.mode = mode
        per_knot = 1 + nx * nx + nx * nu
        need = 4 + num_knots * per_knot
        if len(tokens) != need:
            raise linalg.InvalidInput(
                "plant file has %d tokens, expected %d" % (len(tokens), need)
            )
        pos = 4
        self.knots = []
        for _ in range(num_knots):
            k = int(tokens[pos])
            pos += 1
            a = linalg.as_matrix(np.reshape(
                [float(t) for t in tokens[pos:pos + nx * nx]], (nx, nx)),
                name="A")
            pos += nx * nx
            b = linalg.as_matrix(np.reshape(
                [float(t) for t in tokens[pos:pos + nx * nu]], (nx, nu)),
                name="B")
            pos += nx * nu
            self.knots.append((k, a, b))
        ks = [k for k, _, _ in self.knots]
        if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
            raise linalg.InvalidInput("knot indices must strictly increase")

    def eval(self, k):
        knots = self.knots
        if k <= knots[0][0]:
            return knots[0][1].copy(), knots[0][2].copy()
        if k >= knots[-1][0]:
            return knots[-1][1].copy(), knots[-1][2].copy()
        for (k0, a0, b0), (k1, a1, b1) in zip(knots, knots[1:]):
            if k0 <= k < k1:
                if self.mode == "hold":
                    return a0.copy(), b0.copy()
                w = (k - k0) / (k1 - k0)
                return (1 - w) * a0 + w * a1, (1 - w) * b0 + w * b1
        raise AssertionError("unreachable")


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
