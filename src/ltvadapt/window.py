"""Sliding window of input/state data used for controller synthesis."""

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class DataWindow:
    """Most recent T samples ending at step kappa.

    Columns of Xhat are the states x(kappa-T) .. x(kappa-1), U holds the
    matching inputs, and X the successor states x(kappa-T+1) .. x(kappa).
    """

    kappa: int
    Xhat: np.ndarray
    X: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        blocks = []
        for b in (self.Xhat, self.X, self.U):
            m = np.asarray(b, dtype=float)
            if m.ndim == 1:
                m = m.reshape(1, -1)  # a 1-D block is one row
            if m.ndim != 2 or m.size == 0:
                raise linalg.InvalidInput("window blocks must be non-empty "
                                          "2-D arrays")
            blocks.append(m)
        xhat, x, u = blocks
        if x.shape != xhat.shape or u.shape[1] != xhat.shape[1]:
            raise linalg.InvalidInput("window blocks have mismatched shapes")
        # one finiteness test over all three blocks
        if not np.isfinite(np.concatenate(blocks, axis=None)).all():
            raise linalg.InvalidInput("window contains non-finite entries")
        object.__setattr__(self, "Xhat", xhat)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "U", u)

    @property
    def nx(self):
        return self.Xhat.shape[0]

    @property
    def nu(self):
        return self.U.shape[0]

    @property
    def width(self):
        return self.Xhat.shape[1]

    @classmethod
    def empty(cls, nx, nu, width):
        nx, nu, width = (linalg.as_count(n, "window " + what) for n, what in
                         ((nx, "nx"), (nu, "nu"), (width, "width")))
        return cls(
            kappa=0,
            Xhat=np.zeros((nx, width)),
            X=np.zeros((nx, width)),
            U=np.zeros((nu, width)),
        )

    def push(self, x_prev, u_prev, x_next):
        """Append one sample (x(k), u(k), x(k+1)), dropping the oldest.

        Only the sample's lengths are checked here; the constructor checks
        the new window, the sample with it, for finiteness.
        """
        cols = []
        for v, n, name in ((x_prev, self.nx, "x_prev"),
                           (u_prev, self.nu, "u_prev"),
                           (x_next, self.nx, "x_next")):
            col = np.asarray(v, dtype=float).reshape(-1, 1)
            if len(col) != n:
                raise linalg.InvalidInput(
                    f"{name} has length {len(col)}, expected {n}")
            cols.append(col)
        x_prev, u_prev, x_next = cols
        return DataWindow(
            kappa=self.kappa + 1,
            Xhat=np.concatenate([self.Xhat[:, 1:], x_prev], axis=1),
            X=np.concatenate([self.X[:, 1:], x_next], axis=1),
            U=np.concatenate([self.U[:, 1:], u_prev], axis=1),
        )

    def z_matrix(self):
        """Stacked regressor Z = [Xhat; U]."""
        return np.vstack([self.Xhat, self.U])

    def consistency_residual(self, plant):
        """Spectral norm of X minus the plant's one-step predictions.

        Column t is predicted by `plant.step` at k = kappa - T + t, so the
        residual is exactly zero for a window the plant generated.
        """
        pred = np.empty_like(self.X)
        for t in range(self.width):
            pred[:, t] = plant.step(self.kappa - self.width + t,
                                    self.Xhat[:, t], self.U[:, t])
        return linalg.spectral_norm(self.X - pred)
