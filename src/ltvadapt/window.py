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
        xhat = linalg.as_matrix(self.Xhat)
        x = linalg.as_matrix(self.X)
        u = linalg.as_matrix(self.U)
        if x.shape != xhat.shape or u.shape[1] != xhat.shape[1]:
            raise linalg.InvalidInput("window blocks have mismatched shapes")
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
        if nx < 1 or nu < 1 or width < 1:
            raise linalg.InvalidInput("window dimensions must be positive")
        return cls(
            kappa=0,
            Xhat=np.zeros((nx, width)),
            X=np.zeros((nx, width)),
            U=np.zeros((nu, width)),
        )

    def push(self, x_prev, u_prev, x_next):
        """Append one sample (x(k), u(k), x(k+1)), dropping the oldest."""
        return DataWindow(
            kappa=self.kappa + 1,
            Xhat=linalg.shift_append(self.Xhat, x_prev),
            X=linalg.shift_append(self.X, x_next),
            U=linalg.shift_append(self.U, u_prev),
        )

    def z_matrix(self):
        """Stacked regressor Z = [Xhat; U]."""
        return np.vstack([self.Xhat, self.U])

    def consistency_residual(self, stacked):
        """Spectral norm of X - calA N(Xhat) - calB N(U).

        Zero (up to roundoff) whenever the window really was generated by
        the time-varying pairs collected in `stacked`.
        """
        pred = stacked.calA @ linalg.n_map(self.Xhat)
        pred = pred + stacked.calB @ linalg.n_map(self.U)
        return linalg.spectral_norm(self.X - pred)
