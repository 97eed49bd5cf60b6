"""Sliding window of input/state data used for controller synthesis.

`hybrid.run` builds a window only at a design, not at every step: it
pushes onto the last window built the samples its records hold since
that window's kappa, at most T of them, so `push` runs at design time.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg


def _check_finite(a):
    """Raise InvalidInput unless every entry of the float array a is
    finite."""
    if not np.isfinite(a).all():
        raise linalg.InvalidInput("window contains non-finite entries")


@dataclass(frozen=True)
class DataWindow:
    """Most recent T samples ending at step kappa.

    Columns of Xhat are the states x(kappa-T) .. x(kappa-1), U holds the
    matching inputs, and X the successor states x(kappa-T+1) .. x(kappa).
    The window owns its data, one read-only array [Xhat; U; X], and the
    three fields are its row blocks.
    """

    kappa: int
    Xhat: np.ndarray
    X: np.ndarray
    U: np.ndarray
    _data: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check kappa and the blocks and copy the blocks into the window's
        data; a caller that changes its arrays afterwards leaves the window
        as it was."""
        object.__setattr__(self, "kappa", linalg.as_count(
            self.kappa, "window kappa", least=0))
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
        data = np.concatenate((xhat, u, x))
        # one finiteness test over all three blocks
        _check_finite(data)
        self._keep(data, len(xhat), len(u))

    def _keep(self, data, nx, nu):
        """Store data = [Xhat; U; X], read-only, and its row blocks."""
        data.flags.writeable = False
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "Xhat", data[:nx])
        object.__setattr__(self, "U", data[nx:nx + nu])
        object.__setattr__(self, "X", data[nx + nu:])

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
    def empty(cls, nx, nu, width, kappa=0):
        """All-zero window of width columns ending at step kappa."""
        nx, nu, width = (linalg.as_count(n, "window " + what) for n, what in
                         ((nx, "nx"), (nu, "nu"), (width, "width")))
        return cls(
            kappa=kappa,
            Xhat=np.zeros((nx, width)),
            X=np.zeros((nx, width)),
            U=np.zeros((nu, width)),
        )

    def push(self, x_prev, u_prev, x_next):
        """Append one sample (x(k), u(k), x(k+1)), dropping the oldest.

        Only the sample is checked: its lengths, then its finiteness, with
        the constructor's message. The T - 1 columns kept were checked when
        they entered, and the window's data is read-only, so the new
        window's data is the last T - 1 columns of this one's and the
        sample, without the constructor's check of every column.
        """
        cols = []
        for v, n, name in ((x_prev, self.nx, "x_prev"),
                           (u_prev, self.nu, "u_prev"),
                           (x_next, self.nx, "x_next")):
            col = np.asarray(v, dtype=float).reshape(-1)
            if len(col) != n:
                raise linalg.InvalidInput(
                    f"{name} has length {len(col)}, expected {n}")
            cols.append(col)
        sample = np.concatenate(cols)
        _check_finite(sample)
        w = object.__new__(DataWindow)
        object.__setattr__(w, "kappa", self.kappa + 1)
        w._keep(np.concatenate((self._data[:, 1:], sample[:, None]), axis=1),
                self.nx, self.nu)
        return w

    def z_matrix(self):
        """Stacked regressor Z = [Xhat; U], a read-only view of the
        window's data."""
        return self._data[:self.nx + self.nu]

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
