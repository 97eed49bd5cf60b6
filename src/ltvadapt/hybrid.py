"""Closed-loop hybrid simulation of the event-triggered adaptive scheme.

The plant runs in physical time k; controller updates are episode jumps
counted by j. `run` is one step loop: a step decides whether a design is
due (at the first step after an exploration: the forced design at k = T
after T open-loop steps and, in time mode, the design at the end of the
T re-excitation steps after each n_p-periodic tick; in event mode also
when the certified decrease fails), makes that one design call and
adopts a feasible result as an episode jump, applies an exploration
input or the feedback K x, records itself and advances the plant. The
step loop does not advance the data window: a design at step k builds its
window from the records, pushing onto the last window built the samples
(x(i), u(i), x(i+1)) since that window's kappa, at most T of them. The
records keep each state and applied input, so the window holds the floats
that pushing every step would have. A jump at step k is folded into that
step's record and marked by tau = 0, and a record marks an exploration
input by `explore`.
A trajectory is its records: each carries the bundle in force at its
step, and the episodes, the initial bundle and the start of the
monitored segment are read from them. The module writes no file; `cli`
writes a trajectory out as `trajectory.csv`.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, maxdet, synthesis
from .window import DataWindow

logger = logging.getLogger(__name__)

COMPLETED = "Completed"
DIVERGED = "Diverged"

EVENT_TRIGGERED = "event"
FIXED_GAIN = "fixed"
TIME_TRIGGERED = "time"

DIVERGENCE_NORM = 1e6
TIE_TOL = 1e-12


def sigma(a1, c_sigma):
    """Trigger threshold factor on the certified decrease rate."""
    if not 0.0 <= a1 <= 1.0:
        raise linalg.InvalidInput("a1 must lie in [0, 1]")
    if not 0.0 < c_sigma <= 1.0:
        raise linalg.InvalidInput("c_sigma must lie in (0, 1]")
    return 1.0 - c_sigma * (1.0 - a1)


def decreased(v_next, sig_v):
    """Certified decrease test V(x+) <= sigma(a1) V(x), given V(x+) and
    sigma(a1) V(x); ties within TIE_TOL count as a decrease. Elementwise
    on arrays."""
    return v_next <= sig_v * (1.0 + TIE_TOL)


@dataclass
class StepRecord:
    k: int
    j: int
    x: np.ndarray
    u: np.ndarray | None
    V: float | None
    sigma_a1: float | None
    bundle: synthesis.ControllerBundle | None  # None before the first design
    explore: bool  # u is an exploration draw, not K x
    synth_feasible: bool | None
    tau: int


@dataclass
class Episode:
    k: int
    new_bundle: synthesis.ControllerBundle


@dataclass
class Trajectory:
    records: list = field(default_factory=list)
    status: str = COMPLETED

    @property
    def monitor_start(self):
        """Index of the first record with a certificate, else the number
        of records (a run that diverged while exploring)."""
        return next((i for i, r in enumerate(self.records)
                     if r.bundle is not None), len(self.records))

    @property
    def initial_bundle(self):
        """Bundle of the forced design at k = T, None without one."""
        return next((r.bundle for r in self.records if r.bundle is not None),
                    None)

    @property
    def episodes(self):
        """One episode per jump, the records marked tau = 0."""
        return [Episode(r.k, r.bundle) for r in self.records if r.tau == 0]

    def state_norms(self):
        return np.array([state_norm(r.x) for r in self.records])


@dataclass
class ScenarioConfig:
    mode: str = EVENT_TRIGGERED
    horizon: int = 100
    T: int | None = None  # default nx + nu
    eps_F: float = synthesis.DEFAULT_EPS_F
    c_sigma: float = 0.1
    seed: int = 0
    n_p: int = 12  # re-design period in time-triggered mode
    x0: np.ndarray | None = None
    solver_options: maxdet.SolverOptions | None = None

    def __post_init__(self):
        """The checks that need no plant; a whole float count becomes int."""
        if self.mode not in (EVENT_TRIGGERED, FIXED_GAIN, TIME_TRIGGERED):
            raise linalg.InvalidInput("unknown mode %r" % (self.mode,))
        self.horizon = linalg.as_count(self.horizon, "horizon")
        if self.T is not None:
            self.T = linalg.as_count(self.T, "window width T")
        self.seed = linalg.as_count(self.seed, "seed", least=0)
        if self.mode == TIME_TRIGGERED:
            self.n_p = linalg.as_count(self.n_p, "n_p")
        synthesis.check_eps_F(self.eps_F)
        if not 0.0 < self.c_sigma <= 1.0:
            raise linalg.InvalidInput("c_sigma must lie in (0, 1]")

    def validate(self, plant):
        """The checks that need the plant; returns the window width T."""
        t = self.T if self.T is not None else plant.nx + plant.nu
        # the forced design at k = T needs a step of its own to be recorded
        if self.horizon <= t:
            raise linalg.InvalidInput("horizon must exceed T")
        if self.x0 is not None:
            linalg.as_vector(self.x0, plant.nx, name="x0")
        # each tick re-excites the plant for T steps before its design runs;
        # a shorter period restarts that before any scheduled design
        if self.mode == TIME_TRIGGERED and self.n_p < t:
            raise linalg.InvalidInput(
                "n_p (%d) must be at least T (%d)" % (self.n_p, t))
        return t


_FLOAT_MAX = float(np.finfo(float).max)


def state_norm(x):
    """Euclidean norm of x; a finite x whose squares could overflow is
    scaled by max|x| first, so that its norm is finite too. A non-finite
    x has a non-finite norm. sqrt(x @ x) is what np.linalg.norm computes
    for a float vector, without its wrapper."""
    m = float(np.abs(x).max())
    if math.sqrt(_FLOAT_MAX / x.size) < m < np.inf:
        return m * float(np.linalg.norm(x / m))
    return math.sqrt(x @ x)


def _lyapunov(bundle, x):
    """V(x) under bundle, None without one; inf where x S x is not finite,
    as past the divergence bound. The caller guards the overflow."""
    if bundle is None:
        return None
    v = bundle.lyapunov(x)
    return v if math.isfinite(v) else np.inf


def _record(k, j, x, u, bundle, v, c_sigma, explore=False,
            synth_feasible=None):
    """Record of step k whose state has V(x) = v under bundle; no
    certificate fields before the first design."""
    certified = bundle is not None
    return StepRecord(
        k=k, j=j, x=x.copy(), u=u, V=v,
        sigma_a1=sigma(bundle.a1, c_sigma) if certified else None,
        bundle=bundle,
        explore=explore, synth_feasible=synth_feasible,
        tau=0 if synth_feasible else 1,
    )


def _design_window(w, records, x):
    """The window ending at the current step k = len(records), whose state
    is x: w, the last window built, advanced by the samples (x(i), u(i),
    x(i+1)) read from the records since its kappa. A window T or more steps
    old is replaced by a zero window at kappa k - T, so that at most T
    samples are pushed and the result holds only samples of the run."""
    k = len(records)
    if k - w.kappa >= w.width:
        w = DataWindow.empty(w.nx, w.nu, w.width, kappa=k - w.width)
    successors = [r.x for r in records[w.kappa + 1:]] + [x]
    for r, x_next in zip(records[w.kappa:], successors):
        w = w.push(r.x, r.u, x_next)
    return w


def run(plant, cfg):
    """Simulate one scenario and return its trajectory."""
    t_width = cfg.validate(plant)
    opts = cfg.solver_options or maxdet.SolverOptions()
    rng = np.random.default_rng(cfg.seed)
    x = (np.ones(plant.nx) if cfg.x0 is None
         else linalg.as_vector(cfg.x0, plant.nx))
    w = DataWindow.empty(plant.nx, plant.nu, t_width)  # the last one built
    traj = Trajectory()
    bundle = None
    j = 0
    explore_left = t_width  # open-loop i.i.d. uniform inputs still to apply

    k = 0
    v = None  # V(x) under bundle
    while k < cfg.horizon:
        # 1. is a design due? One runs at the first step after each
        # exploration and, in event mode, after a failed decrease; the
        # previous record holds V(x(k-1)) and sigma(a1) of the current
        # bundle, and v is V(x) under it, computed by the previous step
        prev = traj.records[-1] if k else None
        due = explore_left == 0 and (
            prev.explore or cfg.mode == EVENT_TRIGGERED and not decreased(
                v, prev.sigma_a1 * prev.V))
        # a time-mode tick re-excites the plant for T steps so that the
        # design window is not rank-deficient closed-loop data
        if (cfg.mode == TIME_TRIGGERED and k > t_width
                and (k - t_width) % cfg.n_p == 0):
            explore_left = t_width

        # 2. design; adopt a feasible gain, else keep the current one or,
        # at the forced design, fall back to the open-loop zero gain
        synth_feasible = None
        if due:
            held = bundle
            w = _design_window(w, traj.records, x)
            cand = synthesis.synthesize(w, eps_F=cfg.eps_F, opts=opts)
            synth_feasible = cand is not None
            if cand is not None:
                bundle = cand
                j += 1
            elif bundle is None:
                logger.warning("initial design infeasible at k=%d; "
                               "running with zero fallback gain", k)
                bundle = synthesis.fallback_bundle(w)
            elif cfg.mode == TIME_TRIGGERED:
                logger.info("scheduled design infeasible at k=%d; "
                            "keeping previous gain", k)
            if bundle is not held:
                with np.errstate(over="ignore", invalid="ignore"):
                    v = _lyapunov(bundle, x)

        # 3. input: exploration or state feedback
        explore = explore_left > 0
        if explore:
            u = rng.uniform(-1.0, 1.0, plant.nu)
            explore_left -= 1
        else:
            u = bundle.K @ x

        # 4. record, then step the plant; a step that overflows yields a
        # non-finite state, which ends the run Diverged. sqrt(x @ x) decides
        # as state_norm does: below the bound both are that value, and where
        # state_norm scales x both are above it or NaN, which fails too
        traj.records.append(_record(k, j, x, u, bundle, v, cfg.c_sigma,
                                    explore, synth_feasible))
        with np.errstate(over="ignore", invalid="ignore"):
            x = plant.step(k, x, u)
            v = _lyapunov(bundle, x)
            diverged = not math.sqrt(x @ x) <= DIVERGENCE_NORM
        k += 1
        if diverged:
            traj.status = DIVERGED
            break

    # a diverged last state may hold a nan or inf, which has no V
    v = v if np.isfinite(x).all() else None
    traj.records.append(_record(k, j, x, None, bundle, v, cfg.c_sigma))
    return traj
