"""Closed-loop hybrid simulation of the event-triggered adaptive scheme.

The plant runs in physical time k; controller updates are episode jumps
counted by j. A run starts with an exploration phase of T open-loop
steps, performs a forced design at k = T, and then flows under state
feedback, re-designing the gain whenever the trigger rule fires (event
mode), never (fixed mode), or on a fixed schedule (time-triggered mode).
Each trajectory record summarizes one physical step; a jump at step k is
folded into that step's record and marked by tau = 0.
"""

import csv
import logging
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

IN_C = "InC"
IN_D = "InD"


class InternalError(RuntimeError):
    pass


def sigma(a1, c_sigma=0.1):
    """Trigger threshold factor on the certified decrease rate."""
    if not 0.0 <= a1 <= 1.0:
        raise linalg.InvalidInput("a1 must lie in [0, 1]")
    if not 0.0 < c_sigma <= 1.0:
        raise linalg.InvalidInput("c_sigma must lie in (0, 1]")
    return 1.0 - c_sigma * (1.0 - a1)


@dataclass
class HybridState:
    x: np.ndarray
    kappa: int
    window: DataWindow
    bundle: synthesis.ControllerBundle
    xhat: np.ndarray
    tau: int


@dataclass
class StepRecord:
    k: int
    j: int
    x: np.ndarray
    u: np.ndarray | None
    V: float | None
    sigma_a1: float | None
    a1: float | None
    trigger: bool
    synth_feasible: bool | None
    kappa: int
    tau: int


@dataclass
class Episode:
    k: int
    j: int
    old_bundle: synthesis.ControllerBundle | None
    new_bundle: synthesis.ControllerBundle


@dataclass
class Trajectory:
    records: list = field(default_factory=list)
    episodes: list = field(default_factory=list)
    status: str = COMPLETED
    monitor_start: int = 0  # index of the first record with a certificate
    initial_bundle: synthesis.ControllerBundle | None = None

    @property
    def num_episodes(self):
        return len(self.episodes)

    def state_norms(self):
        return np.array([float(np.linalg.norm(r.x)) for r in self.records])


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

    def validate(self, plant):
        t = self.T if self.T is not None else plant.nx + plant.nu
        if t < 1:
            raise linalg.InvalidInput("window width must be positive")
        if self.horizon < t:
            raise linalg.InvalidInput("horizon must be at least T")
        if not 0.0 < self.eps_F < 1.0:
            raise linalg.InvalidInput("eps_F must lie in (0, 1)")
        if self.mode not in (EVENT_TRIGGERED, FIXED_GAIN, TIME_TRIGGERED):
            raise linalg.InvalidInput("unknown mode %r" % (self.mode,))
        if self.mode == TIME_TRIGGERED and self.n_p < 1:
            raise linalg.InvalidInput("n_p must be positive")
        return t


def _diverged(x):
    return not np.all(np.isfinite(x)) or float(np.linalg.norm(x)) > \
        DIVERGENCE_NORM


def classify(q, c_sigma, eps_F, opts):
    """Trigger decision with a lazy design attempt.

    Returns (mode, cached_bundle, synth_attempted). The SDP is solved
    only when the decrease test fails and the toggle allows a jump; ties
    in the decrease test resolve to flow.
    """
    b = q.bundle
    thr = sigma(b.a1, c_sigma)
    v_now = b.lyapunov(q.x)
    v_ref = b.lyapunov(q.xhat)
    decrease_violated = v_now > thr * v_ref * (1.0 + TIE_TOL)
    if not decrease_violated or q.tau != 1:
        return IN_C, None, False
    cand = synthesis.synthesize(q.window, eps_F=eps_F, opts=opts)
    if cand is None:
        return IN_C, None, True
    return IN_D, cand, True


def flow_step(q, plant, u):
    """One physical step: advance the plant, slide the data window."""
    x_next = plant.step(q.kappa, q.x, u)
    return HybridState(
        x=x_next,
        kappa=q.kappa + 1,
        window=q.window.push(q.x, u, x_next),
        bundle=q.bundle,
        xhat=q.x.copy(),
        tau=1,
    )


def jump_step(q, new_bundle):
    """Episode: adopt a fresh design, block immediate re-triggering."""
    if new_bundle is None:
        raise InternalError("jump without a synthesized bundle")
    return HybridState(
        x=q.x,
        kappa=q.kappa,
        window=q.window,
        bundle=new_bundle,
        xhat=q.xhat,
        tau=0,
    )


def run(plant, cfg):
    """Simulate one scenario and return its trajectory."""
    t_width = cfg.validate(plant)
    opts = cfg.solver_options or maxdet.SolverOptions()
    rng = np.random.default_rng(cfg.seed)
    x = (np.ones(plant.nx) if cfg.x0 is None
         else linalg.as_vector(cfg.x0, plant.nx))
    traj = Trajectory()

    # exploration: open-loop i.i.d. uniform inputs, no certificates yet
    w = DataWindow.empty(plant.nx, plant.nu, t_width)
    kappa = 0
    for k in range(t_width):
        u = rng.uniform(-1.0, 1.0, plant.nu)
        x_next = plant.step(kappa, x, u)
        traj.records.append(StepRecord(
            k=k, j=0, x=x.copy(), u=u.copy(), V=None, sigma_a1=None,
            a1=None, trigger=False, synth_feasible=None, kappa=kappa,
            tau=1,
        ))
        w = w.push(x, u, x_next)
        x = x_next
        kappa += 1
        if _diverged(x):
            traj.status = DIVERGED
            traj.records.append(StepRecord(
                k=k + 1, j=0, x=x.copy(), u=None, V=None, sigma_a1=None,
                a1=None, trigger=False, synth_feasible=None, kappa=kappa,
                tau=1,
            ))
            traj.monitor_start = len(traj.records)
            return traj

    # forced design at k = T; fall back to the open-loop zero gain when
    # no feasible design exists
    bundle = synthesis.synthesize(w, eps_F=cfg.eps_F, opts=opts)
    first_feasible = bundle is not None
    if bundle is None:
        logger.warning("initial design infeasible at k=%d; "
                       "running with zero fallback gain", t_width)
        bundle = synthesis.fallback_bundle(w)
    q = HybridState(x=x, kappa=kappa, window=w, bundle=bundle,
                    xhat=x.copy(), tau=0)
    traj.initial_bundle = bundle
    j = 1 if first_feasible else 0
    if first_feasible:
        traj.episodes.append(Episode(k=t_width, j=j, old_bundle=None,
                                     new_bundle=bundle))
    traj.monitor_start = len(traj.records)

    k = t_width
    explore_left = 0
    design_pending = False
    while k < cfg.horizon:
        jumped = (k == t_width and first_feasible)
        synth_flag = first_feasible if k == t_width else None
        scheduled = (cfg.mode == TIME_TRIGGERED and k == t_width
                     and first_feasible)

        if k > t_width:
            if cfg.mode == EVENT_TRIGGERED:
                mode, cand, attempted = classify(q, cfg.c_sigma, cfg.eps_F,
                                                 opts)
                if attempted:
                    synth_flag = cand is not None
                if mode == IN_D:
                    old = q.bundle
                    q = jump_step(q, cand)
                    j += 1
                    jumped = True
                    traj.episodes.append(Episode(k=k, j=j, old_bundle=old,
                                                 new_bundle=q.bundle))
            elif cfg.mode == TIME_TRIGGERED:
                # a scheduled episode re-excites the plant for T steps so
                # that the design window is not rank-deficient closed-loop
                # data, then adopts the new gain when feasible
                if design_pending and explore_left == 0:
                    cand = synthesis.synthesize(q.window, eps_F=cfg.eps_F,
                                                opts=opts)
                    synth_flag = cand is not None
                    design_pending = False
                    if cand is not None:
                        old = q.bundle
                        q = jump_step(q, cand)
                        j += 1
                        jumped = True
                        traj.episodes.append(Episode(
                            k=k, j=j, old_bundle=old, new_bundle=q.bundle))
                    else:
                        logger.info("scheduled design infeasible at k=%d; "
                                    "keeping previous gain", k)
                if (k - t_width) % cfg.n_p == 0:
                    scheduled = True
                    explore_left = t_width
                    design_pending = True

        if explore_left > 0:
            u = rng.uniform(-1.0, 1.0, plant.nu)
            explore_left -= 1
        else:
            u = q.bundle.K @ q.x
        traj.records.append(StepRecord(
            k=k, j=j, x=q.x.copy(), u=u.copy(),
            V=q.bundle.lyapunov(q.x),
            sigma_a1=sigma(q.bundle.a1, cfg.c_sigma),
            a1=q.bundle.a1,
            trigger=scheduled if cfg.mode == TIME_TRIGGERED
            else (jumped and k > t_width),
            synth_feasible=synth_flag,
            kappa=q.kappa,
            tau=0 if jumped else 1,
        ))
        q = flow_step(q, plant, u)
        k += 1
        if _diverged(q.x):
            traj.status = DIVERGED
            break

    traj.records.append(StepRecord(
        k=k, j=j, x=q.x.copy(), u=None,
        V=q.bundle.lyapunov(q.x) if np.all(np.isfinite(q.x)) else None,
        sigma_a1=sigma(q.bundle.a1, cfg.c_sigma),
        a1=q.bundle.a1,
        trigger=False, synth_feasible=None, kappa=q.kappa, tau=1,
    ))
    return traj


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    return "%.17g" % v


def write_trajectory_csv(traj, path, nx, nu):
    header = (["k", "j"]
              + ["x_%d" % (i + 1) for i in range(nx)]
              + ["u_%d" % (i + 1) for i in range(nu)]
              + ["V", "sigma_a1", "a1", "trigger", "synth_feasible",
                 "kappa"])
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(header)
        for r in traj.records:
            row = [r.k, r.j]
            row += [_fmt(float(v)) for v in r.x]
            if r.u is None:
                row += [""] * nu
            else:
                row += [_fmt(float(v)) for v in r.u]
            row += [_fmt(r.V), _fmt(r.sigma_a1), _fmt(r.a1),
                    _fmt(bool(r.trigger)), _fmt(r.synth_feasible), r.kappa]
            wtr.writerow(row)
