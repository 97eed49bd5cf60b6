"""Certificate quantities along simulated trajectories.

Post-processing only: given a finished trajectory (and the plant, for the
analysis-side quantities that need the true matrices), compute the
per-jump growth factor nu_d, the per-step contraction factors theta, the
running certificate product pi, the step bound check, and the long-run
rate diagnostics with the membership test of the consistency set.

The walk behind `default_rates` and `thm_diagnostics` keeps its per-step
quantities as arrays: sigma(a1) of each record's bundle, the decrease set
T1 from one stacked quadratic form and the run's `hybrid.decreased`, the
exact factors from one stacked `synthesis.theta_exact` per bundle on the
feedback steps outside T1 (the realized ratio of V on the steps whose
records mark an exploration input), and nu_d per record, with all jumps
of a trajectory in one stacked `nu_d`. The product pi is one cumulative
product of sigma(a1) on the steps in T1, a factor theta on the steps
outside it, and nu_d at jumps.
`thm_diagnostics` adds the data-based a1 + a2 * eps with one stacked
minimal inflation per triggered bundle, and tests terminal-set
membership for every record from T* on with one stacked
`proximity.contains`. Every factor and flag equals bit for bit the one a
single-step evaluation gives. A record's own V is read from the
trajectory. The module writes no file; `cli` writes a report out as
`diagnostics.csv`.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, proximity
from .hybrid import decreased, sigma
from .synthesis import theta_exact
from .window import DataWindow

BOUND_TOL = 1e-9


def nu_d(s, s_next):
    """Smallest nu with s_next <= nu * s. s and s_next may be stacks of
    certificates along a leading axis, paired member by member; the result
    is then an array with one nu per pair, each equal bit for bit to the
    float a single call returns."""
    return linalg.gen_eig_max(s_next, s)


@dataclass
class _StepWalk:
    """Per-step quantities shared by the rates and the diagnostics; the
    monitored segment has records 0..n and steps 0..n-1."""

    records: list
    bundles: list            # bundle in effect at each monitored record
    sig: np.ndarray          # sigma(a1) of each record's bundle
    in_T1: np.ndarray        # decrease branch flag per step (departure)
    theta: np.ndarray        # exact factor per step, read outside T1 only
    nu: np.ndarray           # nu_d per record, 1 where there is no jump
    nu_events: list          # (record index, nu_d) at jumps
    triggered: list          # (bundle, steps, A stack, B stack) for the
                             # feedback steps outside T1 under each
                             # triggered bundle


def _walk(traj, plant, c_sigma):
    """One pass over the monitored segment, evaluated as stacks; c_sigma
    must be the run's, whose sigma(a1) every record stores.

    All successor values V(x_{i+1}, S_i) come from one stacked quadratic
    form and decide T1 with the run's own decrease test; the steps outside
    T1 are split into open-loop and feedback steps by their records'
    `explore` flags, and the exact factors of the feedback steps come from
    one stacked `theta_exact` per bundle. The plant pairs of those steps
    are kept, grouped by triggered bundle, for the data-based factors.
    """
    recs = traj.records[traj.monitor_start:]
    if not recs:
        raise linalg.InvalidInput("trajectory has no certified segment")
    bundles = [r.bundle for r in recs]

    n = len(recs) - 1
    jumps = [i for i in range(1, n + 1) if recs[i].tau == 0]
    nus = np.ones(n + 1)
    if jumps:
        nus[jumps] = nu_d(np.array([bundles[i - 1].S for i in jumps]),
                          np.array([bundles[i].S for i in jumps]))

    # the record's V uses its own bundle; the successor is measured with
    # the departure's bundle too, since the bundle changes at jumps. V is
    # inf where the state is not finite or x S x overflows.
    x = np.array([r.x for r in recs])
    nx = x.shape[1]
    s_dep = np.array([b.S for b in bundles[:-1]]).reshape(n, nx, nx)
    v = np.array([r.V for r in recs[:-1]], dtype=float)
    sig = np.array([sigma(b.a1, c_sigma) for b in bundles])
    # each record holds sigma(a1) at the run's own threshold, the same
    # float as sig where c_sigma is the run's
    if sig.tolist() != [r.sigma_a1 for r in recs]:
        raise linalg.InvalidInput(
            "c_sigma %r is not the run's: sigma(a1) differs from the "
            "records'" % (c_sigma,))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v_next = (x[1:, None, :] @ s_dep @ x[1:, :, None])[:, 0, 0]
        v_next[~np.isfinite(v_next)] = np.inf
        # on an open-loop excitation step (scheduled re-exploration) the
        # feedback decay factor does not apply: the factor is the realized
        # one-step ratio of V; the feedback steps are overwritten below
        theta = np.where(v > 0.0, v_next / v,
                         np.where(v_next > 0.0, np.inf, 1.0))
    in_t1 = decreased(v_next, sig[:-1] * v)
    explore = np.array([r.explore for r in recs[:-1]], dtype=bool)

    groups = {}
    for i in np.flatnonzero(~in_t1 & ~explore).tolist():
        groups.setdefault(id(bundles[i]), []).append(i)
    trig = []
    for steps in groups.values():
        b = bundles[steps[0]]
        pairs = [plant.eval(recs[i].k) for i in steps]
        a_mats = np.array([p[0] for p in pairs])
        b_mats = np.array([p[1] for p in pairs])
        theta[steps] = theta_exact(a_mats, b_mats, b.K, b.S)
        # the data-based bound needs a certificate produced by a triggered
        # design; the initial bundle (the zero-gain fallback included,
        # which only the forced design creates) keeps the exact factor
        if b is not bundles[0]:
            trig.append((b, steps, a_mats, b_mats))
    return _StepWalk(records=recs, bundles=bundles, sig=sig, in_T1=in_t1,
                     theta=theta, nu=nus,
                     nu_events=list(zip(jumps, nus[jumps].tolist())),
                     triggered=trig)


def pi_product(walk, thetas):
    """Certificate product pi over a walk's monitored segment: pi[0] = 1,
    and step i multiplies in sigma(a1) if it lies in T1 and thetas[i]
    otherwise, times nu_d of record i + 1. thetas holds one factor per
    step; its entries on the steps in T1 are not read."""
    with np.errstate(over="ignore"):
        factors = np.where(walk.in_T1, walk.sig[:-1], thetas) * walk.nu[1:]
        return np.cumprod(np.concatenate(([1.0], factors)))


def check_bound(traj, pi_seq):
    """Per-record flag: V(x,S) <= pi * V at the first certified record. A
    bound that is not finite, an overflowed product pi among them, bounds
    nothing, so its record fails."""
    recs = traj.records[traj.monitor_start:]
    if len(pi_seq) != len(recs):
        raise linalg.InvalidInput("pi sequence does not match trajectory")
    v = np.array([np.inf if r.V is None else r.V for r in recs])
    with np.errstate(over="ignore"):
        bound = np.asarray(pi_seq) * recs[0].V * (1.0 + BOUND_TOL)
    return (np.isfinite(bound) & (v <= bound)).tolist()


@dataclass
class DiagnosticsReport:
    pi_exact: np.ndarray
    pi_databased: np.ndarray
    bound_ok: list
    T1_membership: list
    thm4_lhs: np.ndarray
    Tstar_estimate: int
    cor1_membership: bool | None
    nu_d_events: list
    theta_exact: dict        # step index -> factor, steps outside T1 only
    theta_databased: dict
    records: list


def default_rates(traj, plant, c_sigma):
    """A (lambda_c, lambda_d) pair that dominates the observed factors;
    c_sigma is the trigger threshold the run used (its
    `ScenarioConfig.c_sigma`)."""
    walk = _walk(traj, plant, c_sigma)
    lam_c = min(float(np.max(walk.sig)), 1.0)
    return lam_c, max([lam_c, *walk.theta[~walk.in_T1].tolist(),
                       *(nu for _, nu in walk.nu_events)])


def _rebuild_window(traj, idx, width):
    """Data window of the width samples before record idx, ending at that
    record's step, rebuilt from the recorded states and inputs."""
    recs = traj.records
    if idx < width:
        raise linalg.InvalidInput("not enough history for a window")
    seg = recs[idx - width:idx + 1]
    return DataWindow(kappa=recs[idx].k,
                      Xhat=np.column_stack([r.x for r in seg[:-1]]),
                      X=np.column_stack([r.x for r in seg[1:]]),
                      U=np.column_stack([r.u for r in seg[:-1]]))


def thm_diagnostics(traj, lambda_c, lambda_d, plant, c_sigma):
    """Long-run rate exponent plus the terminal-set membership check.

    lambda_c is the in-C1 contraction rate, lambda_d dominates the other
    per-step and per-jump factors, and c_sigma is the run's trigger
    threshold, as `default_rates` takes it. thm4_lhs is
    (k - 2j) log lambda_c + (3j + 1) log lambda_d over the monitored
    segment, with k and j counted from its first record.
    """
    if not 0.0 < lambda_c <= 1.0 or not lambda_d >= lambda_c:
        raise linalg.InvalidInput(
            "need lambda_c in (0, 1] and lambda_d >= lambda_c")
    walk = _walk(traj, plant, c_sigma)
    recs = walk.records
    k0, j0 = recs[0].k, recs[0].j
    ks = np.array([r.k - k0 for r in recs], dtype=float)
    js = np.array([r.j - j0 for r in recs], dtype=float)
    lhs = (ks - 2.0 * js) * np.log(lambda_c) + \
        (3.0 * js + 1.0) * np.log(lambda_d)

    # T*: physical time after which every step stays in the decrease
    # branch, the record after the last step outside T1
    out = np.flatnonzero(~walk.in_T1).tolist()
    first = out[-1] + 1 if out else 0
    b = walk.bundles[first]
    try:
        w_star = _rebuild_window(traj, traj.monitor_start + first,
                                 b.window.width)
    except linalg.InvalidInput:
        w_star = None
    cor1 = None
    if w_star is not None:
        pairs = [plant.eval(r.k) for r in recs[first:]]
        cor1 = bool(np.all(proximity.contains(
            w_star, b.F, np.array([p[0] for p in pairs]),
            np.array([p[1] for p in pairs]))))

    # data-based factors a1 + a2 * eps on the triggered feedback steps,
    # one stacked minimal inflation per bundle
    th_d = walk.theta.copy()
    for b, steps, a_mats, b_mats in walk.triggered:
        th_d[steps] = b.rate(proximity.min_inflation(b.window, b.F, b.S,
                                                     a_mats, b_mats))
    pi_e = pi_product(walk, walk.theta)
    return DiagnosticsReport(
        pi_exact=pi_e,
        pi_databased=pi_product(walk, th_d),
        bound_ok=check_bound(traj, pi_e),
        T1_membership=walk.in_T1.tolist(),
        thm4_lhs=lhs,
        Tstar_estimate=recs[first].k,
        cor1_membership=cor1,
        nu_d_events=walk.nu_events,
        theta_exact=dict(zip(out, walk.theta[out].tolist())),
        theta_databased=dict(zip(out, th_d[out].tolist())),
        records=recs,
    )

