"""Certificate quantities along simulated trajectories.

Post-processing only: given a finished trajectory (and the plant, for the
analysis-side quantities that need the true matrices), compute the
per-jump growth factor nu_d, the per-step contraction factors theta, the
running certificate product pi, the step bound check, and the long-run
rate diagnostics with the membership test of the consistency set.

The product pi uses sigma(a1) on every step in the decrease set T1 and a
contraction factor theta only on the steps outside it, so theta is
evaluated only outside T1: the exact factor by the one walk, and the
data-based a1 + a2 * eps only by thm_diagnostics. V is read from the
trajectory's records.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import linalg, proximity
from .hybrid import sigma
from .window import DataWindow

BOUND_TOL = 1e-9


def nu_d(s, s_next):
    """Smallest nu with s_next <= nu * s."""
    return float(linalg.gen_eig_max(linalg.symmetrize(s_next),
                                    linalg.symmetrize(s)))


def theta_exact(a, b, k_gain, s):
    """Tight one-step contraction of V(., s) under the true closed loop."""
    acl = np.asarray(a, dtype=float) + np.asarray(b, dtype=float) @ k_gain
    return float(linalg.gen_eig_max(linalg.symmetrize(acl.T @ s @ acl), s))


@dataclass
class _StepWalk:
    """Per-step quantities shared by the rates and the diagnostics."""

    records: list
    bundles: list            # bundle in effect at each monitored record
    in_T1: list              # decrease branch flag per step (departure)
    th_exact: dict           # step index -> factor, steps outside T1 only
    triggered: dict          # their feedback steps under a triggered
                             # bundle -> plant pair (A, B)
    nu_events: list          # (record index, nu_d) at jumps


def _walk(traj, plant, c_sigma):
    recs = traj.records[traj.monitor_start:]
    if not recs or traj.initial_bundle is None:
        raise linalg.InvalidInput("trajectory has no certified segment")
    by_k = {e.k: e for e in traj.episodes}
    bundles = []
    current = traj.initial_bundle
    for r in recs:
        if r.tau == 0 and r.k in by_k:
            current = by_k[r.k].new_bundle
        bundles.append(current)

    in_t1, th_e, trig, nus = [], {}, {}, []
    for i in range(len(recs) - 1):
        b, r, rn = bundles[i], recs[i], recs[i + 1]
        if rn.tau == 0 and bundles[i + 1] is not b:
            nus.append((i + 1, nu_d(b.S, bundles[i + 1].S)))
        # the record's V uses its own bundle; the successor is measured
        # with b too, since the bundle changes at jumps
        v_next = b.lyapunov(rn.x) if np.all(np.isfinite(rn.x)) else np.inf
        in_t1.append(v_next <= sigma(b.a1, c_sigma) * r.V * (1.0 + BOUND_TOL))
        if in_t1[-1]:
            continue
        if r.u is not None and not np.allclose(r.u, b.K @ r.x, rtol=1e-9,
                                               atol=1e-12):
            # open-loop excitation step (scheduled re-exploration): the
            # feedback decay factor does not apply, so the factor is the
            # realized one-step ratio of V
            if r.V > 0.0:
                th_e[i] = v_next / r.V
            else:
                th_e[i] = np.inf if v_next > 0.0 else 1.0
        else:
            a_mat, b_mat = plant.eval(r.k)
            th_e[i] = theta_exact(a_mat, b_mat, b.K, b.S)
            # the data-based bound needs a certificate produced by a
            # triggered design; the initial bundle (the zero-gain fallback
            # included, which only the forced design creates) keeps the
            # exact factor
            if b is not bundles[0]:
                trig[i] = a_mat, b_mat
    return _StepWalk(records=recs, bundles=bundles, in_T1=in_t1,
                     th_exact=th_e, triggered=trig, nu_events=nus)


def pi_product(walk, thetas, c_sigma):
    """Certificate product pi over a walk's monitored segment, pi[0] = 1,
    with factor thetas[i] on each step i outside T1."""
    nus = dict(walk.nu_events)
    pi = np.ones(len(walk.records))
    with np.errstate(over="ignore"):
        for i in range(len(walk.records) - 1):
            b = walk.bundles[i]
            factor = sigma(b.a1, c_sigma) if walk.in_T1[i] else thetas[i]
            factor *= nus.get(i + 1, 1.0)
            pi[i + 1] = pi[i] * factor
    return pi


def check_bound(traj, pi_seq):
    """Per-record flag: V(x,S) <= pi * V at the first certified record."""
    recs = traj.records[traj.monitor_start:]
    if len(pi_seq) != len(recs):
        raise linalg.InvalidInput("pi sequence does not match trajectory")
    v0 = recs[0].V
    flags = []
    for r, p in zip(recs, pi_seq):
        v = r.V if r.V is not None else np.inf
        flags.append(bool(v <= p * v0 * (1.0 + BOUND_TOL)))
    return flags


@dataclass
class DiagnosticsReport:
    pi_exact: np.ndarray
    pi_databased: np.ndarray
    bound_ok: list
    T1_membership: list
    thm4_lhs: np.ndarray
    m1: float
    m2: float
    Tstar_estimate: int | None
    cor1_membership: bool | None
    nu_d_events: list
    theta_exact: dict        # step index -> factor, steps outside T1 only
    theta_databased: dict
    records: list


def default_rates(traj, plant, c_sigma=0.1):
    """A (lambda_c, lambda_d) pair that dominates the observed factors."""
    walk = _walk(traj, plant, c_sigma)
    lam_c = max(sigma(b.a1, c_sigma) for b in walk.bundles)
    lam_c = min(lam_c, 1.0)
    lam_d = lam_c
    for th in walk.th_exact.values():
        lam_d = max(lam_d, th)
    for _, nu in walk.nu_events:
        lam_d = max(lam_d, nu)
    return lam_c, lam_d


def _rebuild_window(traj, idx, width):
    """Data window at record index idx, rebuilt from recorded samples."""
    recs = traj.records
    if idx < width:
        raise linalg.InvalidInput("not enough history for a window")
    nx = recs[0].x.size
    nu_dim = next(r.u.size for r in recs if r.u is not None)
    w = DataWindow.empty(nx, nu_dim, width)
    for i in range(idx - width, idx):
        w = w.push(recs[i].x, recs[i].u, recs[i + 1].x)
    return w


def thm_diagnostics(traj, lambda_c, lambda_d, plant, c_sigma=0.1):
    """Long-run rate fit plus the terminal-set membership check.

    lambda_c is the in-C1 contraction rate, lambda_d dominates the other
    per-step and per-jump factors. The fitted envelope satisfies
    lhs <= m1 - m2 (k + j) with m2 >= 0 over the monitored segment.
    """
    if not 0.0 < lambda_c <= 1.0 or lambda_d < lambda_c:
        raise linalg.InvalidInput(
            "need lambda_c in (0, 1] and lambda_d >= lambda_c")
    walk = _walk(traj, plant, c_sigma)
    recs = walk.records
    k0, j0 = recs[0].k, recs[0].j
    ks = np.array([r.k - k0 for r in recs], dtype=float)
    js = np.array([r.j - j0 for r in recs], dtype=float)
    lhs = (ks - 2.0 * js) * np.log(lambda_c) + \
        (3.0 * js + 1.0) * np.log(lambda_d)

    # least-squares envelope lhs <= m1 - m2 (k + j), slope clamped >= 0
    t = ks + js
    if np.ptp(t) > 0:
        slope = float(np.polyfit(t, lhs, 1)[0])
    else:
        slope = 0.0
    m2 = max(0.0, -slope)
    m1 = float(np.max(lhs + m2 * t))

    # T*: physical time after which every step stays in the decrease branch
    tstar = None
    last_out = max(walk.th_exact, default=-1)  # last step outside T1
    if last_out + 1 < len(recs):
        tstar = recs[last_out + 1].k

    cor1 = None
    if tstar is not None:
        idx = traj.monitor_start + last_out + 1
        b = walk.bundles[last_out + 1]
        width = b.window.width
        try:
            w_star = _rebuild_window(traj, idx, width)
        except linalg.InvalidInput:
            w_star = None
        if w_star is not None:
            cor1 = True
            for r in recs[last_out + 1:]:
                a_mat, b_mat = plant.eval(r.k)
                if not proximity.contains(w_star, b.F, a_mat, b_mat):
                    cor1 = False
                    break

    # data-based factors a1 + a2 * eps on the triggered feedback steps
    th_d = dict(walk.th_exact)
    for i, (a_mat, b_mat) in walk.triggered.items():
        b = walk.bundles[i]
        th_d[i] = b.rate(proximity.min_inflation(b.window, b.F, b.S, a_mat,
                                                 b_mat))
    pi_e = pi_product(walk, walk.th_exact, c_sigma)
    return DiagnosticsReport(
        pi_exact=pi_e,
        pi_databased=pi_product(walk, th_d, c_sigma),
        bound_ok=check_bound(traj, pi_e),
        T1_membership=walk.in_T1,
        thm4_lhs=lhs,
        m1=m1,
        m2=m2,
        Tstar_estimate=tstar,
        cor1_membership=cor1,
        nu_d_events=walk.nu_events,
        theta_exact=walk.th_exact,
        theta_databased=th_d,
        records=recs,
    )


def write_diagnostics_csv(report, path):
    """One row per monitored record; step-indexed columns sit on the
    departure row and stay blank on the final record, and the theta
    columns are filled only on steps outside T1 (in_C1 = 0)."""
    nus = dict(report.nu_d_events)
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["k", "j", "V", "pi_exact", "pi_databased", "in_C1",
                      "nu_d_event", "theta_exact", "theta_databased",
                      "thm4_lhs"])
        n = len(report.records)
        for i, r in enumerate(report.records):
            is_step = i < n - 1
            row = [
                r.k, r.j,
                "%.17g" % (r.V if r.V is not None else np.inf),
                "%.17g" % report.pi_exact[i],
                "%.17g" % report.pi_databased[i],
                ("1" if report.T1_membership[i] else "0") if is_step else "",
                "%.17g" % nus[i] if i in nus else "",
                "%.17g" % report.theta_exact[i]
                if i in report.theta_exact else "",
                "%.17g" % report.theta_databased[i]
                if i in report.theta_databased else "",
                "%.17g" % report.thm4_lhs[i],
            ]
            wtr.writerow(row)
