"""Certificate quantities along simulated trajectories.

Post-processing only: given a finished trajectory (and the plant, for the
analysis-side quantities that need the true matrices), compute the
per-jump growth factor nu_d, the per-step contraction factors theta, the
running certificate product pi, the step bound check, and the long-run
rate diagnostics with the membership test of the consistency set.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import linalg, proximity
from .hybrid import sigma
from .window import DataWindow

EXACT = "exact"
DATABASED = "databased"

BOUND_TOL = 1e-9


def nu_d(s, s_next):
    """Smallest nu with s_next <= nu * s."""
    return float(linalg.gen_eig_max(linalg.symmetrize(s_next),
                                    linalg.symmetrize(s)))


def theta_exact(a, b, k_gain, s):
    """Tight one-step contraction of V(., s) under the true closed loop."""
    acl = np.asarray(a, dtype=float) + np.asarray(b, dtype=float) @ k_gain
    return float(linalg.gen_eig_max(linalg.symmetrize(acl.T @ s @ acl), s))


def theta_databased(eps, a1, a2):
    """Contraction bound from the certificate alone."""
    if eps < 0:
        raise linalg.InvalidInput("inflation must be nonnegative")
    return a1 + a2 * eps


@dataclass
class _StepWalk:
    """Per-step quantities shared by pi products and diagnostics."""

    records: list
    bundles: list            # bundle in effect at each monitored record
    in_T1: list              # decrease branch flag per step (departure)
    th_exact: list           # per step
    th_databased: list       # per step (exact fallback where inapplicable)
    nu_events: list          # (record index, nu_d) at jumps
    v_seq: list              # V(x, S) per record with its own bundle


def _walk(traj, plant, c_sigma=0.1):
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

    first = bundles[0]
    in_t1, th_e, th_d, nus = [], [], [], []
    v_seq = [b.lyapunov(r.x) if np.all(np.isfinite(r.x)) else np.inf
             for r, b in zip(recs, bundles)]
    for i in range(len(recs) - 1):
        b = bundles[i]
        r, rn = recs[i], recs[i + 1]
        v_next = b.lyapunov(rn.x) if np.all(np.isfinite(rn.x)) else np.inf
        thr = sigma(b.a1, c_sigma)
        in_t1.append(v_next <= thr * b.lyapunov(r.x) * (1.0 + BOUND_TOL))
        a_mat, b_mat = plant.eval(r.k)
        fb = b.K @ r.x
        if r.u is not None and not np.allclose(r.u, fb, rtol=1e-9,
                                               atol=1e-12):
            # open-loop excitation step (scheduled re-exploration): the
            # feedback decay factor does not apply, so both modes fall
            # back to the realized one-step ratio of V
            v_cur = v_seq[i]
            if v_cur > 0.0:
                ratio = v_next / v_cur
            else:
                ratio = np.inf if v_next > 0.0 else 1.0
            th_e.append(ratio)
            th_d.append(ratio)
        else:
            te = theta_exact(a_mat, b_mat, b.K, b.S)
            th_e.append(te)
            # the data-based bound needs a certificate produced by a
            # triggered design; the initial (or fallback) bundle is
            # monitored with the exact factor instead
            if b is first or b.a2 == 0.0:
                th_d.append(te)
            else:
                eps = proximity.min_inflation(b.window, b.F, b.S, a_mat,
                                              b_mat)
                th_d.append(theta_databased(eps, b.a1, b.a2))
        if rn.tau == 0 and bundles[i + 1] is not bundles[i]:
            nus.append((i + 1, nu_d(b.S, bundles[i + 1].S)))
    return _StepWalk(records=recs, bundles=bundles, in_T1=in_t1,
                     th_exact=th_e, th_databased=th_d, nu_events=nus,
                     v_seq=v_seq)


def pi_product(traj, plant, mode=EXACT, c_sigma=0.1):
    """Certificate product pi over the monitored segment, pi[0] = 1."""
    if mode not in (EXACT, DATABASED):
        raise linalg.InvalidInput("unknown pi mode %r" % (mode,))
    walk = _walk(traj, plant, c_sigma)
    return _pi_from_walk(walk, walk.th_exact if mode == EXACT
                         else walk.th_databased, c_sigma)


def _pi_from_walk(walk, thetas, c_sigma):
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
    lambda_c: float
    lambda_d: float
    thm4_lhs: np.ndarray
    m1: float
    m2: float
    Tstar_estimate: int | None
    cor1_membership: bool | None
    nu_d_events: list = field(default_factory=list)
    theta_events: list = field(default_factory=list)
    theta_exact_seq: list = field(default_factory=list)
    theta_databased_seq: list = field(default_factory=list)
    v_seq: list = field(default_factory=list)
    records: list = field(default_factory=list)


def default_rates(traj, plant, c_sigma=0.1):
    """A (lambda_c, lambda_d) pair that dominates the observed factors."""
    walk = _walk(traj, plant, c_sigma)
    lam_c = max(sigma(b.a1, c_sigma) for b in walk.bundles)
    lam_c = min(lam_c, 1.0)
    lam_d = lam_c
    for th, flag in zip(walk.th_exact, walk.in_T1):
        if not flag:
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
    last_out = -1
    for i, flag in enumerate(walk.in_T1):
        if not flag:
            last_out = i
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

    pi_e = _pi_from_walk(walk, walk.th_exact, c_sigma)
    return DiagnosticsReport(
        pi_exact=pi_e,
        pi_databased=_pi_from_walk(walk, walk.th_databased, c_sigma),
        bound_ok=check_bound(traj, pi_e),
        T1_membership=list(walk.in_T1),
        lambda_c=lambda_c,
        lambda_d=lambda_d,
        thm4_lhs=lhs,
        m1=m1,
        m2=m2,
        Tstar_estimate=tstar,
        cor1_membership=cor1,
        nu_d_events=list(walk.nu_events),
        theta_events=[(i, th) for i, (th, flag) in
                      enumerate(zip(walk.th_exact, walk.in_T1)) if not flag],
        theta_exact_seq=list(walk.th_exact),
        theta_databased_seq=list(walk.th_databased),
        v_seq=list(walk.v_seq),
        records=recs,
    )


def write_diagnostics_csv(report, path):
    """One row per monitored record; step-indexed columns sit on the
    departure row and stay blank on the final record."""
    nus = dict(report.nu_d_events)
    out_steps = {i for i, _ in report.theta_events}
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
                "%.17g" % report.v_seq[i],
                "%.17g" % report.pi_exact[i],
                "%.17g" % report.pi_databased[i],
                ("1" if report.T1_membership[i] else "0") if is_step else "",
                "%.17g" % nus[i] if i in nus else "",
                "%.17g" % report.theta_exact_seq[i]
                if is_step and i in out_steps else "",
                "%.17g" % report.theta_databased_seq[i]
                if is_step and i in out_steps else "",
                "%.17g" % report.thm4_lhs[i],
            ]
            wtr.writerow(row)
