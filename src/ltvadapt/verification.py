"""Property suites shared by the CLI `verify` command and the test suite.

Each suite re-checks one family of guarantees on a canonical set of
seeded closed-loop runs (plus synthetic problems for the solver): data
consistency and set-membership equivalence, certified per-step decrease,
product bounds on the Lyapunov function, hybrid record structure, and
solver correctness against brute-force oracles.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from . import hybrid, linalg, maxdet, monitor, plants, proximity, synthesis
from .window import DataWindow

logger = logging.getLogger(__name__)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, bool(passed), detail))

    def lines(self):
        out = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            line = "%s %s: %s" % (tag, self.suite, c.name)
            if c.detail:
                line += " (%s)" % c.detail
            out.append(line)
        out.append("%s suite %s: %d/%d checks passed"
                   % ("PASS" if self.passed else "FAIL", self.suite,
                      sum(c.passed for c in self.checks), len(self.checks)))
        return out


# canonical seeded scenarios exercised by the suites; the switching event
# and fixed runs come from the qualitative comparison of the closed-loop
# strategies, the sweep runs from the sinusoidal and vanishing plants
def canonical_scenarios():
    scen = [
        ("switching-event", plants.SwitchingPlant(),
         hybrid.ScenarioConfig(mode=hybrid.EVENT_TRIGGERED, horizon=100,
                               seed=53)),
        ("switching-fixed-mild", plants.SwitchingPlant(ell=1.0),
         hybrid.ScenarioConfig(mode=hybrid.FIXED_GAIN, horizon=100, seed=1)),
        ("switching-fixed-strong", plants.SwitchingPlant(ell=2.5),
         hybrid.ScenarioConfig(mode=hybrid.FIXED_GAIN, horizon=100, seed=1)),
    ]
    for p in (10, 20, 40):
        scen.append(("sinusoidal-p%d" % p,
                     plants.make_plant("sinusoidal", {"p": p}),
                     hybrid.ScenarioConfig(mode=hybrid.EVENT_TRIGGERED,
                                           horizon=100, seed=2)))
    scen.append(("vanishing",
                 plants.make_plant("vanishing", {"p": 10, "t_delta": 30}),
                 hybrid.ScenarioConfig(mode=hybrid.EVENT_TRIGGERED,
                                       horizon=100, seed=2)))
    for n_p in (8, 12, 16):
        for seed in range(3):
            scen.append(("time-np%d-s%d" % (n_p, seed),
                         plants.SwitchingPlant(),
                         hybrid.ScenarioConfig(mode=hybrid.TIME_TRIGGERED,
                                               horizon=100, seed=seed,
                                               n_p=n_p)))
    return scen


_RUN_CACHE = {}


def canonical_runs():
    """Run (and memoize) the canonical scenarios; returns
    [(name, plant, cfg, trajectory)]."""
    out = []
    for name, plant, cfg in canonical_scenarios():
        if name not in _RUN_CACHE:
            _RUN_CACHE[name] = hybrid.run(plant, cfg)
        out.append((name, plant, cfg, _RUN_CACHE[name]))
    return out


# ---------------------------------------------------------------------------
# data consistency and ellipsoid equivalence


def _hand_window():
    return DataWindow(kappa=2,
                      Xhat=np.array([[1.0, 0.5]]),
                      X=np.array([[0.5, 0.25]]),
                      U=np.array([[0.0, 0.0]]))


def suite_lemma3():
    res = SuiteResult("lemma3")
    rng = np.random.default_rng(0)

    # every synthesis window must be exactly explained by the plant
    # matrices that generated it
    worst = 0.0
    n_win = 0
    for name, plant, cfg, traj in canonical_runs():
        for b in [e.new_bundle for e in traj.episodes]:
            w = b.window
            r = w.consistency_residual(plant)
            tol = 1e-9 * (1.0 + linalg.spectral_norm(w.X))
            worst = max(worst, r / tol)
            n_win += 1
    res.add("window-consistency", worst <= 1.0,
            "%d windows, worst residual ratio %.3g" % (n_win, worst))

    # direct set test (mismatch bound) and data-based ellipsoid test must
    # agree on one stack of candidate plant matrices per set: half are
    # sampled members scaled about Zc by 0.9 or 1.1, so that they fall on
    # both sides of the boundary, the rest (all of an empty set's) are
    # standard normal
    mism = members = n_samp = 0
    for name, plant, cfg, traj in canonical_runs():
        if cfg.mode != hybrid.EVENT_TRIGGERED:
            continue
        for b in [e.new_bundle for e in traj.episodes]:
            w, F = b.window, b.F
            par = proximity.ellipsoid_params(w, F)
            n_rand, parts = 500, []
            if proximity.is_nonempty(par):
                n_rand = 250
                zs = proximity.sample_members(par, 250, rng)
                scale = rng.choice([0.9, 1.1], size=(250, 1, 1))
                parts.append(par.Zc + scale * (zs - par.Zc))
            parts.append(rng.standard_normal((n_rand, w.nx + w.nu, w.nx)))
            zh = np.concatenate(parts)
            pairs = np.swapaxes(zh, 1, 2)
            direct = proximity.contains(w, F, pairs[:, :, :w.nx],
                                        pairs[:, :, w.nx:])
            quad = proximity.contains_ellipsoid(par, zh)
            mism += int(np.count_nonzero(direct != quad))
            members += int(np.count_nonzero(direct))
            n_samp += len(zh)
    res.add("set-equivalence", mism == 0,
            "%d samples, %d members, %d disagreements"
            % (n_samp, members, mism))

    # minimal inflation: the certified set inflated by eps contains the
    # true plant, and any deflation below eps loses it
    infl_ok = True
    for name, plant, cfg, traj in canonical_runs():
        if name != "switching-event":
            continue
        for b in [e.new_bundle for e in traj.episodes]:
            w = b.window
            a_mat, b_mat = plant.eval(w.kappa)
            eps = proximity.min_inflation(w, b.F, b.S, a_mat, b_mat)
            f_up = proximity.inflated(b.F, b.S, eps * (1 + 1e-9) + 1e-15)
            if not proximity.contains(w, f_up, a_mat, b_mat):
                infl_ok = False
            if eps > 1e-9:
                f_dn = proximity.inflated(b.F, b.S, eps * 0.5)
                if proximity.contains(w, f_dn, a_mat, b_mat,
                                      tol=-1e-12):
                    infl_ok = False
    res.add("min-inflation-certificate", infl_ok)

    # hand-checked scalar example
    w = _hand_window()
    F = np.array([[0.01]])
    par = proximity.ellipsoid_params(w, F)
    ok = (np.max(np.abs(par.M - np.array([[1.25, 0.0], [0.0, 0.0]])))
          <= 1e-12)
    ok = ok and np.max(np.abs(par.Zc - np.array([[0.5], [0.0]]))) <= 1e-12
    ok = ok and np.max(np.abs(par.Delta - F)) <= 1e-12
    eps = proximity.min_inflation(w, F, np.array([[1.0]]),
                                  np.array([[0.3]]), np.array([[0.0]]))
    ok = ok and abs(eps - 0.04) <= 1e-12
    res.add("scalar-hand-values", ok, "eps=%.17g" % eps)
    return res


# ---------------------------------------------------------------------------
# certified per-step decrease of every synthesized design


def suite_property1(num_samples=500, rng_seed=0):
    res = SuiteResult("property1")
    n_bundles = 0
    violations = 0
    worst = -np.inf
    vacuous = []
    for name, plant, cfg, traj in canonical_runs():
        for e in traj.episodes:
            rep = synthesis.verify_property(e.new_bundle,
                                            num_samples=num_samples,
                                            rng_seed=rng_seed)
            n_bundles += 1
            violations += rep.num_violations
            if rep.vacuous:
                vacuous.append("%s k=%d" % (name, e.k))
            else:
                worst = max(worst, rep.max_relative_excess)
    named = " (%s)" % ", ".join(vacuous) if vacuous else ""
    res.add("decrease-on-sampled-plants", violations == 0,
            "%d bundles x %d samples, %d vacuous%s, %d violations, "
            "worst excess %.3g" % (n_bundles, num_samples, len(vacuous),
                                   named, violations, worst))
    return res


# ---------------------------------------------------------------------------
# Lyapunov product bound along every run


def _bound_ratio(v, pi):
    """(largest V / (pi V0) over the records after the first whose bound
    pi V0 is finite, number of records whose bound is not finite). Record 0
    is 1 by construction; a bound that is not finite, an overflowed pi
    among them, bounds nothing, so its record fails `check_bound` and is
    counted, not read as a ratio of 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound = pi * v[0]
        finite = np.isfinite(bound)
        keep = finite[1:]
        ratio = v[1:][keep] / bound[1:][keep]
    return (float(np.max(ratio, initial=-np.inf)),
            int(np.count_nonzero(~finite)))


def suite_lemma5():
    res = SuiteResult("lemma5")
    all_ok = True
    dominated = True
    n_runs = n_trig = unbounded_e = unbounded_d = 0
    worst_e = worst_d = -np.inf
    least_ratio = np.inf
    for name, plant, cfg, traj in canonical_runs():
        rep = monitor.thm_diagnostics(
            traj, *monitor.default_rates(traj, plant, cfg.c_sigma), plant,
            cfg.c_sigma)
        pi_e, pi_d = rep.pi_exact, rep.pi_databased
        ok_d = monitor.check_bound(traj, pi_d)
        if not (all(rep.bound_ok) and all(ok_d)):
            all_ok = False
            logger.warning("bound violated on %s", name)
        if not all(d >= e * (1.0 - 1e-9) for e, d in zip(pi_e, pi_d)):
            dominated = False
            logger.warning("databased bound below exact on %s", name)
        v = np.array([np.inf if r.V is None else r.V for r in rep.records])
        ratio_e, n_e = _bound_ratio(v, pi_e)
        ratio_d, n_d = _bound_ratio(v, pi_d)
        worst_e, worst_d = max(worst_e, ratio_e), max(worst_d, ratio_d)
        unbounded_e += n_e
        unbounded_d += n_d
        # the two factors differ only on the feedback steps outside T1
        # under a triggered bundle, that is one other than the first
        recs = rep.records
        trig = [i for i in rep.theta_exact if not recs[i].explore
                and recs[i].bundle is not recs[0].bundle]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.array([rep.theta_databased[i] for i in trig]) / \
                np.array([rep.theta_exact[i] for i in trig])
        least_ratio = min(least_ratio, float(np.min(ratio, initial=np.inf)))
        n_trig += len(trig)
        n_runs += 1
    res.add("product-bound-holds", all_ok,
            "%d runs, largest V/(pi V0) %.3g exact, %.3g data-based, "
            "non-finite pi V0 on %d exact and %d data-based records"
            % (n_runs, worst_e, worst_d, unbounded_e, unbounded_d))
    res.add("databased-dominates-exact", dominated,
            "%d triggered feedback steps, smallest "
            "theta_databased/theta_exact %.3g" % (n_trig, least_ratio))
    return res


# ---------------------------------------------------------------------------
# hybrid record structure


def suite_prop3():
    res = SuiteResult("prop3")
    tau_ok = True
    dom_ok = True
    for name, plant, cfg, traj in canonical_runs():
        # j starts at 0 and advances by one exactly at the tau = 0 records
        jumps = 0
        for r in traj.records:
            jumps += r.tau == 0
            tau_ok = tau_ok and r.j == jumps
        # k advances by exactly one, so no two records share a step; j
        # never decreases, since it counts the tau = 0 records
        ks = [r.k for r in traj.records]
        dom_ok = dom_ok and all(k1 == k0 + 1 for k0, k1 in zip(ks, ks[1:]))
    res.add("toggle-marks-episodes", tau_ok)
    res.add("hybrid-domain-monotone", dom_ok)
    return res


# ---------------------------------------------------------------------------
# solver correctness


def _random_constant_problem(rng):
    dims = rng.integers(1, 4, size=rng.integers(1, 3))
    cons = []
    for d in dims:
        a = rng.standard_normal((d, d))
        c = linalg.symmetrize(a + a.T) + rng.uniform(-0.5, 0.5) * np.eye(d)
        cons.append(maxdet.AffineMatFn(c, np.zeros((0, d, d))))
    return maxdet.SdpProblem(num_vars=0, constraints=cons)


def _random_2var_maxdet(rng):
    """Bounded two-variable instance: box 0 < x_i < ub_i with a PD
    determinant block that degrades affinely in x."""
    ub = rng.uniform(0.5, 2.0, size=2)
    d = int(rng.integers(1, 3))
    base = rng.standard_normal((d, d))
    d0 = base @ base.T + (1.0 + rng.uniform(0, 1)) * np.eye(d)
    c1 = 0.1 * linalg.symmetrize(rng.standard_normal((d, d)))
    c2 = 0.1 * linalg.symmetrize(rng.standard_normal((d, d)))
    det = maxdet.AffineMatFn(d0, np.stack([c1, c2]))
    # the caps ub_i - x_i > 0, then the lower bounds x_i > 0
    box = []
    for sign, const in ((-1.0, ub), (1.0, np.zeros(2))):
        for i in range(2):
            coef = np.zeros((2, 1, 1))
            coef[i, 0, 0] = sign
            box.append(maxdet.AffineMatFn(np.array([[const[i]]]), coef))
    problem = maxdet.SdpProblem(num_vars=2, constraints=[det] + box,
                                det_block=0)
    return problem, ub, det


def _grid_oracle(det, ub, strict_margin, n=121):
    best = -np.inf
    best_x = None
    lo = np.array([strict_margin, strict_margin])
    hi = ub - strict_margin
    for _ in range(3):
        # every grid point at once, in the row-major order of (x1, x2)
        pts = np.stack(np.meshgrid(np.linspace(lo[0], hi[0], n),
                                   np.linspace(lo[1], hi[1], n),
                                   indexing="ij"), axis=-1).reshape(-1, 2)
        ev = linalg.eigvalsh(
            det.constant + np.einsum("gi,iab->gab", pts, det.coeffs))
        ok = ev[:, 0] > strict_margin
        vals = np.full(len(pts), -np.inf)
        vals[ok] = np.sum(np.log(ev[ok]), axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            best_x = pts[i]
        if best_x is None:
            return None, None
        span = (hi - lo) / (n - 1)
        lo = np.maximum(lo, best_x - 2 * span)
        hi = np.minimum(hi, best_x + 2 * span)
    return best, best_x


def suite_solver():
    res = SuiteResult("solver")
    rng = np.random.default_rng(0)
    opts = maxdet.SolverOptions()

    # (a) constant problems have an exact feasibility answer
    agree = 0
    for _ in range(100):
        p = _random_constant_problem(rng)
        lam = min(float(linalg.eigvalsh(f.constant)[0])
                  for f in p.constraints)
        want = maxdet.FEASIBLE if lam >= opts.strict_margin \
            else maxdet.INFEASIBLE
        got = maxdet.solve_feasibility(p, opts).status
        agree += int(got == want)
    res.add("constant-feasibility-exact", agree == 100, "%d/100" % agree)

    # (b) two-variable determinant maximization against a grid oracle
    n_inst = 0
    worst_gap = 0.0
    ok_b = True
    while n_inst < 20:
        problem, ub, det = _random_2var_maxdet(rng)
        oracle_val, _ = _grid_oracle(det, ub, opts.strict_margin)
        if oracle_val is None:
            continue
        sol = maxdet.solve_maxdet(problem, opts)
        if sol.status != maxdet.OPTIMAL:
            ok_b = False
            n_inst += 1
            continue
        got = float(np.sum(np.log(linalg.eigvalsh(det(sol.x)))))
        gap = oracle_val - got
        worst_gap = max(worst_gap, gap)
        if gap > 1e-3:
            ok_b = False
        n_inst += 1
    res.add("maxdet-matches-grid-oracle", ok_b,
            "20 instances, worst gap %.3g" % worst_gap)

    # (c) accepted design solutions keep interior margins, and
    # (d) the certified rate a1 dominates the exact contraction at the
    # centre Zc of every non-empty consistency set, which is a member
    marg_ok = True
    n_designs = n_center = 0
    worst_center = -np.inf
    for name, plant, cfg, traj in canonical_runs():
        for b in [e.new_bundle for e in traj.episodes]:
            par = proximity.ellipsoid_params(b.window, b.F)
            if proximity.is_nonempty(par):
                # Zc is stacked [A B]^T
                nx = b.window.nx
                theta = synthesis.theta_exact(par.Zc[:nx].T, par.Zc[nx:].T,
                                              b.K, b.S)
                worst_center = max(worst_center,
                                   (theta - b.a1) / max(abs(b.a1), 1.0))
                n_center += 1
            design = synthesis.build_design_problem(b.window)
            sol = maxdet.solve_maxdet(design.problem, opts)
            if sol.status != maxdet.OPTIMAL:
                marg_ok = False
                continue
            margins = maxdet.check_point(design.problem, sol.x)
            if float(np.min(margins)) < opts.strict_margin / 2:
                marg_ok = False
            n_designs += 1
    res.add("design-margins", marg_ok, "%d designs" % n_designs)
    res.add("center-decrease", worst_center <= synthesis.PROPERTY_REL_TOL,
            "%d non-empty sets, worst relative excess %.3g"
            % (n_center, worst_center))
    return res


SUITES = {
    "lemma3": suite_lemma3,
    "property1": suite_property1,
    "lemma5": suite_lemma5,
    "prop3": suite_prop3,
    "solver": suite_solver,
}
