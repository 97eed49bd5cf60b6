"""Command line front end: seeded closed-loop experiments from config
files, batch sweeps, and the verification suites. It writes every run
artifact (trajectory.csv, diagnostics.csv, summary.txt, norms.svg and
batch_summary.csv), with one formatter for every CSV cell.

Config files are plain line-oriented text: `[section]` headers followed
by `key = value` lines, with `#` comments. Recognized sections and keys
are documented in the README.
"""

import argparse
import csv
import logging
import os
import sys

import numpy as np

from . import __version__, hybrid, linalg, maxdet, monitor, plants, \
    verification

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DIVERGED = 4


class ConfigError(ValueError):
    pass


def _parse_bool(text):
    try:
        return {"true": True, "false": False, "1": True, "0": False}[text]
    except KeyError:
        raise ValueError("expected true, false, 1 or 0, got %r" % text)


def _parse_vector(text):
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError("bad vector %r: %s" % (text, exc))


def _parse_matrix(text):
    try:
        return np.array([[float(v) for v in row.split(",")]
                         for row in text.split(";")])
    except ValueError as exc:
        raise ConfigError("bad matrix %r: %s" % (text, exc))


def _parse_dir(text):
    if not text:
        raise ValueError("empty directory name")
    return text


_PLANT_KEYS = {"kind": str, "p": int, "ell": float, "delta_a": float,
               "t_delta": int, "path": str, "a": _parse_matrix,
               "b": _parse_matrix}
_RUN_KEYS = {"mode": str, "horizon": int, "seed": int, "T": int,
             "eps_F": float, "c_sigma": float, "n_p": int,
             "x0": _parse_vector}
_SOLVER_KEYS = {"strict_margin": float, "max_newton": int}
_OUTPUT_KEYS = {"dir": _parse_dir, "svg": _parse_bool}
_SECTIONS = {"plant": _PLANT_KEYS, "run": _RUN_KEYS, "solver": _SOLVER_KEYS,
             "output": _OUTPUT_KEYS}


def parse_config(path):
    """Parse a scenario config file into {section: {key: typed value}}."""
    if not os.path.isfile(path):
        raise ConfigError("config file not found: %s" % path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError("%s is not UTF-8 text: %s" % (path, exc))
    out = {name: {} for name in _SECTIONS}
    section = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError("%s:%d: unknown section [%s]"
                                  % (path, lineno, section))
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value, got %r"
                              % (path, lineno, line))
        if section is None:
            raise ConfigError("%s:%d: key before any [section]"
                              % (path, lineno))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        keys = _SECTIONS[section]
        if key not in keys:
            raise ConfigError("%s:%d: unknown key %r in [%s]"
                              % (path, lineno, key, section))
        if key in out[section]:
            raise ConfigError("%s:%d: duplicate key %r in [%s]"
                              % (path, lineno, key, section))
        try:
            out[section][key] = keys[key](value)
        except ValueError as exc:
            raise ConfigError("%s:%d: bad value for %s: %s"
                              % (path, lineno, key, exc))
    return out


def build_scenario(cfg_dict, seed_override=None, out_override=None):
    """Turn a parsed config into (plant, ScenarioConfig, out_dir, svg)."""
    psec = dict(cfg_dict["plant"])
    kind = psec.pop("kind", None)
    if kind is None:
        raise ConfigError("[plant] needs a kind")
    try:
        plant = plants.make_plant(kind, psec)
    except Exception as exc:
        raise ConfigError("bad plant spec: %s" % exc)

    rsec = dict(cfg_dict["run"])
    if seed_override is not None:
        rsec["seed"] = seed_override
    ssec = cfg_dict["solver"]
    try:
        opts = maxdet.SolverOptions(**ssec) if ssec else None
    except Exception as exc:
        raise ConfigError("bad solver config: %s" % exc)
    try:
        scen = hybrid.ScenarioConfig(solver_options=opts, **rsec)
        scen.validate(plant)
    except Exception as exc:
        raise ConfigError("bad run config: %s" % exc)
    osec = cfg_dict["output"]
    out_dir = out_override or osec.get("dir", "out")
    return plant, scen, out_dir, osec.get("svg", False)


def write_norm_svg(traj, path):
    """Static 640 x 360 log-scale plot of ||x(k)|| with episode markers.
    Only the finite norms are scaled and drawn: a diverged run may end on
    a state that overflowed."""
    width, height = 640, 360
    norms = traj.state_norms()
    finite = np.isfinite(norms)
    recs = [r for r, ok in zip(traj.records, finite) if ok]
    ks = [r.k for r in recs]
    vals = np.log10(np.maximum(norms[finite], 1e-300))
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if hi - lo < 1e-12:
        hi = lo + 1.0
    pad = 40

    def sx(k):
        return pad + (width - 2 * pad) * (k - ks[0]) / max(ks[-1] - ks[0], 1)

    def sy(v):
        return height - pad - (height - 2 * pad) * (v - lo) / (hi - lo)

    pts = " ".join("%.2f,%.2f" % (sx(k), sy(v)) for k, v in zip(ks, vals))
    marks = ['<circle cx="%.2f" cy="%.2f" r="4" fill="none" stroke="red"/>'
             % (sx(r.k), sy(v)) for r, v in zip(recs, vals) if r.tau == 0]
    body = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
        % (width, height),
        '<rect width="100%" height="100%" fill="white"/>',
        '<polyline fill="none" stroke="black" points="%s"/>' % pts,
        '<text x="%d" y="%d" font-size="12">log10 ||x(k)||</text>'
        % (pad, pad - 10),
    ] + marks + ["</svg>"]
    with open(path, "w") as fh:
        fh.write("\n".join(body) + "\n")


def _fmt(v):
    """One artifact cell: blank for None, 1 or 0 for a flag, %.17g for a
    number; a string is its own cell."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "1" if v else "0"
    return "%.17g" % v


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(header)
        wtr.writerows([_fmt(v) for v in row] for row in rows)


def write_trajectory_csv(traj, path):
    """One row per record: k, j, the state, the input (blank on the final
    record), V, sigma(a1), the bundle's a1 and the explore and
    synth_feasible flags. The first record always has an input, since
    the horizon exceeds the window width."""
    nx, nu = traj.records[0].x.size, traj.records[0].u.size
    header = (["k", "j"]
              + ["x_%d" % (i + 1) for i in range(nx)]
              + ["u_%d" % (i + 1) for i in range(nu)]
              + ["V", "sigma_a1", "a1", "explore", "synth_feasible"])
    _write_csv(path, header, (
        [r.k, r.j, *r.x.tolist(),
         *([None] * nu if r.u is None else r.u.tolist()),
         r.V, r.sigma_a1, None if r.bundle is None else r.bundle.a1,
         r.explore, r.synth_feasible] for r in traj.records))


def write_diagnostics_csv(report, path):
    """One row per monitored record; step-indexed columns sit on the
    departure row and stay blank on the final record, and the theta
    columns are filled only on steps outside T1 (in_C1 = 0). A V that is
    not recorded reads inf."""
    nus = dict(report.nu_d_events)
    _write_csv(path, ["k", "j", "V", "pi_exact", "pi_databased", "in_C1",
                      "nu_d_event", "theta_exact", "theta_databased",
                      "thm4_lhs"], (
        [r.k, r.j, np.inf if r.V is None else r.V, report.pi_exact[i],
         report.pi_databased[i], in_c1, nus.get(i),
         report.theta_exact.get(i), report.theta_databased.get(i),
         report.thm4_lhs[i]]
        for i, (r, in_c1) in enumerate(zip(report.records,
                                           report.T1_membership + [None]))))


def _run_summary(traj):
    """(status, final state norm, episode instants) of a run."""
    return (traj.status, hybrid.state_norm(traj.records[-1].x),
            [e.k for e in traj.episodes])


def _make_out_dir(path):
    """Create an output directory; one that cannot be made is a config
    error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create output directory %s: %s"
                          % (path, exc))


def run_scenario(plant, scen, out_dir, svg=False):
    """Run one scenario and write its artifacts; returns (traj, paths). The
    output directory is made before the run."""
    _make_out_dir(out_dir)
    traj = hybrid.run(plant, scen)
    paths = {}
    paths["trajectory"] = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(traj, paths["trajectory"])
    try:
        lam_c, lam_d = monitor.default_rates(traj, plant, scen.c_sigma)
        report = monitor.thm_diagnostics(traj, lam_c, lam_d, plant,
                                         scen.c_sigma)
        paths["diagnostics"] = os.path.join(out_dir, "diagnostics.csv")
        write_diagnostics_csv(report, paths["diagnostics"])
    # a trajectory without a certified segment, or one whose matrices the
    # kernels reject; any other error is a fault and propagates
    except (linalg.InvalidInput, linalg.NotPositiveDefinite,
            np.linalg.LinAlgError) as exc:
        logger.warning("diagnostics unavailable: %s", exc)
        report = None
    paths["summary"] = os.path.join(out_dir, "summary.txt")
    status, final, instants = _run_summary(traj)
    with open(paths["summary"], "w") as fh:
        fh.write("status = %s\n" % status)
        fh.write("final_norm = %s\n" % _fmt(final))
        fh.write("episodes = %d\n" % len(instants))
        fh.write("episode_instants = %s\n" % ",".join(map(_fmt, instants)))
        if report is not None and report.cor1_membership is not None:
            fh.write("cor1_membership = %s\n" % report.cor1_membership)
    if svg:
        paths["plot"] = os.path.join(out_dir, "norms.svg")
        write_norm_svg(traj, paths["plot"])
    return traj, paths


def cmd_simulate(args):
    cfg = parse_config(args.config)
    plant, scen, out_dir, svg = build_scenario(cfg, args.seed, args.out)
    traj, paths = run_scenario(plant, scen, out_dir, svg)
    status, final, instants = _run_summary(traj)
    print("status=%s final_norm=%.6g episodes=%d out=%s"
          % (status, final, len(instants), out_dir))
    return EXIT_DIVERGED if status == hybrid.DIVERGED else EXIT_OK


def cmd_batch(args):
    if not os.path.isdir(args.config_dir):
        raise ConfigError("not a directory: %s" % args.config_dir)
    files = sorted(f for f in os.listdir(args.config_dir)
                   if f.endswith(".cfg"))
    out_root = args.out or "out"
    _make_out_dir(out_root)
    rows = []
    for name in files:
        stem = name[:-4]
        try:
            cfg = parse_config(os.path.join(args.config_dir, name))
            plant, scen, _, svg = build_scenario(
                cfg, None, os.path.join(out_root, stem))
            traj, _ = run_scenario(plant, scen,
                                   os.path.join(out_root, stem), svg)
            status, final, instants = _run_summary(traj)
            rows.append([stem, status, final, len(instants),
                         ";".join(map(_fmt, instants)), None])
        except Exception as exc:
            rows.append([stem, None, None, None, None, str(exc)])
            logger.error("run %s failed: %s", stem, exc)
    table = os.path.join(out_root, "batch_summary.csv")
    _write_csv(table, ["name", "status", "final_norm", "episodes",
                       "episode_instants", "error"], rows)
    print("wrote %s (%d runs)" % (table, len(rows)))
    return EXIT_OK


def cmd_verify(args):
    res = verification.SUITES[args.suite]()
    for line in res.lines():
        print(line)
    return EXIT_OK if res.passed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ltvadapt",
        description="Data-driven event-triggered adaptive control of "
                    "linear time-varying plants.")
    parser.add_argument("--version", action="version",
                        version="ltvadapt %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configured scenario")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=None)

    p_batch = sub.add_parser("batch", help="run every .cfg in a directory")
    p_batch.add_argument("--config-dir", required=True)
    p_batch.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run a property suite")
    p_ver.add_argument("--suite", required=True,
                       choices=sorted(verification.SUITES))

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "batch":
            return cmd_batch(args)
        return cmd_verify(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except maxdet.SolverBreakdown as exc:
        print("solver breakdown: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
