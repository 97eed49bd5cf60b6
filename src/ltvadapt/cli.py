"""Command line front end: seeded closed-loop experiments from config
files, batch sweeps, and the verification suites.

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

from . import __version__, hybrid, maxdet, monitor, plants, verification

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DIVERGED = 4


class ConfigError(Exception):
    pass


def _parse_bool(text):
    try:
        return {"true": True, "false": False, "1": True, "0": False}[text]
    except KeyError:
        raise ValueError("expected true, false, 1 or 0, got %r" % text)


_PLANT_KEYS = {"kind": str, "p": int, "ell": float, "delta_a": float,
               "t_delta": int, "path": str, "a": str, "b": str}
_RUN_KEYS = {"mode": str, "horizon": int, "seed": int, "T": int,
             "eps_F": float, "c_sigma": float, "n_p": int, "x0": str}
_SOLVER_KEYS = {"strict_margin": float, "max_newton": int}
_OUTPUT_KEYS = {"dir": str, "svg": _parse_bool}
_SECTIONS = {"plant": _PLANT_KEYS, "run": _RUN_KEYS, "solver": _SOLVER_KEYS,
             "output": _OUTPUT_KEYS}


def parse_config(path):
    """Parse a scenario config file into {section: {key: typed value}}."""
    if not os.path.isfile(path):
        raise ConfigError("config file not found: %s" % path)
    out = {name: {} for name in _SECTIONS}
    section = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
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


def build_scenario(cfg_dict, seed_override=None, out_override=None):
    """Turn a parsed config into (plant, ScenarioConfig, out_dir, svg)."""
    psec = dict(cfg_dict["plant"])
    kind = psec.pop("kind", None)
    if kind is None:
        raise ConfigError("[plant] needs a kind")
    if "a" in psec:
        psec["a"] = _parse_matrix(psec["a"])
    if "b" in psec:
        psec["b"] = _parse_matrix(psec["b"])
    try:
        plant = plants.make_plant(kind, psec)
    except Exception as exc:
        raise ConfigError("bad plant spec: %s" % exc)

    rsec = dict(cfg_dict["run"])
    mode = rsec.pop("mode", hybrid.EVENT_TRIGGERED)
    x0 = rsec.pop("x0", None)
    if x0 is not None:
        x0 = _parse_vector(x0)
    seed = rsec.pop("seed", 0)
    if seed_override is not None:
        seed = seed_override
    ssec = cfg_dict["solver"]
    try:
        opts = maxdet.SolverOptions(**ssec) if ssec else None
    except Exception as exc:
        raise ConfigError("bad solver config: %s" % exc)
    try:
        scen = hybrid.ScenarioConfig(
            mode=mode, seed=seed, x0=x0, solver_options=opts,
            **{k: v for k, v in rsec.items()})
        scen.validate(plant)
    except Exception as exc:
        raise ConfigError("bad run config: %s" % exc)
    osec = cfg_dict["output"]
    out_dir = out_override or osec.get("dir", "out")
    return plant, scen, out_dir, osec.get("svg", False)


def write_norm_svg(traj, path):
    """Static 640 x 360 log-scale plot of ||x(k)|| with episode markers."""
    width, height = 640, 360
    norms = traj.state_norms()
    ks = [r.k for r in traj.records]
    vals = np.log10(np.maximum(norms, 1e-300))
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if hi - lo < 1e-12:
        hi = lo + 1.0
    pad = 40

    def sx(k):
        return pad + (width - 2 * pad) * (k - ks[0]) / max(ks[-1] - ks[0], 1)

    def sy(v):
        return height - pad - (height - 2 * pad) * (v - lo) / (hi - lo)

    pts = " ".join("%.2f,%.2f" % (sx(k), sy(v)) for k, v in zip(ks, vals))
    marks = []
    for e in traj.episodes:
        i = next((i for i, r in enumerate(traj.records) if r.k == e.k), None)
        if i is not None:
            marks.append('<circle cx="%.2f" cy="%.2f" r="4" fill="none" '
                         'stroke="red"/>' % (sx(e.k), sy(vals[i])))
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


def run_scenario(plant, scen, out_dir, svg=False):
    """Run one scenario and write its artifacts; returns (traj, paths)."""
    os.makedirs(out_dir, exist_ok=True)
    traj = hybrid.run(plant, scen)
    paths = {}
    paths["trajectory"] = os.path.join(out_dir, "trajectory.csv")
    hybrid.write_trajectory_csv(traj, paths["trajectory"], plant.nx,
                                plant.nu)
    try:
        lam_c, lam_d = monitor.default_rates(traj, plant, scen.c_sigma)
        report = monitor.thm_diagnostics(traj, lam_c, lam_d, plant,
                                         scen.c_sigma)
        paths["diagnostics"] = os.path.join(out_dir, "diagnostics.csv")
        monitor.write_diagnostics_csv(report, paths["diagnostics"])
    except Exception as exc:
        logger.warning("diagnostics unavailable: %s", exc)
        report = None
    paths["summary"] = os.path.join(out_dir, "summary.txt")
    final = float(np.linalg.norm(traj.records[-1].x))
    with open(paths["summary"], "w") as fh:
        fh.write("status = %s\n" % traj.status)
        fh.write("final_norm = %.17g\n" % final)
        fh.write("episodes = %d\n" % traj.num_episodes)
        fh.write("episode_instants = %s\n"
                 % ",".join(str(e.k) for e in traj.episodes))
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
    print("status=%s final_norm=%.6g episodes=%d out=%s"
          % (traj.status, float(np.linalg.norm(traj.records[-1].x)),
             traj.num_episodes, out_dir))
    return EXIT_DIVERGED if traj.status == hybrid.DIVERGED else EXIT_OK


def cmd_batch(args):
    if not os.path.isdir(args.config_dir):
        raise ConfigError("not a directory: %s" % args.config_dir)
    files = sorted(f for f in os.listdir(args.config_dir)
                   if f.endswith(".cfg"))
    out_root = args.out or "out"
    os.makedirs(out_root, exist_ok=True)
    rows = []
    for name in files:
        stem = name[:-4]
        row = {"name": stem, "status": "", "final_norm": "",
               "episodes": "", "episode_instants": "", "error": ""}
        try:
            cfg = parse_config(os.path.join(args.config_dir, name))
            plant, scen, _, svg = build_scenario(
                cfg, None, os.path.join(out_root, stem))
            traj, _ = run_scenario(plant, scen,
                                   os.path.join(out_root, stem), svg)
            row["status"] = traj.status
            row["final_norm"] = "%.17g" % float(
                np.linalg.norm(traj.records[-1].x))
            row["episodes"] = str(traj.num_episodes)
            row["episode_instants"] = ";".join(
                str(e.k) for e in traj.episodes)
        except Exception as exc:
            row["error"] = str(exc)
            logger.error("run %s failed: %s", stem, exc)
        rows.append(row)
    table = os.path.join(out_root, "batch_summary.csv")
    with open(table, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["name", "status",
                                                "final_norm", "episodes",
                                                "episode_instants",
                                                "error"])
        writer.writeheader()
        writer.writerows(rows)
    print("wrote %s (%d runs)" % (table, len(rows)))
    return EXIT_OK


def cmd_verify(args):
    res = verification.run_suite(args.suite)
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
