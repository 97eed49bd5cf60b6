import csv
import math
import os
import pathlib

import numpy as np
import pytest

from ltvadapt import cli, hybrid, linalg, monitor, plants, verification


SWITCHING_CFG = """
# smoke scenario
[plant]
kind = switching
p = 12
ell = 1.0

[run]
mode = event
horizon = 40
seed = 53

[output]
svg = 1
"""


def write_cfg(tmp_path, text, name="scen.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_round_trip(tmp_path):
    cfg = cli.parse_config(write_cfg(tmp_path, SWITCHING_CFG))
    assert cfg["plant"]["kind"] == "switching"
    assert cfg["plant"]["p"] == 12
    assert cfg["run"]["seed"] == 53
    assert cfg["output"]["svg"] == 1


def test_parse_config_errors(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(write_cfg(tmp_path, "[nosuch]\nx = 1\n"))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(write_cfg(tmp_path, "[run]\nbogus = 1\n"))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(write_cfg(tmp_path, "[run]\nseed = abc\n"))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(write_cfg(tmp_path, "seed = 1\n"))
    path = write_cfg(tmp_path, "[run]\nseed = 1\nseed = 2\n")
    with pytest.raises(cli.ConfigError,
                       match=r"scen\.cfg:3: duplicate key 'seed' in \[run\]"):
        cli.parse_config(path)


def test_svg_flag_values(tmp_path):
    for text, want in (("true", True), ("false", False), ("1", True),
                       ("0", False)):
        cfg = cli.parse_config(write_cfg(tmp_path, "[output]\nsvg = %s\n"
                                         % text))
        assert cfg["output"]["svg"] is want
    path = write_cfg(tmp_path, "[output]\ndir = x\nsvg = yes\n")
    with pytest.raises(cli.ConfigError, match=r"scen\.cfg:3: .*svg"):
        cli.parse_config(path)


def test_readme_config_example(tmp_path):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().split("### Config format", 1)[1]
    example = text.split("```", 2)[1]
    cfg = cli.parse_config(write_cfg(tmp_path, example))
    plant, scen, out_dir, svg = cli.build_scenario(cfg)
    assert cfg["plant"]["kind"] == "switching"
    assert (plant.nx, plant.nu) == (2, 2)
    assert (scen.mode, scen.horizon, scen.seed, scen.T) == ("event", 100,
                                                            53, 4)
    assert scen.solver_options.max_newton == 500
    assert np.array_equal(scen.x0, [1.0, 1.0])
    assert out_dir == "out/run1"
    assert svg is True


def test_constant_plant_matrices_from_config(tmp_path):
    cfg = cli.parse_config(write_cfg(tmp_path, """
[plant]
kind = constant
a = 0.5, 0; 0.2, 0.9
b = 1; 0
[run]
mode = fixed
horizon = 10
"""))
    plant, scen, _, _ = cli.build_scenario(cfg)
    a, b = plant.eval(3)
    assert np.array_equal(a, [[0.5, 0.0], [0.2, 0.9]])
    assert np.array_equal(b, [[1.0], [0.0]])
    assert scen.mode == "fixed"


def test_simulate_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, SWITCHING_CFG)
    out = str(tmp_path / "out")
    code = cli.main(["simulate", "--config", cfg, "--out", out])
    assert code == cli.EXIT_OK
    for name in ("trajectory.csv", "diagnostics.csv", "summary.txt",
                 "norms.svg"):
        assert os.path.isfile(os.path.join(out, name)), name
    # one marker per episode
    summary = pathlib.Path(out, "summary.txt").read_text()
    episodes = int(summary.split("episodes = ", 1)[1].split()[0])
    assert episodes > 1
    svg = pathlib.Path(out, "norms.svg").read_text()
    assert svg.count("<circle") == episodes


def test_simulate_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, SWITCHING_CFG)
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_simulate_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, SWITCHING_CFG)
    out1 = str(tmp_path / "s1")
    out2 = str(tmp_path / "s2")
    cli.main(["simulate", "--config", cfg, "--out", out1])
    cli.main(["simulate", "--config", cfg, "--out", out2, "--seed", "7"])
    t1 = open(os.path.join(out1, "trajectory.csv")).read()
    t2 = open(os.path.join(out2, "trajectory.csv")).read()
    assert t1 != t2


def test_simulate_config_error_exit(tmp_path):
    assert cli.main(["simulate", "--config",
                     str(tmp_path / "nope.cfg")]) == cli.EXIT_CONFIG
    # delta_a is a sinusoidal parameter; the vanishing plant has no use for it
    cfg = write_cfg(tmp_path, "[plant]\nkind = vanishing\ndelta_a = 0.4\n")
    assert cli.main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == cli.EXIT_CONFIG
    # a time-mode period shorter than T would never run a scheduled design
    cfg = write_cfg(tmp_path, "[plant]\nkind = switching\n"
                    "[run]\nmode = time\nn_p = 2\n")
    assert cli.main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == cli.EXIT_CONFIG
    # values that used to fail only mid-run, with a traceback and exit 1
    for text in ("[plant]\nkind = switching\n[run]\nx0 = 1, 1, 1\n",
                 "[plant]\nkind = switching\n[run]\nc_sigma = 1.5\n",
                 "[plant]\nkind = switching\n[run]\nseed = -1\n",
                 "[plant]\nkind = sinusoidal\np = 0\n",
                 "[plant]\nkind = switching\n[run]\nmode = bogus\n"):
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["simulate", "--config", cfg, "--out",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    # one Latin-1 byte used to end in a UnicodeDecodeError traceback
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"[plant]\nkind = switching\n# caf\xe9\n")
    assert cli.main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: %s is not UTF-8" % cfg)
    assert not (tmp_path / "out").exists()


def test_output_dir_that_cannot_be_made_is_a_config_error(tmp_path, capsys):
    # an existing file as the output directory used to raise FileExistsError
    blocker = tmp_path / "afile"
    blocker.write_text("")
    cfg = write_cfg(tmp_path, "[plant]\nkind = switching\n")
    in_cfg = write_cfg(tmp_path, "[plant]\nkind = switching\n[output]\n"
                       "dir = %s\n" % blocker, name="dir.cfg")
    for argv in (["simulate", "--config", cfg, "--out", str(blocker)],
                 ["simulate", "--config", in_cfg],
                 ["batch", "--config-dir", str(tmp_path), "--out",
                  str(blocker)]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""  # raised before any run
        assert err.startswith("config error: cannot create output "
                              "directory %s: " % blocker)


def test_bad_vector_matrix_and_dir_values_name_their_line(tmp_path, capsys):
    # an empty output directory would otherwise reach os.makedirs('')
    for text, lineno, key in (
            ("[plant]\nkind = switching\n[run]\nx0 = 1, x\n", 4, "x0"),
            ("[plant]\nkind = constant\na = 1, 0; 0, y\n", 3, "a"),
            ("[plant]\nkind = constant\nb = ;\n", 3, "b"),
            ("[plant]\nkind = switching\n[output]\ndir =\n", 4, "dir")):
        cfg = write_cfg(tmp_path, text)
        with pytest.raises(cli.ConfigError,
                           match=r"scen\.cfg:%d: bad value for %s: "
                           % (lineno, key)):
            cli.parse_config(cfg)
        assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_CONFIG
        assert "scen.cfg:%d: " % lineno in capsys.readouterr().err


@pytest.mark.parametrize("line", ["strict_margin = 0", "strict_margin = -1e-6",
                                  "strict_margin = 1", "max_newton = 0"])
def test_invalid_solver_options_exit(tmp_path, line):
    cfg = write_cfg(tmp_path, "[plant]\nkind = switching\n[solver]\n%s\n"
                    % line)
    key = line.split()[0]
    with pytest.raises(cli.ConfigError, match=key):
        cli.build_scenario(cli.parse_config(cfg))
    assert cli.main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == cli.EXIT_CONFIG


def test_simulate_diverged_exit(tmp_path):
    cfg = write_cfg(tmp_path, """
[plant]
kind = switching
ell = 2.5
[run]
mode = fixed
seed = 1
""")
    out = str(tmp_path / "div")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == \
        cli.EXIT_DIVERGED


def test_simulate_overflow_exit(tmp_path):
    # a plant step that overflows to inf ends the run Diverged, not in a
    # traceback or a numpy warning, and the artifacts are still written
    cfg = write_cfg(tmp_path, """
[plant]
kind = constant
a = 1e300, 0; 0, 1e300
b = 1, 0; 0, 1
[run]
x0 = 1e10, 1e10
""")
    out = str(tmp_path / "ovf")
    code = cli.main(["simulate", "--config", cfg, "--out", out])
    assert code == cli.EXIT_DIVERGED
    for name in ("trajectory.csv", "summary.txt"):
        assert os.path.isfile(os.path.join(out, name)), name
    # the run has no certified segment, which the certificate walk declines
    assert not os.path.exists(os.path.join(out, "diagnostics.csv"))


def test_simulate_propagates_a_fault_in_the_certificate_walk(tmp_path,
                                                             monkeypatch):
    # only the numerical errors of a walk that cannot certify are logged;
    # any other error is a fault and is not reported as a finished run
    def broken(*args, **kwargs):
        raise TypeError("broken walk")

    monkeypatch.setattr(monitor, "thm_diagnostics", broken)
    cfg = write_cfg(tmp_path, SWITCHING_CFG)
    with pytest.raises(TypeError, match="broken walk"):
        cli.main(["simulate", "--config", cfg,
                  "--out", str(tmp_path / "out")])


def test_overflow_norm_plot_draws_only_finite_norms(tmp_path):
    # the last state overflows to inf; the plot scales and draws the finite
    # norms only, so it neither warns (RuntimeWarnings are errors in this
    # suite) nor writes a nan coordinate
    cfg = write_cfg(tmp_path, """
[plant]
kind = constant
a = 1e300, 0; 0, 1e300
b = 1, 0; 0, 1
[run]
mode = fixed
horizon = 40
x0 = 1e10, 1e10
[output]
svg = true
""")
    out = str(tmp_path / "ovf")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == \
        cli.EXIT_DIVERGED
    svg = pathlib.Path(out, "norms.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    assert 'points="40.00,320.00"' in svg


class ExplodingPlant(plants.LtvPlant):
    """The nominal pair with A scaled by `scale` from step `start` on."""

    def __init__(self, scale, start):
        super().__init__(2, 2)
        self.scale, self.start = scale, start

    def eval(self, k):
        a = plants.A_NOMINAL * (self.scale if k >= self.start else 1.0)
        return a, plants.B_NOMINAL.copy()


def test_finite_huge_state_is_reported_without_overflow(tmp_path):
    # one step takes a bounded state to a finite one whose squares
    # overflow: the run ends Diverged with V = inf and a finite final norm,
    # and the diagnostics decline with InvalidInput; RuntimeWarnings are
    # errors in this suite, so none of this may warn
    plant = ExplodingPlant(1e160, 8)
    scen = hybrid.ScenarioConfig(mode="fixed", horizon=20, seed=1)
    traj, paths = cli.run_scenario(plant, scen, str(tmp_path / "huge"))
    assert traj.status == hybrid.DIVERGED
    last = traj.records[-1]
    assert np.all(np.isfinite(last.x)) and np.max(np.abs(last.x)) > 1e155
    assert last.V == np.inf
    norm = hybrid.state_norm(last.x)
    assert abs(norm - math.hypot(*last.x)) <= 1e-15 * norm
    assert "diagnostics" not in paths
    summary = pathlib.Path(paths["summary"]).read_text()
    assert "final_norm = %.17g\n" % norm in summary
    with pytest.raises(linalg.InvalidInput, match="non-finite entries"):
        monitor.default_rates(traj, plant, scen.c_sigma)



def test_diagnostics_of_a_huge_finite_last_state_decline(tmp_path, caplog):
    # the run ends Diverged on a finite state of about 1e305; the
    # terminal-set test's d d^T overflows, which must not warn
    # (RuntimeWarnings are errors in this suite), and the non-finite matrix
    # declines the diagnostics
    plant = ExplodingPlant(1e300, 12)
    scen = hybrid.ScenarioConfig(mode="time", horizon=40, seed=1, n_p=8,
                                 x0=np.array([1e5, 1e5]))
    traj, paths = cli.run_scenario(plant, scen, str(tmp_path / "huge"))
    assert traj.status == hybrid.DIVERGED
    assert np.isfinite(traj.records[-1].x).all()
    assert "diagnostics" not in paths
    assert "diagnostics unavailable" in caplog.text

# --- the artifact writers against the writers they replaced ----------------


def _ref_fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    return "%.17g" % v


def _ref_write_trajectory_csv(traj, path, nx, nu):
    header = (["k", "j"]
              + ["x_%d" % (i + 1) for i in range(nx)]
              + ["u_%d" % (i + 1) for i in range(nu)]
              + ["V", "sigma_a1", "a1", "explore", "synth_feasible"])
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(header)
        for r in traj.records:
            row = [r.k, r.j]
            row += [_ref_fmt(float(v)) for v in r.x]
            if r.u is None:
                row += [""] * nu
            else:
                row += [_ref_fmt(float(v)) for v in r.u]
            row += [_ref_fmt(r.V), _ref_fmt(r.sigma_a1),
                    _ref_fmt(None if r.bundle is None else r.bundle.a1),
                    _ref_fmt(r.explore), _ref_fmt(r.synth_feasible)]
            wtr.writerow(row)


def _ref_write_diagnostics_csv(report, path):
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


def _assert_writers_match(tmp_path, plant, cfg, traj):
    """Both artifacts equal the reference writers' byte for byte; returns
    the rows of the trajectory and the diagnostics."""
    rep = monitor.thm_diagnostics(
        traj, *monitor.default_rates(traj, plant, cfg.c_sigma), plant,
        cfg.c_sigma)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    rows = []
    for write, write_ref, obj in (
            (cli.write_trajectory_csv, lambda t, p: _ref_write_trajectory_csv(
                t, p, plant.nx, plant.nu), traj),
            (cli.write_diagnostics_csv, _ref_write_diagnostics_csv, rep)):
        write(obj, str(new))
        write_ref(obj, str(ref))
        assert new.read_bytes() == ref.read_bytes()
        rows.append(list(csv.DictReader(new.read_text().splitlines())))
    return rows


def test_writers_match_the_reference_on_canonical_runs(tmp_path):
    for name, plant, cfg, traj in verification.canonical_runs():
        _assert_writers_match(tmp_path, plant, cfg, traj)


def test_writers_match_the_reference_on_an_overflowed_last_state(tmp_path):
    # A grows to about 1e308 on a re-excitation step, so the last state
    # overflows to inf: its V is blank in the trajectory and inf in the
    # diagnostics
    plant = ExplodingPlant(1e308, 12)
    cfg = hybrid.ScenarioConfig(mode="time", horizon=40, seed=1, n_p=8,
                                x0=np.array([1e5, 1e5]))
    traj = hybrid.run(plant, cfg)
    assert traj.status == hybrid.DIVERGED
    assert np.isinf(traj.records[-1].x).all() and traj.records[-1].V is None
    traj_rows, diag_rows = _assert_writers_match(tmp_path, plant, cfg,
                                                 traj)
    assert traj_rows[-1]["V"] == "" and traj_rows[-1]["u_1"] == ""
    assert diag_rows[-1]["V"] == "inf" and diag_rows[-1]["in_C1"] == ""


def test_writers_match_the_reference_on_a_fallback_run(tmp_path):
    plant = plants.ConstantLti(b=np.zeros((2, 2)))
    cfg = hybrid.ScenarioConfig(mode="event", horizon=8, seed=3)
    traj = hybrid.run(plant, cfg)
    assert traj.initial_bundle.solver_status == "Fallback"
    traj_rows, _ = _assert_writers_match(tmp_path, plant, cfg, traj)
    assert traj_rows[4]["synth_feasible"] == "0"


def test_summary_and_printed_line_agree(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWITCHING_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    summary = dict(line.split(" = ", 1) for line in
                   pathlib.Path(out, "summary.txt").read_text().splitlines())
    printed = dict(f.split("=", 1) for f in
                   capsys.readouterr().out.split())
    assert printed["status"] == summary["status"] == "Completed"
    assert printed["final_norm"] == "%.6g" % float(summary["final_norm"])
    assert printed["episodes"] == summary["episodes"] == str(
        len(summary["episode_instants"].split(",")))


def test_batch(tmp_path):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "ok.cfg").write_text(SWITCHING_CFG)
    (cfg_dir / "bad.cfg").write_text("[plant]\nkind = nope\n[run]\n")
    out = str(tmp_path / "batch_out")
    assert cli.main(["batch", "--config-dir", str(cfg_dir),
                     "--out", out]) == cli.EXIT_OK
    table = open(os.path.join(out, "batch_summary.csv")).read().splitlines()
    assert table[0].startswith("name,status")
    rows = {line.split(",")[0]: line for line in table[1:]}
    assert "Completed" in rows["ok"]
    assert rows["bad"].split(",")[1] == ""  # failed run, error recorded


def test_batch_empty_dir(tmp_path):
    cfg_dir = tmp_path / "empty"
    cfg_dir.mkdir()
    out = str(tmp_path / "out")
    assert cli.main(["batch", "--config-dir", str(cfg_dir),
                     "--out", out]) == cli.EXIT_OK
    table = open(os.path.join(out, "batch_summary.csv")).read().splitlines()
    assert len(table) == 1  # header only


def test_verify_runs_the_named_suite(monkeypatch, capsys):
    # argparse offers exactly the suites there are
    for passed, code in ((True, 0), (False, 1)):
        res = verification.SuiteResult("lemma3")
        res.add("check", passed)
        monkeypatch.setitem(verification.SUITES, "lemma3", lambda: res)
        assert cli.main(["verify", "--suite", "lemma3"]) == code
        assert capsys.readouterr().out.splitlines() == res.lines()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "ltvadapt" in capsys.readouterr().out


def test_vector_and_matrix_parsing():
    assert np.array_equal(cli._parse_vector("1, 2,3"), [1.0, 2.0, 3.0])
    assert np.array_equal(cli._parse_matrix("1,2;3,4"),
                          [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(cli.ConfigError):
        cli._parse_vector("1,x")
