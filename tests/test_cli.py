import os
import pathlib

import numpy as np
import pytest

from ltvadapt import cli


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
