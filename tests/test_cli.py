import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import qglab
from qglab import cli
from qglab.cli import cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_unknown_subcommand_exits_1(capsys):
    assert cli_main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_exits_1(capsys):
    assert cli_main([]) == 1


def test_simulate_steady_datum_flat_series(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        f"model=inviscid\nn=16\ndt=0.01\nt_end=0.1\ninit=single:1,0\noutput_dir={out}\n",
    )
    assert cli_main(["simulate", "--config", cfg]) == 0
    cols = qglab.io.read_series(str(out / "series.csv"))
    assert np.allclose(cols["l2"], cols["l2"][0], rtol=1e-12)
    snap = qglab.load_snapshot(str(out / "final.qgw"))
    assert snap.t == pytest.approx(0.1)


def test_simulate_bad_config_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=regularized\nmu=1\nalpha=0.4\n")
    assert cli_main(["simulate", "--config", cfg]) == 1
    assert "alpha" in capsys.readouterr().err


def test_simulate_unstable_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        f"model=inviscid\nn=16\ndt=50\nt_end=500\ninit=random:5,1.0\noutput_dir={out}\n",
    )
    assert cli_main(["simulate", "--config", cfg]) == 2
    assert "unstable" in capsys.readouterr().err.lower()


def test_simulate_deterministic_csv_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = "model=dissipative\nkappa=0.1\nn=32\ndt=0.01\nt_end=0.1\ninit=random:8,2.0\nseed=7\n"
    cfg_a = write_cfg(tmp_path, base + f"output_dir={out_a}\n", "a.cfg")
    cfg_b = write_cfg(tmp_path, base + f"output_dir={out_b}\n", "b.cfg")
    assert cli_main(["simulate", "--config", cfg_a]) == 0
    assert cli_main(["simulate", "--config", cfg_b]) == 0
    assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()


def test_picard_prints_certificate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=regularized\nmu=1.0\nalpha=0.5\nn=32\ninit=cmt\n")
    assert cli_main(["picard", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "converged = True" in out
    assert "contraction ratios" in out


def test_picard_horizon_chains_segments(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=regularized\nmu=1.0\nalpha=0.5\nn=16\ninit=single:1,0\n")
    assert cli_main(["picard", "--config", cfg, "--horizon", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "reached t=0.5" in out


@pytest.mark.parametrize(
    "extra",
    [["--horizon", "nan"], ["--horizon", "0"], ["--horizon", "inf"], ["--tol", "nan"], ["--max-iter", "0"]],
    ids=" ".join,
)
def test_picard_bad_controls_exit_1(tmp_path, capsys, extra):
    cfg = write_cfg(tmp_path, "model=regularized\nmu=1.0\nalpha=0.5\nn=16\ninit=single:1,0\n")
    assert cli_main(["picard", "--config", cfg, *extra]) == 1
    captured = capsys.readouterr()
    assert "positive and finite" in captured.err or ">= 1" in captured.err
    assert captured.out == ""


def test_picard_single_sweep_not_reported_converged(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=regularized\nmu=1.0\nalpha=0.5\nn=32\ninit=cmt\n")
    assert cli_main(["picard", "--config", cfg, "--max-iter", "1"]) == 0
    out = capsys.readouterr().out
    assert "converged = False" in out
    assert "converged in one sweep" not in out


def test_norms_subcommand(tmp_path, capsys):
    grid = qglab.Grid(16)
    theta = qglab.single_mode(grid, 1, 0)
    path = str(tmp_path / "s.qgw")
    qglab.save_snapshot(qglab.Snapshot.from_state(0.0, theta, qglab.ModelParams("inviscid")), path)
    assert cli_main(["norms", "--snapshot", path, "--q", "2", "--s", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "4.442882938" in out  # |cos|_2 = pi sqrt(2)


@pytest.mark.parametrize("sigma", ["1", "0.5"])
def test_norms_sigma_at_most_one_exits_1(tmp_path, capsys, sigma):
    path = str(tmp_path / "s.qgw")
    theta = qglab.single_mode(qglab.Grid(16), 1, 0)
    qglab.save_snapshot(qglab.Snapshot.from_state(0.0, theta, qglab.ModelParams("inviscid")), path)
    assert cli_main(["norms", "--snapshot", path, "--sigma", sigma]) == 1
    captured = capsys.readouterr()
    assert "sigma must exceed 1" in captured.err
    assert captured.out == ""


def test_norms_corrupt_snapshot_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.qgw"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    assert cli_main(["norms", "--snapshot", str(path)]) == 1


def test_flux_subcommand_synthetic(capsys):
    code = cli_main(
        ["flux", "--init", "random:8,1.5", "--n", "32", "--seed", "3",
         "--eps", "0.25,0.125,0.0625", "--s", "0.5", "--no-remainder"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted decay exponent" in out
    assert "profile = gaussian" in out


def test_flux_needs_input(capsys):
    assert cli_main(["flux", "--eps", "0.25"]) == 1


def test_flux_rejects_non_finite_eps(capsys):
    code = cli_main(["flux", "--init", "random:8,1.5", "--n", "32", "--eps", "0.25,nan"])
    assert code == 1
    assert "finite" in capsys.readouterr().err


def test_compare_mu_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=inviscid\nn=32\ndt=0.01\nt_end=0.2\ninit=cmt\nalpha=0.5\n")
    assert cli_main(["compare-mu", "--config", cfg, "--mu-list", "1e-1,1e-2,1e-3"]) == 0
    out = capsys.readouterr().out
    assert "slopes:" in out


def test_check_inequality_gn(capsys):
    assert cli_main(["check-inequality", "--lemma", "gn", "--trials", "100", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "residual" in out


def test_check_inequality_log(capsys):
    assert cli_main(["check-inequality", "--lemma", "log", "--trials", "20", "--seed", "1",
                     "--mode-cap", "16"]) == 0
    out = capsys.readouterr().out
    assert "max |F|_inf" in out


@pytest.mark.parametrize("lemma, trials", [("gn", "0"), ("log", "-3")])
def test_check_inequality_empty_trials_exit_1(capsys, lemma, trials):
    assert cli_main(["check-inequality", "--lemma", lemma, "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert "trials must be >= 1" in captured.err
    assert captured.out == ""


def _readme_block(heading):
    """The first fenced block after `heading` in README.md."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def test_readme_matches_code(tmp_path):
    # the documented config loads and every documented command line parses
    config = tmp_path / "readme.cfg"
    config.write_text(_readme_block("### Config format"))
    qglab.load_config(str(config))
    commands = [line for line in _readme_block("## Command line").splitlines() if line.startswith("qglab ")]
    assert len(commands) >= 6
    parser = cli._build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.command in line
