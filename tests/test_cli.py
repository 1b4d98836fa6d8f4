import re
import shlex
import warnings
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


def test_simulate_from_rest_snapshot(tmp_path, capsys):
    # a zeros snapshot as init: E(0) = 0, so the balance residual is the absolute defect
    init, out = tmp_path / "rest.qgw", tmp_path / "out"
    zeros = np.zeros((16, 16))
    qglab.save_snapshot(qglab.Snapshot(16, 0.0, 0.5, 0.0, 0.0, "inviscid", zeros), str(init))
    cfg = write_cfg(tmp_path, f"model=inviscid\nn=16\ndt=0.01\nt_end=0.1\ninit={init}\noutput_dir={out}\n")
    assert cli_main(["simulate", "--config", cfg]) == 0
    assert "balance residual = 0.000e+00" in capsys.readouterr().out
    assert np.array_equal(qglab.load_snapshot(str(out / "final.qgw")).values, zeros)


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


def test_simulate_out_of_band_preset_conserves_energy(tmp_path):
    # random:30,1.5 reaches past the 2/3 band of n=64; the kernel sees its
    # band part only, so |theta|_2 is kept to the RK4 error (measured
    # 1.45e-9), where products of the whole state lost 1.04e-2 of it
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        "model=inviscid\nn=64\nscheme=rk4\ndt=1e-3\nt_end=0.2\n"
        f"init=random:30,1.5\nseed=1\noutput_dir={out}\n",
    )
    assert cli_main(["simulate", "--config", cfg]) == 0
    assert max(qglab.io.read_series(str(out / "series.csv"))["balance_residual"]) <= 1e-7


def test_picard_prints_certificate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=regularized\nmu=1.0\nalpha=0.5\nn=32\ninit=cmt\n")
    assert cli_main(["picard", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "converged = True" in out
    (line,) = [line for line in out.splitlines() if line.startswith("nodes = ")]
    assert line.startswith("nodes = 7   iterations = ")
    assert 0.0 <= float(line.rsplit("quadrature = ", 1)[1]) <= 1e-9
    ratios = line.split("ratios = ", 1)[1].split("   quadrature", 1)[0].split()
    assert len(ratios) >= 2 and all(0.0 < float(r) <= 0.55 for r in ratios)


def test_picard_horizon_chains_segments(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model=regularized\nmu=1.0\nalpha=0.5\nn=16\ninit=single:1,0\n")
    assert cli_main(["picard", "--config", cfg, "--horizon", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "reached t=0.5" in out


@pytest.mark.parametrize(
    "extra",
    [["--horizon", "nan"], ["--horizon", "0"], ["--horizon", "inf"], ["--tol", "nan"]],
    ids=" ".join,
)
def test_picard_bad_controls_exit_1(tmp_path, capsys, extra):
    cfg = write_cfg(tmp_path, "model=regularized\nmu=1.0\nalpha=0.5\nn=16\ninit=single:1,0\n")
    assert cli_main(["picard", "--config", cfg, *extra]) == 1
    captured = capsys.readouterr()
    assert "positive and finite" in captured.err
    assert captured.out == ""


# a shell datum whose Picard sweeps stall at round-off; cmt at n=32 reaches a fixed point bit for bit
STALLING = "model=regularized\nmu=1.0\nalpha=0.5\nn=32\ninit=random:10,2.5\nseed=3\n"


def test_picard_tol_below_roundoff_reported_not_converged(tmp_path, capsys):
    cfg = write_cfg(tmp_path, STALLING)
    assert cli_main(["picard", "--config", cfg, "--tol", "1e-300"]) == 0
    out = capsys.readouterr().out
    assert "converged = False" in out
    assert "converged in one sweep" not in out


def test_picard_horizon_counts_unconverged_segments(tmp_path, capsys):
    # a segment stalled at round-off above tol is chained and counted; at
    # n=16 and n=32 every cmt segment reaches a sweep distance of exactly 0
    cfg = write_cfg(tmp_path, STALLING)
    assert cli_main(["picard", "--config", cfg, "--tol", "1e-300", "--horizon", "0.1"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    segments, converged = re.fullmatch(r"reached t=0\.1 in (\d+) segments \((\d+) converged\)", line).groups()
    assert int(converged) < int(segments)


def test_norms_subcommand(tmp_path, capsys):
    grid = qglab.Grid(16)
    theta = qglab.single_mode(grid, 1, 0)
    path = str(tmp_path / "s.qgw")
    qglab.save_snapshot(qglab.Snapshot.from_state(0.0, theta, qglab.ModelParams("inviscid")), path)
    assert cli_main(["norms", "--snapshot", path, "--q", "2", "--s", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "4.442882938" in out  # |cos|_2 = pi sqrt(2)


def test_norms_prints_the_norms_of_the_library(tmp_path, capsys):
    # one stacked transform serves the Lebesgue norms and q_inf
    theta = qglab.from_init_string(qglab.Grid(32), "random:10,1.5", 2)
    path = str(tmp_path / "s.qgw")
    qglab.save_snapshot(qglab.Snapshot.from_state(0.0, theta, qglab.ModelParams("inviscid")), path)
    assert cli_main(["norms", "--snapshot", path]) == 0
    theta = qglab.load_snapshot(path).to_field()
    physical = qglab.inverse_transform(theta)
    lines = capsys.readouterr().out.splitlines()
    for q in (2.0, 3.0, 4.0, np.inf):
        assert f"|theta|_{q:g} = {qglab.lp_norm(physical, q):.12g}" in lines
    assert f"energy = {qglab.lp_norm(physical, 2.0) ** 2:.12g}" in lines
    u1, u2 = (qglab.inverse_transform(u).values for u in qglab.riesz_velocity(theta))
    q_inf = qglab.lp_norm(physical, np.inf) + float(np.max(np.hypot(u1, u2)))
    assert f"q_inf = {q_inf:.12g}" in lines


def test_norms_prints_the_record_of_the_state(tmp_path, capsys):
    # `qglab norms` and a run's records report one summary of a state
    theta = qglab.from_init_string(qglab.Grid(32), "random:10,1.5", 4)
    path = str(tmp_path / "s.qgw")
    qglab.save_snapshot(qglab.Snapshot.from_state(0.0, theta, qglab.ModelParams("inviscid")), path)
    assert cli_main(["norms", "--snapshot", path, "--s", "1", "--s", "2", "--sigma", "2"]) == 0
    theta = qglab.load_snapshot(path).to_field()
    record = qglab.diagnostics.make_record(theta, 0.0, qglab.ModelParams("inviscid"), s=2.0, sigma=2.0)
    expected = [f"|theta|_{q:g} = {value:.12g}" for q, value in record.lp.items()]
    expected += [f"||theta||_{s:g} = {value:.12g}" for s, value in record.hs.items()]
    expected += [f"energy = {record.energy:.12g}", f"q_inf = {record.q_inf:.12g}", f"ladder(sigma=2) = {record.ladder:.12g}"]
    assert capsys.readouterr().out.splitlines()[1:] == expected


@pytest.mark.parametrize("exponent", [520, -560])
def test_norms_past_the_double_range_of_the_squares(tmp_path, capsys, exponent):
    # the squared coefficients of the field times 2^520 overflow and those
    # of the field times 2^-560 underflow to 0: the H^s lines still scale
    # with the field, with no warning, and the energy prints as inf where
    # |theta|_2^2 itself leaves the double range
    a = 2.0**exponent
    theta = qglab.random_shell_field(qglab.Grid(32), 8, 1.5, 3)
    paths = [str(tmp_path / name) for name in ("one.qgw", "scaled.qgw")]
    for path, field in zip(paths, (theta, theta * a)):
        qglab.save_snapshot(qglab.Snapshot.from_state(0.0, field, qglab.ModelParams("inviscid")), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["norms", "--snapshot", paths[1]]) == 0
    lines = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()[1:])
    one = qglab.load_snapshot(paths[0]).to_field()
    for s in (1.0, 2.0):
        assert float(lines[f"||theta||_{s:g}"]) == pytest.approx(a * qglab.sobolev_norm(one, s), rel=1e-11, abs=0.0)
    assert (lines["energy"] == "inf") == (exponent > 0)


@pytest.mark.parametrize("sigma", ["1", "0.5"])
def test_norms_sigma_at_most_one_exits_1(tmp_path, capsys, sigma):
    path = str(tmp_path / "s.qgw")
    theta = qglab.single_mode(qglab.Grid(16), 1, 0)
    qglab.save_snapshot(qglab.Snapshot.from_state(0.0, theta, qglab.ModelParams("inviscid")), path)
    assert cli_main(["norms", "--snapshot", path, "--sigma", sigma]) == 1
    captured = capsys.readouterr()
    assert "sigma must exceed 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, value", [("--q", "nan"), ("--s", "nan"), ("--q", "0.5")], ids=["--q", "--s", "--q-0.5"]
)
def test_norms_nan_index_exits_1(tmp_path, capsys, flag, value):
    path = str(tmp_path / "s.qgw")
    theta = qglab.single_mode(qglab.Grid(16), 1, 0)
    qglab.save_snapshot(qglab.Snapshot.from_state(0.0, theta, qglab.ModelParams("inviscid")), path)
    assert cli_main(["norms", "--snapshot", path, flag, value]) == 1
    captured = capsys.readouterr()
    assert value in captured.err
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


def test_flux_single_mode_prints_positive_zero(capsys):
    # a plane wave carries no flux; its exactly zero integral prints as +0
    code = cli_main(["flux", "--init", "single:1,0", "--n", "32", "--eps", "0.25,0.125", "--no-remainder"])
    assert code == 0
    assert capsys.readouterr().out == (
        "eps = 0.25       profile = gaussian  |sigma|_1 = 0.71293  flux =  0.000000e+00\n"
        "eps = 0.125      profile = gaussian  |sigma|_1 = 0.191186  flux =  0.000000e+00\n"
        "fitted decay exponent: degenerate (flux at round-off floor)\n"
    )


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


@pytest.mark.parametrize("lemma, cap", [("gn", "0"), ("log", "0"), ("log", "-2")])
def test_check_inequality_mode_cap_below_one_exit_1(capsys, lemma, cap):
    argv = ["check-inequality", "--lemma", lemma, "--mode-cap", cap, "--trials", "2"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert "mode_cap must be >= 1" in captured.err
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


def test_readme_library_names_resolve():
    # the Quick start block never runs here, so check every qglab.<name> the README mentions
    names = set(re.findall(r"\bqglab\.([A-Za-z_]\w*)", README.read_text(encoding="utf-8")))
    assert {"Grid", "run", "cmt"} <= names
    assert sorted(n for n in names if not hasattr(qglab, n)) == []
