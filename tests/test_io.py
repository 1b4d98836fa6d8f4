import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qglab
from qglab import ModelParams, Snapshot, load_config, load_snapshot, save_snapshot, write_series
from qglab.errors import CorruptSnapshot, ParseError, ValidationError
from qglab.io import _HEADER_FMT, _HEADER_SIZE, read_series
from qglab.stepping import run

from conftest import random_field


# -- config --------------------------------------------------------------------


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_config_minimal_with_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "model=inviscid\nn=128\ndt=0.001\nt_end=1\n"))
    assert cfg.model == "inviscid"
    assert cfg.n == 128
    assert cfg.dt == pytest.approx(1e-3)
    assert cfg.scheme == "etd-rk4"  # defaulted
    assert cfg.init == "cmt"


def test_config_comments_and_whitespace(tmp_path):
    text = "# a run\nmodel = dissipative   # with kappa\nkappa = 0.1\nn=32\ndt=0.01\nt_end=0.1\n\n"
    cfg = load_config(write(tmp_path, text))
    assert cfg.model == "dissipative"
    assert cfg.kappa == pytest.approx(0.1)


def test_config_rejects_regularized_small_alpha(tmp_path):
    path = write(tmp_path, "model=regularized\nmu=1.0\nalpha=0.4\n")
    with pytest.raises(ValidationError):
        load_config(path)


def test_config_duplicate_key(tmp_path):
    path = write(tmp_path, "n=32\nn=64\n")
    with pytest.raises(ParseError) as info:
        load_config(path)
    assert info.value.line_no == 2


def test_config_unknown_key(tmp_path):
    with pytest.raises(ParseError):
        load_config(write(tmp_path, "resolution=32\n"))


def test_config_bad_value(tmp_path):
    with pytest.raises(ParseError):
        load_config(write(tmp_path, "dt=fast\n"))
    with pytest.raises(ParseError):
        load_config(write(tmp_path, "dealias=maybe\n"))


def _negative_power_on_mean(tmp_path):
    qglab.sobolev_norm(qglab.SpectralField(qglab.Grid(8), np.ones((8, 5), dtype=complex)), -0.5)


def _corrupt_snapshot(tmp_path):
    path = tmp_path / "s.qgw"
    path.write_bytes(b"QGW1")
    load_snapshot(str(path))


@pytest.mark.parametrize(
    "call, error",
    [
        (_negative_power_on_mean, qglab.NegativePowerOnMean),
        (lambda tmp_path: load_config(write(tmp_path, "n=32\nn=64\n")), ParseError),
        (_corrupt_snapshot, CorruptSnapshot),
    ],
    ids=["NegativePowerOnMean", "ParseError", "CorruptSnapshot"],
)
def test_typed_input_errors_are_value_errors(tmp_path, call, error):
    # each keeps its own type, and is a ValidationError and so a ValueError
    with pytest.raises(ValueError) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert isinstance(info.value, ValidationError)


def test_config_missing_model_invariants(tmp_path):
    with pytest.raises(ValidationError):
        load_config(write(tmp_path, "model=dissipative\n"))  # kappa defaults to 0


@pytest.mark.parametrize(
    "text",
    [
        "dt=nan\n",
        "t_end=inf\n",
        "model=dissipative\nkappa=inf\n",
        "model=regularized\nmu=nan\n",
        "sigma=nan\n",
        "sigma=1\n",
        "dt=0.3\nt_end=1.0\n",  # not a whole number of steps
        "scheme=euler\n",
        "diag_every=0\n",
        "dt=1e-320\n",  # t_end / dt overflows
    ],
)
def test_config_rejects_invalid_values(tmp_path, text):
    with pytest.raises(ValidationError):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("text", ["c0=nan\n", "c0=1e999\n", "m=inf\n", "mollifier=gaussian\n", "dealias=true\n"])
def test_config_retired_keys_are_unknown(tmp_path, text):
    with pytest.raises(ParseError, match="unknown key") as info:
        load_config(write(tmp_path, "n=32\n" + text))
    assert info.value.line_no == 2


def test_config_non_utf8_is_parse_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"model=inviscid\n# caf\xe9\nn=32\n")
    with pytest.raises(ParseError) as info:
        load_config(str(path))
    assert info.value.line_no == 2


_KEYS = ["model", "alpha", "kappa", "mu", "n", "dt", "t_end", "scheme", "dealias", "init", "seed",
         "diag_every", "snapshot_every", "sigma", "s", "c0", "m", "mollifier", "bogus", ""]
_VALUES = st.one_of(
    st.sampled_from(["inviscid", "dissipative", "regularized", "rk4", "etd-rk4", "gaussian", "yes",
                     "nan", "inf", "-inf", "1e999", "1e-320", "0", "-1", "0.5", "32", "1_000", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.text(max_size=12),
)
_LINES = st.lists(
    st.one_of(st.tuples(st.sampled_from(_KEYS), _VALUES).map(lambda kv: f"{kv[0]}={kv[1]}"),
              st.text(max_size=20)),
    max_size=8,
).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass"))


@settings(max_examples=150, deadline=None)
@given(blob=st.one_of(_LINES, st.binary(max_size=64)))
def test_config_fuzz_raises_only_typed_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "run.cfg"
    path.write_bytes(blob)
    try:
        load_config(str(path))
    except (ParseError, ValidationError):
        pass


def test_config_initial_field_presets(tmp_path):
    cfg = load_config(write(tmp_path, "model=inviscid\nn=16\ninit=single:1,0\n"))
    theta = cfg.initial_field()
    assert abs(theta.coeffs[0, 1] - 0.5) < 1e-15
    cfg = load_config(write(tmp_path, "model=inviscid\nn=16\ninit=random:5,2.0\nseed=9\n"))
    a = cfg.initial_field()
    b = cfg.initial_field()
    assert np.array_equal(a.coeffs, b.coeffs)  # seeded, deterministic


def test_config_init_snapshot_roundtrip(tmp_path):
    grid = qglab.Grid(16)
    theta = qglab.single_mode(grid, 1, 1)
    p = ModelParams("inviscid")
    snap_path = str(tmp_path / "state.qgw")
    save_snapshot(Snapshot.from_state(0.5, theta, p), snap_path)
    cfg = load_config(write(tmp_path, f"model=inviscid\nn=16\ninit={snap_path}\n"))
    theta2 = cfg.initial_field()
    assert np.max(np.abs(theta2.coeffs - theta.coeffs)) < 1e-14


# -- snapshots -------------------------------------------------------------------


def test_snapshot_roundtrip_bits(tmp_path):
    rng = np.random.default_rng(0)
    path = str(tmp_path / "s.qgw")
    for model, kappa, mu in (("inviscid", 0.0, 0.0), ("dissipative", 0.3, 0.0), ("regularized", 0.0, 2.0)):
        snap = Snapshot(
            n=16,
            t=rng.uniform(0, 10),
            alpha=rng.uniform(0.5, 1.0),
            kappa=kappa,
            mu=mu,
            model=model,
            values=rng.standard_normal((16, 16)),
        )
        save_snapshot(snap, path)
        back = load_snapshot(path)
        assert back.values.tobytes() == snap.values.astype("<f8").tobytes()
        assert (back.n, back.t, back.alpha, back.kappa, back.mu, back.model) == (
            snap.n,
            snap.t,
            snap.alpha,
            snap.kappa,
            snap.mu,
            snap.model,
        )


def test_snapshot_file_layout(tmp_path):
    path = str(tmp_path / "s.qgw")
    snap = Snapshot(n=8, t=1.0, alpha=0.5, kappa=0.0, mu=0.0, model="inviscid", values=np.zeros((8, 8)))
    save_snapshot(snap, path)
    blob = Path(path).read_bytes()
    assert len(blob) == _HEADER_SIZE + 8 * 8 * 8
    assert blob[:4] == b"QGW1"


def test_snapshot_corrupt_magic(tmp_path):
    path = str(tmp_path / "s.qgw")
    snap = Snapshot(n=8, t=0.0, alpha=0.5, kappa=0.0, mu=0.0, model="inviscid", values=np.zeros((8, 8)))
    save_snapshot(snap, path)
    blob = bytearray(Path(path).read_bytes())
    blob[:4] = b"QGW9"
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(CorruptSnapshot) as info:
        load_snapshot(path)
    assert info.value.check == "magic"


def test_snapshot_truncated(tmp_path):
    path = str(tmp_path / "s.qgw")
    snap = Snapshot(n=8, t=0.0, alpha=0.5, kappa=0.0, mu=0.0, model="inviscid", values=np.zeros((8, 8)))
    save_snapshot(snap, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-9])
    with pytest.raises(CorruptSnapshot) as info:
        load_snapshot(path)
    assert info.value.check == "length"


def test_snapshot_bad_model_byte(tmp_path):
    path = str(tmp_path / "s.qgw")
    snap = Snapshot(n=8, t=0.0, alpha=0.5, kappa=0.0, mu=0.0, model="inviscid", values=np.zeros((8, 8)))
    save_snapshot(snap, path)
    blob = bytearray(Path(path).read_bytes())
    blob[44] = 7  # model byte, after 4+4+4+32 header bytes
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(CorruptSnapshot) as info:
        load_snapshot(path)
    assert info.value.check == "model"


@pytest.mark.parametrize("n", [7, 0, 2])
def test_save_snapshot_rejects_bad_grid_size(tmp_path, n):
    path = tmp_path / "s.qgw"
    snap = Snapshot(n=n, t=0.0, alpha=0.5, kappa=0.0, mu=0.0, model="inviscid", values=np.zeros((n, n)))
    with pytest.raises(ValidationError):
        save_snapshot(snap, str(path))
    assert not path.exists()


@pytest.mark.parametrize("n", [7, 0, 2])
def test_load_snapshot_rejects_bad_grid_size(tmp_path, n):
    # a well-formed file in every other respect, with the payload its header announces
    path = tmp_path / "s.qgw"
    header = struct.pack(_HEADER_FMT, b"QGW1", 1, n, 0.0, 0.5, 0.0, 0.0, 0)
    path.write_bytes(header + np.zeros((n, n), dtype="<f8").tobytes())
    with pytest.raises(CorruptSnapshot) as info:
        load_snapshot(str(path))
    assert info.value.check == "n"


_HEADER = {"t": 0.0, "alpha": 0.5, "kappa": 0.0, "mu": 0.0}


@pytest.mark.parametrize("field, value", [
    ("t", float("nan")), ("t", float("inf")), ("alpha", float("inf")), ("alpha", 1.5),
    ("alpha", -0.5), ("kappa", -1.0), ("kappa", float("nan")), ("mu", float("nan")), ("mu", -2.0),
])
def test_snapshot_header_rule_on_save_and_load(tmp_path, field, value):
    # one header rule: save refuses what load calls corrupt, field by field
    header = {**_HEADER, field: value}
    path = tmp_path / "s.qgw"
    with pytest.raises(ValidationError, match=f"snapshot {field} must"):
        save_snapshot(Snapshot(n=8, model="inviscid", values=np.zeros((8, 8)), **header), str(path))
    assert not path.exists()
    packed = struct.pack(_HEADER_FMT, b"QGW1", 1, 8, *header.values(), 0)
    path.write_bytes(packed + np.zeros((8, 8), dtype="<f8").tobytes())
    with pytest.raises(CorruptSnapshot) as info:
        load_snapshot(str(path))
    assert info.value.check == field


# -- CSV series -----------------------------------------------------------------


def _small_run(grid32):
    p = ModelParams("dissipative", alpha=0.5, kappa=0.1)
    cfg = qglab.StepperConfig(dt=1e-2, t_end=0.2, diag_every=5)
    return run(random_field(grid32, 8, 2.0, 3), p, cfg)


def test_write_series_and_read_back(tmp_path, grid32):
    res = _small_run(grid32)
    path = str(tmp_path / "series.csv")
    write_series(path, res.records, s=2.0)
    cols = read_series(path)
    assert len(cols["t"]) == len(res.records)
    # 17 significant digits round-trip the doubles exactly
    for i, r in enumerate(res.records):
        assert cols["l2"][i] == r.lp[2.0]
        assert cols["hs"][i] == r.hs[2.0]
        assert cols["diss_integral"][i] == r.diss_integral
        assert cols["ladder"][i] == r.ladder


def test_write_series_single_record(tmp_path, grid32):
    res = _small_run(grid32)
    path = str(tmp_path / "one.csv")
    write_series(path, res.records[:1], s=2.0)
    lines = Path(path).read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("t,l2,l3,l4,linf,hs,h1,")


def test_write_series_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        write_series(str(tmp_path / "empty.csv"), [], s=2.0)
    assert not (tmp_path / "empty.csv").exists()
