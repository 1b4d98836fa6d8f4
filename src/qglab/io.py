"""Configuration files, bit-exact snapshots and CSV time series.

Config grammar: line-oriented ``key=value`` text with ``#`` comments and
no nesting.  Snapshots use a fixed little-endian binary layout (magic
"QGW1"); series files are CSV with floats printed to 17 significant
digits so a reload reproduces the exact doubles.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import CorruptSnapshot, ParseError, ValidationError
from .models import MODEL_CODES, MODEL_NAMES, ModelParams
from .presets import from_init_string
from .spectral import Grid, PhysicalField, SpectralField, forward_transform, inverse_transform
from .stepping import StepperConfig

CSV_HEADER = "t,l2,l3,l4,linf,hs,h1,energy,mod_energy,diss_integral,balance_residual,q_inf,ladder"

SNAPSHOT_MAGIC = b"QGW1"
SNAPSHOT_VERSION = 1
_HEADER_FMT = "<4sIIddddB7x"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)  # 52 bytes


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """Flat key=value run description; every field has a default."""

    model: str = "inviscid"
    alpha: float = 0.5
    kappa: float = 0.0
    mu: float = 0.0
    n: int = 64
    dt: float = 1e-3
    t_end: float = 1.0
    scheme: str = "etd-rk4"
    init: str = "cmt"
    seed: int = 0
    diag_every: int = 10
    snapshot_every: int = 0
    output_dir: str = "qglab-out"
    sigma: float = 2.0
    s: float = 2.0

    def validate(self):
        if self.n % 2 != 0 or self.n < 8:
            raise ValidationError(f"n must be even and >= 8, got {self.n}")
        self.model_params()  # model-specific invariants
        self.stepper_config()  # dt, t_end, scheme, sigma and sampling invariants
        return self

    def grid(self) -> Grid:
        return Grid(self.n)

    def model_params(self) -> ModelParams:
        return ModelParams(
            model=self.model,
            alpha=self.alpha,
            kappa=self.kappa,
            mu=self.mu,
        )

    def stepper_config(self) -> StepperConfig:
        return StepperConfig(
            dt=self.dt,
            t_end=self.t_end,
            scheme=self.scheme,
            diag_every=self.diag_every,
            snapshot_every=self.snapshot_every,
            s=self.s,
            sigma=self.sigma,
        )

    def initial_field(self) -> SpectralField:
        """Resolve `init` as a preset name or a snapshot path."""
        if self.init == "cmt" or self.init.startswith(("single:", "random:")):
            return from_init_string(self.grid(), self.init, self.seed)
        if os.path.exists(self.init):
            snap = load_snapshot(self.init)
            if snap.n != self.n:
                raise ValidationError(
                    f"snapshot grid n={snap.n} does not match configured n={self.n}"
                )
            return snap.to_field()
        raise ValidationError(f"init {self.init!r} is neither a preset nor an existing file")


_CASTERS = {
    str: lambda v: v,
    float: float,
    int: int,
}


def load_config(path: str) -> RunConfig:
    """Parse and validate a key=value config file.

    Bytes that are not UTF-8, unknown keys, duplicate keys and uncastable
    values are ParseErrors with the offending line number; cross-field
    invariants raise ValidationError.
    """
    cfg = RunConfig()
    types = {f.name: type(getattr(cfg, f.name)) for f in fields(RunConfig)}
    seen = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            # surrogateescape decodes each byte that is not UTF-8 to U+DC80..U+DCFF
            if any("\udc80" <= ch <= "\udcff" for ch in raw):
                raise ParseError(line_no, "not UTF-8 text")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(line_no, f"expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ParseError(line_no, f"unknown key {key!r}")
            if key in seen:
                raise ParseError(line_no, f"duplicate key {key!r} (first on line {seen[key]})")
            seen[key] = line_no
            try:
                setattr(cfg, key, _CASTERS[types[key]](value))
            except ValueError as exc:
                raise ParseError(line_no, f"bad value for {key!r}: {exc}")
    return cfg.validate()


# ---------------------------------------------------------------------------
# snapshots


@dataclass
class Snapshot:
    """On-disk state: grid size, time, parameters and physical values."""

    n: int
    t: float
    alpha: float
    kappa: float
    mu: float
    model: str
    values: np.ndarray  # (n, n) float64, x2 index slow

    @classmethod
    def from_state(cls, t: float, theta: SpectralField, p: ModelParams) -> "Snapshot":
        return cls(
            n=theta.grid.n,
            t=t,
            alpha=p.alpha,
            kappa=p.kappa,
            mu=p.mu,
            model=p.model,
            values=inverse_transform(theta).values,
        )

    def to_field(self) -> SpectralField:
        return forward_transform(PhysicalField(Grid(self.n), self.values))


def save_snapshot(snap: Snapshot, path: str):
    """Write the fixed binary layout; load(save(x)) is bit-identical."""
    values = np.ascontiguousarray(snap.values, dtype="<f8")
    if values.shape != (snap.n, snap.n):
        raise ValidationError(f"snapshot values must be ({snap.n}, {snap.n})")
    header = struct.pack(
        _HEADER_FMT,
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        snap.n,
        snap.t,
        snap.alpha,
        snap.kappa,
        snap.mu,
        MODEL_CODES[snap.model],
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.tobytes())


def load_snapshot(path: str) -> Snapshot:
    """Read and structurally validate a snapshot file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER_SIZE:
        raise CorruptSnapshot("length", f"file has {len(blob)} bytes, header needs {_HEADER_SIZE}")
    magic, version, n, t, alpha, kappa, mu, model_code = struct.unpack_from(_HEADER_FMT, blob)
    if magic != SNAPSHOT_MAGIC:
        raise CorruptSnapshot("magic", f"got {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise CorruptSnapshot("version", f"got {version}")
    expected = _HEADER_SIZE + 8 * n * n
    if len(blob) != expected:
        raise CorruptSnapshot("length", f"expected {expected} bytes, got {len(blob)}")
    if model_code not in MODEL_NAMES:
        raise CorruptSnapshot("model", f"unknown code {model_code}")
    values = np.frombuffer(blob, dtype="<f8", offset=_HEADER_SIZE).reshape(n, n).copy()
    return Snapshot(
        n=n, t=t, alpha=alpha, kappa=kappa, mu=mu, model=MODEL_NAMES[model_code], values=values
    )


# ---------------------------------------------------------------------------
# time series


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_series(path: str, records, s: float):
    """Write NormRecords as CSV; `s` selects the hs column's Sobolev index."""
    if not records:
        raise ValueError("refusing to write an empty series")
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.t,
                    r.lp[2.0],
                    r.lp[3.0],
                    r.lp[4.0],
                    r.lp[np.inf],
                    r.hs[s],
                    r.hs[1.0],
                    r.energy,
                    r.mod_energy,
                    r.diss_integral,
                    r.balance_residual,
                    r.q_inf,
                    r.ladder,
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_series(path: str) -> dict[str, np.ndarray]:
    """Load a series CSV back into column arrays keyed by header name."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}
