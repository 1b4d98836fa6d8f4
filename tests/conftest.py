import numpy as np
import pytest

import qglab


@pytest.fixture(scope="session")
def grid16():
    return qglab.Grid(16)


@pytest.fixture(scope="session")
def grid32():
    return qglab.Grid(32)


@pytest.fixture(scope="session")
def grid64():
    return qglab.Grid(64)


def random_field(grid, kmax, gamma, seed):
    return qglab.random_shell_field(grid, kmax, gamma, np.random.default_rng(seed))


# Full-spectrum oracles.  The package stores the rfft2 half spectrum
# (columns k1 = 0..n/2); these rebuild the (n, n) layout, Nyquist stored as
# +n/2, so reference code can be written with complex transforms.


def full_spectrum(c):
    """The (..., n, n) spectrum of a (..., n, n/2 + 1) half spectrum, by c(-k) = conj(c(k))."""
    n = c.shape[-2]
    h = n // 2 + 1
    full = np.empty(c.shape[:-1] + (n,), dtype=np.complex128)
    full[..., :h] = c
    # column n - j holds conj(c(-k2, j)) for j = 1..n/2-1
    full[..., h:] = np.conj(np.roll(c[..., ::-1, h - 2 : 0 : -1], 1, axis=-2))
    return full


def full_wavenumbers(grid):
    """(k1, k2) per slot of the full (n, n) spectrum."""
    w = grid.wavenumbers
    return np.broadcast_to(w[None, :], (grid.n, grid.n)), np.broadcast_to(w[:, None], (grid.n, grid.n))


# Heavy reference runs shared between the acceptance suite and example tests.
# All three use the n=128 / dt=1e-3 / t_end=4 regime on the cmt datum.


@pytest.fixture(scope="session")
def cmt128():
    return qglab.cmt(qglab.Grid(128))


@pytest.fixture(scope="session")
def inviscid_cmt_run(cmt128):
    cfg = qglab.StepperConfig(dt=1e-3, t_end=4.0, scheme="rk4", diag_every=10)
    return qglab.run(cmt128, qglab.ModelParams("inviscid"), cfg)


@pytest.fixture(scope="session")
def dissipative_cmt_run(cmt128):
    p = qglab.ModelParams("dissipative", alpha=0.5, kappa=0.1)
    cfg = qglab.StepperConfig(dt=1e-3, t_end=4.0, scheme="etd-rk4", diag_every=10)
    return qglab.run(cmt128, p, cfg)


@pytest.fixture(scope="session")
def regularized_cmt_run(cmt128):
    p = qglab.ModelParams("regularized", alpha=0.5, mu=1.0)
    cfg = qglab.StepperConfig(dt=1e-3, t_end=4.0, scheme="rk4", diag_every=10)
    return qglab.run(cmt128, p, cfg)
