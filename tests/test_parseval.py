"""Sums over the stored half spectrum against full-spectrum oracles.

The fields are forward transforms of standard-normal samples, so the
Nyquist lines carry content.  Each oracle sums over all n x n wavenumbers
of the complex `fft2` spectrum, independently of `Grid.parseval_weights`.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglab import (
    Grid,
    ModelParams,
    PhysicalField,
    Snapshot,
    dealias,
    forward_transform,
    inverse_transform,
    load_snapshot,
    save_snapshot,
    sobolev_norm,
)
from qglab.diagnostics import make_record
from qglab.stepping import _sup_hs_distance

from conftest import full_wavenumbers

EVEN_N = st.integers(4, 48).map(lambda half: 2 * half)
SEEDS = st.integers(0, 2**32 - 1)
REL = 1e-13


def _samples(n, seed, count):
    return np.random.default_rng(seed).standard_normal((count, n, n))


def _half(grid, values):
    return forward_transform(PhysicalField(grid, values))


def _full(values):
    n = values.shape[-1]
    return np.fft.fft2(values) / (n * n)


def _hs_weights(grid, s):
    """|k|^(2s) on the full spectrum with the mean excluded."""
    k1, k2 = full_wavenumbers(grid)
    kabs = np.hypot(k1, k2)
    kabs[0, 0] = 1.0
    w = kabs ** (2.0 * s)
    w[0, 0] = 0.0
    return w


def _sobolev_oracle(grid, c, s):
    c2 = np.abs(c) ** 2
    total = np.sum(c2) if s == 0.0 else np.sum(_hs_weights(grid, s) * c2)
    return 2.0 * np.pi * np.sqrt(total)


@settings(max_examples=30, deadline=None)
@given(n=EVEN_N, seed=SEEDS)
def test_sobolev_norm_matches_full_spectrum(n, seed):
    grid = Grid(n)
    values = _samples(n, seed, 1)[0]
    f = _half(grid, values)
    for s in (0.0, 0.5, 1.0, 2.0):
        assert sobolev_norm(f, s) == pytest.approx(_sobolev_oracle(grid, _full(values), s), rel=REL, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(n=EVEN_N, seed=SEEDS)
def test_forcing_power_matches_full_spectrum(n, seed):
    grid = Grid(n)
    forcing_values, noise = _samples(n, seed, 2)
    theta_values = forcing_values + noise  # correlated with the forcing: the power is far from 0
    # the forcing lies inside the 2/3 band; theta keeps its Nyquist content
    p = ModelParams("dissipative", kappa=0.1, forcing=dealias(_half(grid, forcing_values)))
    record = make_record(_half(grid, theta_values), 0.0, p)
    k1, k2 = full_wavenumbers(grid)
    band = (np.abs(k1) <= n / 3.0) & (np.abs(k2) <= n / 3.0)
    inner = np.sum(_full(theta_values) * np.conj(band * _full(forcing_values))).real
    oracle = 2.0 * (2.0 * np.pi) ** 2 * inner
    assert record.forcing_power == pytest.approx(oracle, rel=REL, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(n=EVEN_N, seed=SEEDS, s=st.sampled_from([0.5, 1.0, 2.0]))
def test_sup_hs_distance_matches_full_spectrum(n, seed, s):
    grid = Grid(n)
    a_values, b_values = _samples(n, seed, 6).reshape(2, 3, n, n)
    a = np.stack([_half(grid, v).coeffs for v in a_values])
    b = np.stack([_half(grid, v).coeffs for v in b_values])
    d2 = np.abs(_full(a_values) - _full(b_values)) ** 2
    oracle = 2.0 * np.pi * np.sqrt(np.max(np.sum(d2 * _hs_weights(grid, s), axis=(1, 2))))
    assert _sup_hs_distance(grid, a, b, s) == pytest.approx(oracle, rel=REL, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(n=EVEN_N, seed=SEEDS)
def test_snapshot_round_trip(n, seed):
    grid = Grid(n)
    theta = _half(grid, _samples(n, seed, 1)[0])
    snap = Snapshot.from_state(0.25, theta, ModelParams("inviscid"))
    assert np.array_equal(snap.values, inverse_transform(theta).values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.qgw")
        save_snapshot(snap, path)
        back = load_snapshot(path)
    assert back.values.tobytes() == snap.values.tobytes()
    assert np.max(np.abs(back.to_field().coeffs - theta.coeffs)) <= 1e-14
