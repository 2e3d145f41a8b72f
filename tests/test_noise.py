"""Noise profiles, trace computation and reproducible streams."""

import numpy as np
import pytest

from spme.basis import OperatorSpec
from spme.noise import (
    NoiseSpec,
    NoiseStream,
    sample_increment_block,
    trace,
)


@pytest.fixture
def op():
    return OperatorSpec(n_modes=8, grid_size=64)


def test_q_vector_profiles():
    spec = NoiseSpec(profile="diagonal_power", c=0.5, a=2.0)
    q = spec.q_vector(4)
    assert np.allclose(q, 0.5 / np.array([1.0, 4.0, 9.0, 16.0]))
    spec = NoiseSpec(profile="explicit_diagonal", q=[1.0, 2.0])
    assert np.allclose(spec.q_vector(4), [1.0, 2.0, 0.0, 0.0])


def test_is_zero():
    assert NoiseSpec(profile="zero").is_zero
    assert NoiseSpec(profile="diagonal_power", c=0.0, a=1.0).is_zero
    assert not NoiseSpec(profile="diagonal_power", c=0.1, a=1.0).is_zero


def test_trace_tail_completion(op):
    spec = NoiseSpec(profile="diagonal_power", c=1.0, a=1.0)
    assert trace(spec, op) == pytest.approx(np.pi**2 / 90.0, abs=1e-9)
    # independent of truncation level once the tail is completed
    big = OperatorSpec(n_modes=64, grid_size=256)
    assert trace(spec, op) == pytest.approx(trace(spec, big), abs=1e-12)


def test_trace_explicit_diagonal(op):
    spec = NoiseSpec(profile="explicit_diagonal", q=[1.0, 1.0])
    expected = 1.0 / np.pi**2 + 1.0 / (2 * np.pi) ** 2
    assert trace(spec, op) == pytest.approx(expected, rel=1e-14)


def test_stream_reproducibility():
    spec = NoiseSpec(profile="diagonal_power", c=1.0, a=1.0, master_seed=42)
    a = NoiseStream(spec, stream_id=3).normals(10)
    b = NoiseStream(spec, stream_id=3).normals(10)
    c = NoiseStream(spec, stream_id=4).normals(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_increment_statistics():
    spec = NoiseSpec(profile="diagonal_power", c=0.5, a=1.0, master_seed=1)
    stream = NoiseStream(spec)
    n, dt, samples = 4, 0.01, 100_000
    inc = sample_increment_block(spec, n, dt, stream, samples)
    q = spec.q_vector(n)
    se_mean = q * np.sqrt(dt) / np.sqrt(samples)
    assert np.all(np.abs(inc.mean(axis=0)) < 4 * se_mean)
    var = np.var(inc / np.sqrt(dt), axis=0, ddof=1)
    se_var = q**2 * np.sqrt(2.0 / (samples - 1))
    assert np.all(np.abs(var - q**2) < 4 * se_var)


def test_validation():
    with pytest.raises(ValueError):
        NoiseSpec(profile="white")
    with pytest.raises(ValueError):
        NoiseSpec(profile="diagonal_power", c=-1.0, a=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(profile="explicit_diagonal", q=[[1.0]])
    spec = NoiseSpec(profile="zero")
    with pytest.raises(ValueError):
        sample_increment_block(spec, 4, -0.1, NoiseStream(spec), 1)
