"""Noise profiles, trace computation and reproducible streams."""

import numpy as np
import pytest
import scipy.special

from spme.basis import OperatorSpec
from spme.noise import (
    NoiseSpec,
    NoiseStream,
    _hurwitz_zeta,
    sample_increment_block,
    trace,
)

# above about a = 1.3e13 scipy's zeta (cephes) overflows its remainder
# product into inf * 0 and returns NaN; the exact value there is 0.0
NAN_BAND = [2e13, 1e15, 1e20, 1e300, 1e308]


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


def test_hurwitz_zeta_is_scipy_zeta_bit_for_bit():
    rng = np.random.default_rng(3)
    a_grid = np.concatenate([
        np.linspace(0.0, 6.0, 121),
        rng.uniform(0.0, 50.0, 40),
        10.0 ** np.linspace(-3.0, 13.0, 49),
        [0.5, 1.0, 2.5, 299.5, 300.0, 1e13],
    ])
    n_grid = np.unique(np.concatenate([np.arange(1, 41), np.geomspace(41, 4096, 30).astype(int)]))
    x = 2 * a_grid[:, None] + 2
    q = n_grid[None, :] + 1.0
    want = scipy.special.zeta(x, q)
    assert np.all(np.isfinite(want))
    got = np.array([[_hurwitz_zeta(float(xi), float(qj)) for qj in q[0]] for xi in x[:, 0]])
    assert got.tobytes() == want.tobytes()
    for xi in (2.0, 2.5, 4.0, 7.3):  # the q > 1e8 asymptotic branch
        assert _hurwitz_zeta(xi, 2.5e8) == scipy.special.zeta(xi, 2.5e8)


@pytest.mark.parametrize("a", NAN_BAND)
def test_hurwitz_zeta_returns_zero_where_scipy_gives_nan(a):
    for n in (1, 8, 4096):
        assert np.isnan(scipy.special.zeta(2 * a + 2, n + 1))
        assert _hurwitz_zeta(2 * a + 2, n + 1.0) == 0.0


def test_trace_at_huge_decay_exponent_is_the_head_sum(op):
    # only q_1 = c is nonzero, so the trace is c^2/pi^2, not NaN
    spec = NoiseSpec(profile="diagonal_power", c=0.2, a=1e15)
    head = float(np.sum(spec.q_vector(op.n_modes) ** 2 / op.eigenvalues))
    assert trace(spec, op) == head == 0.2**2 / np.pi**2


@pytest.mark.parametrize("profile, c, a, n_modes", [
    ("zero", 0.0, 0.0, 64),  # decay
    ("diagonal_power", 0.2, 1.0, 32),  # couple
    ("diagonal_power", 0.03, 1.0, 32),  # mixing
])
def test_trace_bytes_at_benchmark_configs(profile, c, a, n_modes):
    spec = NoiseSpec(profile=profile, c=c, a=a)
    big = OperatorSpec(n_modes=n_modes, grid_size=8 * n_modes)
    want = float(np.sum(spec.q_vector(n_modes) ** 2 / big.eigenvalues))
    if c > 0:
        want += c**2 / np.pi**2 * float(scipy.special.zeta(2 * a + 2, n_modes + 1))
    assert trace(spec, big).hex() == want.hex()


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


@pytest.mark.parametrize("seed", [0, 7, 2**62, 2**63 - 1, 2**63, 2**64 - 2])
def test_neighbouring_seeds_draw_different_noise(seed):
    # keyed from a Python list, seeds of 2**63 and up became float64: seed
    # and seed + 1 drew the same noise, and near 2**64 NumPy warned
    a, b = (NoiseStream(NoiseSpec(master_seed=s), stream_id=1).normals(4) for s in (seed, seed + 1))
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 13, 12345, 2**62, 2**63 - 1])
def test_stream_keys_below_2_63_are_unchanged(seed):
    for stream_id in (0, 1, 499):
        want = np.random.Generator(np.random.Philox(key=[seed, stream_id])).standard_normal(8)
        got = NoiseStream(NoiseSpec(master_seed=seed), stream_id).normals(8)
        assert got.tobytes() == want.tobytes()


def test_increment_block_is_q_times_scaled_normals():
    # filled in place, each entry keeps the two roundings of q * (xi * sqrt(dt))
    spec = NoiseSpec(profile="diagonal_power", c=0.03, a=1.0, master_seed=5)
    n, dt, q = 32, 1e-4, spec.q_vector(32)
    buf = np.full((2, 256, n), np.nan)
    for j in range(2):
        out = buf[j, :144]
        assert sample_increment_block(spec, n, dt, NoiseStream(spec, stream_id=j), out) is out
        xi = NoiseStream(spec, stream_id=j).normals((144, n))
        assert buf[j, :144].tobytes() == (q * (xi * np.sqrt(dt))).tobytes()
        assert np.isnan(buf[j, 144:]).all()
    # 256 rows and then 144 rows from one stream are one 400-row draw
    stream = NoiseStream(spec, stream_id=3)
    head = sample_increment_block(spec, n, dt, stream, np.empty((256, n)))
    tail = sample_increment_block(spec, n, dt, stream, np.empty((144, n)))
    whole = sample_increment_block(spec, n, dt, NoiseStream(spec, stream_id=3), np.empty((400, n)))
    assert np.concatenate([head, tail]).tobytes() == whole.tobytes()


def test_increment_statistics():
    spec = NoiseSpec(profile="diagonal_power", c=0.5, a=1.0, master_seed=1)
    stream = NoiseStream(spec)
    n, dt, samples = 4, 0.01, 100_000
    inc = sample_increment_block(spec, n, dt, stream, np.empty((samples, n)))
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
        sample_increment_block(spec, 4, -0.1, NoiseStream(spec), np.empty((1, 4)))
