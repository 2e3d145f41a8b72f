"""Spectral transforms, norms and the dealiasing policy."""

import numpy as np
import pytest
import scipy.fft

import oracles
from spme import basis
from spme.basis import OperatorSpec, dirichlet_laplacian

TRANSFORM_SHAPES = [(1, 512), (512,), (2, 256), (500, 256)]


@pytest.fixture
def op():
    return OperatorSpec(n_modes=16, grid_size=128)


def test_eigenvalues(op):
    assert op.eigenvalue(1) == pytest.approx(np.pi**2)
    assert op.eigenvalue(16) == pytest.approx((16 * np.pi) ** 2)
    with pytest.raises(IndexError):
        op.eigenvalue(17)
    with pytest.raises(IndexError):
        op.eigenvalue(0)


def test_synth_analyze_roundtrip(op):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(16)
    back = op.analyze(op.synth(a))
    assert np.max(np.abs(back - a)) < 1e-10


def test_roundtrip_batched(op):
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 3, 16))
    back = op.analyze(op.synth(a))
    assert back.shape == a.shape
    assert np.max(np.abs(back - a)) < 1e-10


def test_synth_matches_direct_summation(op):
    rng = np.random.default_rng(9)
    a = rng.standard_normal(16)
    direct = sum(a[k - 1] * oracles.eigenfunction_values(op, k) for k in range(1, 17))
    assert np.max(np.abs(op.synth(a) - direct)) < 1e-12


def test_analyze_picks_out_eigenfunction(op):
    v = oracles.eigenfunction_values(op, 5)
    coeffs = op.analyze(v)
    expected = np.zeros(16)
    expected[4] = 1.0
    assert np.max(np.abs(coeffs - expected)) < 1e-12


@pytest.mark.parametrize("kind", [2, 3])
@pytest.mark.parametrize("shape", TRANSFORM_SHAPES)
def test_dst_kernel_is_scipy_fft_dst(shape, kind):
    # basis calls scipy's private pocketfft binding positionally, out of
    # place (analyze) and in place (synth); if a scipy release moves or
    # changes it, this fails before any artifact drifts
    x = np.random.default_rng(12).standard_normal(shape)
    want = scipy.fft.dst(x, type=kind, axis=-1)
    got = basis.dst(x, kind, (-1,), 0, None, 1, None)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    buf = x.copy()
    assert basis.dst(buf, kind, (-1,), 0, buf, 1, None) is buf
    assert buf.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", TRANSFORM_SHAPES)
def test_transforms_match_scipy_fft_expressions(shape):
    grid = shape[-1]
    spec = OperatorSpec(n_modes=grid // 8, grid_size=grid)
    rng = np.random.default_rng(13)
    a = rng.standard_normal(shape[:-1] + (spec.n_modes,))
    pad = np.zeros(shape)
    pad[..., : spec.n_modes] = a
    want = (np.sqrt(2.0) / 2.0) * scipy.fft.dst(pad, type=3, axis=-1)
    got = spec.synth(a)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    v = rng.standard_normal(shape)
    scaled = scipy.fft.dst(v, type=2, axis=-1) * (np.sqrt(2.0) / (2.0 * grid))
    want = scaled[..., : spec.n_modes]
    got = spec.analyze(v)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("B", [1, 2, 3, 5, 7, 130, 500])
def test_transforms_are_row_independent(B):
    # run_batch steps row shards of a batch on separate threads and joins
    # them; that gives the bytes of the whole batch only because no row's
    # transform depends on how many rows share the call
    spec = OperatorSpec(n_modes=32, grid_size=256)
    rng = np.random.default_rng(B)
    a = rng.standard_normal((B, spec.n_modes))
    v = rng.standard_normal((B, spec.grid_size))
    for fn, x in ((spec.synth, a), (spec.analyze, v)):
        whole = fn(x)
        for i in range(B):
            assert whole[i].tobytes() == fn(x[i]).tobytes()


def test_h_norm_examples(op):
    a = np.zeros(16)
    a[0] = 1.0
    assert op.h_norm(a) == pytest.approx(1.0 / np.pi)
    a[1] = 1.0
    assert op.h_norm(a) == pytest.approx(np.sqrt(5.0) / (2.0 * np.pi))


def test_l2_norm_parseval(op):
    rng = np.random.default_rng(10)
    a = rng.standard_normal(16)
    grid_l2 = oracles.lp_norm(op.synth(a), 2.0)
    assert grid_l2 == pytest.approx(op.l2_norm_spectral(a), rel=1e-12)


def test_lp_norm_quartic(op):
    a = np.zeros(16)
    a[0] = 1.0
    v = op.synth(a)
    assert oracles.lp_norm(v, 4.0) == pytest.approx(1.5**0.25, rel=1e-12)
    assert op.lp_power(v, 4.0) == pytest.approx(1.5, rel=1e-12)
    with pytest.raises(ValueError):
        oracles.lp_norm(v, 0.5)


def test_apply_l_inverse_identity(op):
    rng = np.random.default_rng(11)
    a = rng.standard_normal(16)
    back = oracles.inv_l_coeffs(op, oracles.apply_l_coeffs(op, a))
    assert np.max(np.abs(back - a)) < 1e-12


def test_dealiasing_policy(op):
    assert op.dealiasing_ok(3.0)  # 128 >= 2*4*16
    assert not op.dealiasing_ok(3.5)


def test_dirichlet_laplacian_default_grid():
    built = dirichlet_laplacian(16, r=3.0)
    assert built.grid_size == 128
    assert built.grid_size >= 2 * 4 * built.n_modes
    assert (built.grid_size & (built.grid_size - 1)) == 0


def test_constructor_validation():
    with pytest.raises(ValueError):
        OperatorSpec(n_modes=0, grid_size=16)
    with pytest.raises(ValueError):
        OperatorSpec(n_modes=32, grid_size=16)
    with pytest.raises(ValueError):
        OperatorSpec(n_modes=4, grid_size=16).analyze(np.zeros(8))
