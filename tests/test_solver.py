"""Time stepping: drift values, schemes, dissipation, coupling, blow-up."""

import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from spme import solver
from spme.basis import OperatorSpec
from spme.bounds import BoundParams, contraction_bound
from spme.cli import main
from spme.config import ConfigError, build_sim, parse_config
from spme.model import AssumptionError, Nonlinearity, certify_constants
from spme.noise import NoiseSpec, NoiseStream, trace
from spme.solver import (
    SimConfig,
    coupled_simulate,
    drift,
    initial_coeffs,
    nonfinite_rows,
    run_batch,
    simulate,
    step,
)

CUBIC = Nonlinearity(r=3.0, psi_kind="odd_power")
LINEAR = Nonlinearity(r=3.0, psi_kind="linear_plus_odd_power", alpha=1.0, gamma=0.0)
QUIET = NoiseSpec(profile="zero")


def make_config(**kw):
    kw.setdefault("operator", OperatorSpec(n_modes=16, grid_size=128))
    kw.setdefault("model", CUBIC)
    kw.setdefault("noise", QUIET)
    kw.setdefault("dt", 1e-4)
    kw.setdefault("t_end", 0.1)
    return SimConfig(**kw)


def test_drift_test_vector():
    op = OperatorSpec(n_modes=16, grid_size=512)
    a = np.zeros(16)
    a[0] = 1.0
    b, _ = drift(a, CUBIC, op)
    expected = np.zeros(16)
    expected[0] = -3.0 * np.pi**2 / 2.0
    expected[2] = 9.0 * np.pi**2 / 2.0
    assert np.max(np.abs(b - expected)) < 1e-8


def test_explicit_linear_step():
    op = OperatorSpec(n_modes=4, grid_size=64)
    a = np.zeros(4)
    a[0] = 1.0
    new, unstable = step(a, 0.001, 0.0, "explicit_em", LINEAR, op)
    assert new[0] == pytest.approx(1.0 - np.pi**2 * 0.001, rel=1e-12)
    assert unstable  # dt = 1e-3 exceeds the guard 0.1 / (lambda_4 * (1 + 1))


def test_tamed_vs_explicit_second_order_agreement():
    # on a linear problem the taming correction is O(dt^2) per step
    op = OperatorSpec(n_modes=4, grid_size=64)
    a = np.zeros(4)
    a[0] = 1.0
    diffs = []
    for dt in (1e-3, 5e-4):
        ex, _ = step(a.copy(), dt, 0.0, "explicit_em", LINEAR, op)
        tm, _ = step(a.copy(), dt, 0.0, "tamed_em", LINEAR, op)
        diffs.append(np.max(np.abs(ex - tm)))
    assert diffs[0] < 1e-3
    assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.1)


def test_h_norm_strictly_decreasing_quiet_cubic():
    cfg = make_config(t_end=0.5, record_every=50, gate_override=True)
    rec = simulate(cfg)
    assert not rec.blown_up
    assert np.all(np.diff(rec.h_norms[:, 0]) < 0.0)


def test_linear_heat_decay():
    op = OperatorSpec(n_modes=4, grid_size=64)
    cfg = make_config(
        operator=op, model=LINEAR, dt=1e-5, t_end=0.1,
        scheme="explicit_em", record_every=1000, gate_override=True,
    )
    rec = simulate(cfg)
    exact = (1.0 / np.pi) * np.exp(-np.pi**2 * 0.1)
    assert rec.h_norms[-1, 0] == pytest.approx(exact, rel=1e-3)


def test_gate_enforced_unless_overridden():
    cfg = make_config(model=LINEAR)  # eta = 0 fails the gate
    with pytest.raises(AssumptionError):
        simulate(cfg)
    rec = simulate(make_config(model=LINEAR, gate_override=True))
    assert not rec.blown_up


def test_initial_presets():
    cfg = make_config()
    assert initial_coeffs(cfg, "zero", 1.0).sum() == 0.0
    e1 = initial_coeffs(cfg, "e1", 2.5)
    assert e1[0] == 2.5 and not np.any(e1[1:])
    band = initial_coeffs(cfg, "band", 1.0)
    assert np.array_equal(band, initial_coeffs(cfg, "band", 1.0))
    with pytest.raises(ValueError):
        initial_coeffs(cfg, "bump", 1.0)


def test_explicit_blow_up_flagged():
    # cubic drift at coarse dt trips the stability guard
    cfg = make_config(scheme="explicit_em", dt=5e-3, t_end=0.05,
                      initial_scale=5.0, gate_override=True)
    rec = simulate(cfg)
    assert rec.blown_up
    assert rec.blow_up_time is not None and rec.blow_up_time <= 0.05
    assert rec.blow_up_reasons[0] is not None
    assert np.isnan(rec.h_norms[-1, 0])


def test_fully_blown_run_stops(monkeypatch):
    # every row is NaN after step 1, so the other 9,999 steps are not taken
    cfg = make_config(scheme="explicit_em", dt=5e-3, t_end=50.0,
                      initial_scale=5.0, gate_override=True)
    calls = []

    def spy(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(solver, "step", spy)
    rec = simulate(cfg)
    assert len(calls) == 1
    assert rec.blow_up_time == 5e-3
    assert rec.blow_up_reasons[0] == "stability guard violated"
    assert np.all(np.isnan(rec.final_coeffs))
    assert np.isfinite(rec.h_norms[0, 0]) and np.all(np.isnan(rec.h_norms[1:]))


def test_blown_shard_stops_alone(monkeypatch):
    # both rows of shard 1 trip the explicit-EM guard at step 1; shard 0,
    # on the calling thread, still runs all 1,000 steps to t_end
    cfg = make_config(scheme="explicit_em", dt=1e-5, t_end=0.01, gate_override=True)
    a0 = np.zeros((4, 16))
    a0[:, 0] = (0.1, 0.2, 50.0, 60.0)
    threads = []

    def spy(*args):
        threads.append(threading.get_ident())
        return step(*args)

    monkeypatch.setattr(solver, "step", spy)
    monkeypatch.setattr(solver, "_shard_count", lambda B: 2)
    rec = run_batch(cfg, None, a0)
    assert threads.count(threading.get_ident()) == 1000 and len(threads) == 1001
    assert rec.blown.tolist() == [False, False, True, True]
    assert np.all(np.isfinite(rec.final_coeffs[:2])) and np.all(np.isfinite(rec.h_norms[:, :2]))
    assert np.all(np.isnan(rec.final_coeffs[2:])) and np.all(np.isnan(rec.h_norms[1:, 2:]))
    assert rec.times[-1] == pytest.approx(0.01)


def test_coupled_explicit_guard_matches_single_run():
    # the pair stops at the same guard violation as the single trajectory
    cfg = make_config(scheme="explicit_em", dt=5e-3, t_end=0.05,
                      initial_scale=5.0, gate_override=True)
    single = simulate(cfg)
    x0 = initial_coeffs(cfg)
    rec, dist = coupled_simulate(cfg, initial_x=x0, initial_y=-x0)
    assert single.blow_up_reasons.tolist() == ["stability guard violated"]
    assert rec.blow_up_reasons.tolist() == 2 * single.blow_up_reasons.tolist()
    assert rec.blow_up_times.tolist() == 2 * single.blow_up_times.tolist()
    assert rec.blow_up_time == single.blow_up_time == pytest.approx(5e-3)
    assert np.isfinite(dist[0]) and np.all(np.isnan(dist[1:]))


def test_batch_matches_single_runs():
    nz = NoiseSpec(profile="diagonal_power", c=0.2, a=1.0, master_seed=9)
    cfg = make_config(noise=nz, t_end=0.05, record_every=100, gate_override=True)
    n = cfg.operator.n_modes
    a0 = np.zeros((2, n))
    a0[:, 0] = 1.0
    batch = run_batch(cfg, [NoiseStream(nz, 0), NoiseStream(nz, 1)], a0)
    single0 = run_batch(cfg, [NoiseStream(nz, 0)], a0[:1])
    single1 = run_batch(cfg, [NoiseStream(nz, 1)], a0[1:])
    assert np.array_equal(batch.h_norms[:, 0], single0.h_norms[:, 0])
    assert np.array_equal(batch.h_norms[:, 1], single1.h_norms[:, 0])
    assert not np.array_equal(batch.h_norms[:, 0], batch.h_norms[:, 1])


def test_batch_rows_carry_their_own_blow_up():
    # row 0 starts large enough to trip the explicit-EM guard, row 1 does not
    cfg = make_config(scheme="explicit_em", dt=1e-5, t_end=0.01, gate_override=True)
    a0 = np.zeros((2, 16))
    a0[:, 0] = (50.0, 0.1)
    rec = run_batch(cfg, None, a0)
    assert rec.blown.tolist() == [True, False]
    assert rec.blow_up_reasons.tolist() == ["stability guard violated", None]
    assert rec.blow_up_times[0] == pytest.approx(1e-5) and np.isnan(rec.blow_up_times[1])
    assert rec.blown_up and rec.blow_up_time == rec.blow_up_times[0]
    assert np.all(np.isnan(rec.final_coeffs[0]))
    assert np.all(np.isfinite(rec.h_norms[:, 1])) and np.all(np.isfinite(rec.final_coeffs[1]))


def test_sharded_run_batch_is_bit_identical(monkeypatch):
    # the same noisy batch stepped whole and as 2 and 3 row shards on
    # threads; row 120, in the last shard, trips the explicit-EM guard
    nz = NoiseSpec(profile="diagonal_power", c=0.2, a=1.0, master_seed=17)
    cfg = make_config(noise=nz, scheme="explicit_em", dt=1e-5, t_end=3e-3,
                      record_every=50, gate_override=True)
    B = 131
    a0 = np.zeros((B, 16))
    a0[:, 0] = np.linspace(0.05, 0.5, B)
    a0[120, 0] = 50.0
    integrate, threads = solver._integrate, []

    def spy(*args):
        threads.append(threading.get_ident())
        return integrate(*args)

    monkeypatch.setattr(solver, "_integrate", spy)
    records = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for shards in (1, 2, 3):
            monkeypatch.setattr(solver, "_shard_count", lambda B, w=shards: w)
            before, threads[:] = threading.active_count(), []
            streams = [NoiseStream(nz, j) for j in range(B)]
            records.append(run_batch(cfg, streams, a0, snapshot_times=(1e-3, 3e-3)))
            assert threading.active_count() == before
            # shard 0 on the calling thread, one pool thread per other shard
            assert len(set(threads)) == shards and threading.get_ident() in threads
    finally:
        sys.setswitchinterval(interval)
    whole = records[0]
    assert np.flatnonzero(whole.blown).tolist() == [120]
    assert whole.blow_up_reasons[120] == "stability guard violated"
    for rec in records[1:]:
        for name in ("times", "h_norms", "l2_norms", "lrp1_powers", "blown",
                     "blow_up_times", "final_coeffs", "snapshots", "snapshot_times"):
            assert getattr(rec, name).shape == getattr(whole, name).shape
            assert getattr(rec, name).tobytes() == getattr(whole, name).tobytes(), name
        assert rec.blow_up_reasons.tolist() == whole.blow_up_reasons.tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_rows():
    # called as the integrators call it: their np.errstate hides the sum's warnings
    a = np.zeros((3, 16))
    a[1, :2] = 1e308  # finite entries whose sum overflows
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(a.sum())
        assert nonfinite_rows(a) is None
        for bad in (np.nan, np.inf, -np.inf):
            b = a.copy()
            b[2, 5] = bad
            assert nonfinite_rows(b).tolist() == [False, False, True]


def test_overflowing_row_flagged_non_finite():
    # Psi overflows to inf on the large row's grid values at the first step
    cfg = make_config(gate_override=True, t_end=1e-3)
    a0 = np.zeros((2, 16))
    a0[:, 0] = [1.0, 1e200]
    rec = run_batch(cfg, None, a0)
    assert rec.blown.tolist() == [False, True]
    assert rec.blow_up_times[1] == cfg.dt
    assert rec.blow_up_reasons[1] == "non-finite state"
    assert np.isnan(rec.final_coeffs[1]).all() and np.isfinite(rec.final_coeffs[0]).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_on_a_worker_shard_is_a_blow_up_not_a_warning(monkeypatch):
    # rows 100-199, shard 1 on the pool thread, overflow at step 1; the
    # warning would be raised on that thread and re-raised by run_batch
    cfg = make_config(gate_override=True, t_end=1e-3)
    a0 = np.zeros((200, 16))
    a0[:100, 0], a0[100:, 0] = 1.0, 1e200
    monkeypatch.setattr(solver, "_shard_count", lambda B: 2)
    rec = run_batch(cfg, None, a0)
    assert rec.blown.tolist() == 100 * [False] + 100 * [True]
    assert set(rec.blow_up_reasons[100:]) == {"non-finite state"}


def test_snapshots_recorded():
    cfg = make_config(t_end=0.02, record_every=10, gate_override=True)
    a0 = initial_coeffs(cfg)[None, :]
    rec = run_batch(cfg, None, a0, snapshot_times=(0.01, 0.02))
    assert set(rec.snapshot_times) == {0.01, 0.02}
    assert rec.snapshots[1, 0].shape == (16,)
    assert np.array_equal(rec.snapshots[1, 0], rec.final_coeffs[0])


def test_record_steps_and_observe():
    # record_every = 3 over 10 steps: steps 0, 3, 6, 9 and the last, 10
    cfg = make_config(dt=0.01, t_end=0.1, record_every=3, gate_override=True)
    rec = solver.BatchRecord.empty(cfg, 1)
    assert rec.times.tolist() == [s * 0.01 for s in (0, 3, 6, 9, 10)]
    queued = []
    a = np.zeros((1, 16))
    for step_idx in range(11):
        a[0, 0] = step_idx
        rec.observe(step_idx, a, cfg.operator, cfg.model.r)
        queued.append(rec._queued)
    assert queued == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 5]
    slots, coeffs = rec.flush(cfg.operator, cfg.model.r)
    assert slots == slice(0, 5)
    assert coeffs[:, 0, 0].tolist() == [0, 3, 6, 9, 10]
    # a snapshot at t_end is the final state, and the last slot its H-norm
    a0 = initial_coeffs(cfg)[None, :]
    rec = run_batch(cfg, None, a0, snapshot_times=(cfg.t_end,))
    assert rec.snapshots[-1].tobytes() == rec.final_coeffs.tobytes()
    assert rec.h_norms[-1].tobytes() == cfg.operator.h_norm(rec.final_coeffs).tobytes()


def test_coupled_distance_monotone_and_bounded():
    nz = NoiseSpec(profile="diagonal_power", c=0.2, a=1.0, master_seed=3)
    op = OperatorSpec(n_modes=16, grid_size=128)
    cfg = SimConfig(operator=op, model=CUBIC, noise=nz, dt=1e-4, t_end=0.1,
                    record_every=1)
    x0 = np.zeros(16)
    x0[0] = 1.0
    _, dist = coupled_simulate(cfg, initial_x=x0, initial_y=-x0)
    assert dist[0] == pytest.approx(2.0 / np.pi)
    assert np.all(np.diff(dist) <= 1e-9 * (1.0 + dist[:-1]))
    k, _ = certify_constants(CUBIC, op.eigenvalue(1), trace(nz, op))
    p = BoundParams(r=3.0, eta=k.eta, theta=k.theta, lambda_1=op.eigenvalue(1))
    assert dist[-1] <= contraction_bound(2.0 / np.pi, 0.1, p) * 1.1


def per_slot_series(cfg, streams, a0, pair=False):
    """Oracle: each record step's norms taken by one call per slot.

    The rows are stepped by solver.step, a pair one row at a time as
    coupled_simulate does.  Returns the (T, B) h, L^2 and L^(r+1) series
    and the H-distance of rows 0 and 1.  No row may blow up.
    """
    op, mdl, dt = cfg.operator, cfg.model, cfg.dt
    a = np.array(a0, dtype=float)
    n_steps = round(cfg.t_end / dt)
    slots = {s: k for k, s in enumerate([*range(0, n_steps, cfg.record_every), n_steps])}
    h, l2, lp = (np.full((len(slots), len(a)), np.nan) for _ in range(3))
    dist = np.full(len(slots), np.nan)

    def take(k):
        h[k], l2[k] = op.h_norm(a), op.l2_norm_spectral(a)
        lp[k] = op.lp_power(op.synth(a), mdl.r + 1.0)
        dist[k] = op.h_norm(a[0] - a[1])

    take(0)
    for step_idx, inc in enumerate(solver._increments(cfg, streams), start=1):
        if pair:
            for i in range(2):
                a[i], _ = step(a[i], dt, inc[0], cfg.scheme, mdl, op)
        else:
            a, _ = step(a, dt, inc, cfg.scheme, mdl, op)
        if step_idx in slots:
            take(slots[step_idx])
    return h, l2, lp, dist


def test_queued_pair_record_matches_per_slot_norms(monkeypatch):
    # 301 record slots of 2 rows: the 128-slot queue flushes when full at
    # slots 127 and 255, and coupled_simulate flushes the last 45; each
    # flush takes two H-norms, the record's and the pair's distance
    nz = NoiseSpec(profile="diagonal_power", c=0.2, a=1.0, master_seed=5)
    cfg = make_config(noise=nz, t_end=0.03, record_every=1)
    flushed, flush = [], solver.BatchRecord.flush
    norm_calls, h_norm = [], OperatorSpec.h_norm

    def spy(rec, *args):
        flushed.append(rec._queued)
        return flush(rec, *args)

    def norm_spy(op, coeffs):
        norm_calls.append(coeffs.shape)
        return h_norm(op, coeffs)

    monkeypatch.setattr(solver.BatchRecord, "flush", spy)
    monkeypatch.setattr(OperatorSpec, "h_norm", norm_spy)
    x0 = initial_coeffs(cfg)
    rec, dist = coupled_simulate(cfg, initial_x=x0, initial_y=-x0)
    assert flushed == [128, 128, 45]
    # the record's (slots, 2, n) block, then the pair's (slots, n) distance
    assert norm_calls == 2 * [(128, 2, 16), (128, 16)] + [(45, 2, 16), (45, 16)]
    h, l2, lp, want_dist = per_slot_series(cfg, [NoiseStream(nz)], [x0, -x0], pair=True)
    assert not rec.blown_up
    assert rec.h_norms.tobytes() == h.tobytes()
    assert rec.l2_norms.tobytes() == l2.tobytes()
    assert rec.lrp1_powers.tobytes() == lp.tobytes()
    assert dist.tobytes() == want_dist.tobytes()


PAIR_BLOWN_MID_QUEUE = """\
operator.n_modes = 8
operator.grid_size = 64
model.psi = odd_power
noise.profile = diagonal_power
noise.c = 0.5
noise.a = 1.0
noise.seed = 0
sim.dt = 0.0001
sim.t_end = 0.05
sim.scheme = explicit_em
sim.record_every = 1
sim.initial = e1
sim.initial_scale = 0.2
sim.initial_y = e1
sim.initial_y_scale = -0.2
sim.gate_override = true
"""


def test_pair_blown_mid_queue_keeps_its_rows(tmp_path):
    # the explicit-EM guard stops the pair at step 138, ten slots into the
    # second 128-slot queue block: the final flush fills those ten slots,
    # and couple.csv keeps all 138 rows recorded before the blow-up
    cfg = parse_config(PAIR_BLOWN_MID_QUEUE)
    sim = build_sim(cfg)
    x0 = initial_coeffs(sim)
    rec, dist = coupled_simulate(sim, initial_x=x0, initial_y=-x0)
    assert rec.blow_up_time == pytest.approx(138 * sim.dt)
    assert rec.blow_up_reasons.tolist() == 2 * ["stability guard violated"]
    h, l2, lp, want_dist = per_slot_series(sim, [NoiseStream(sim.noise)], [x0, -x0], pair=True)
    for got, want in ((rec.h_norms, h), (rec.l2_norms, l2), (rec.lrp1_powers, lp)):
        assert got[:138].tobytes() == want[:138].tobytes()
        assert np.all(np.isnan(got[138:]))
    assert dist[:138].tobytes() == want_dist[:138].tobytes()
    assert np.all(np.isnan(dist[138:]))
    path, out = tmp_path / "run.cfg", tmp_path / "out"
    path.write_text(PAIR_BLOWN_MID_QUEUE)
    assert main(["couple", "--config", str(path), "--out", str(out)]) == 4
    rows = (out / "couple.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == dist[:138].tolist()


def test_benchmark_counts_a_blown_pair():
    # perfbench/tracer.py, loaded read-only from its file, counts the pair
    # from its record's blown_up and blow_up_time: 137 live steps per row
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    sim = build_sim(parse_config(PAIR_BLOWN_MID_QUEUE))
    x0 = initial_coeffs(sim)
    tracer = tracer_mod.Tracer()
    with tracer_mod.installed(tracer):
        solver.coupled_simulate(sim, initial_x=x0, initial_y=-x0)
    assert tracer.counts["solver.blown"] == 2
    assert tracer.counts["solver.live_traj_steps"] == 2 * 137


def test_sharded_queued_record_matches_per_slot_norms(monkeypatch):
    # two 2-row shards, each queueing 128 slots: flushed at 128, 256 and the end
    nz = NoiseSpec(profile="diagonal_power", c=0.2, a=1.0, master_seed=11)
    cfg = make_config(noise=nz, t_end=0.03, record_every=1, gate_override=True)
    a0 = np.zeros((4, 16))
    a0[:, 0] = (0.3, 0.6, 0.9, 1.2)
    monkeypatch.setattr(solver, "_shard_count", lambda B: 2)
    rec = run_batch(cfg, [NoiseStream(nz, j) for j in range(4)], a0)
    h, l2, lp, _ = per_slot_series(cfg, [NoiseStream(nz, j) for j in range(4)], a0)
    assert not rec.blown.any()
    assert rec.h_norms.tobytes() == h.tobytes()
    assert rec.l2_norms.tobytes() == l2.tobytes()
    assert rec.lrp1_powers.tobytes() == lp.tobytes()


def queued_record():
    """A 2-row record with one slot queued and not yet flushed."""
    cfg = make_config(record_every=1)
    rec = solver.BatchRecord.empty(cfg, 2)
    a = np.zeros((2, 16))
    a[:, 0] = 1.0
    rec.record(a, cfg.operator, cfg.model.r)
    return rec, cfg


def test_flush_fills_the_queue_and_producers_return_flushed_records():
    rec, cfg = queued_record()
    assert np.isnan(rec.h_norms[0]).all()
    rec.flush(cfg.operator, cfg.model.r)
    assert rec._queue is None  # a flushed record holds no queue arrays
    assert rec.h_norms[0, 0] == pytest.approx(1.0 / np.pi)
    # a finished run returns a record with no queue left
    a0 = np.zeros((2, 16))
    a0[:, 0] = 1.0
    cfg = make_config(record_every=1, gate_override=True)
    assert run_batch(cfg, None, a0)._queue is None
    assert coupled_simulate(cfg, initial_x=a0[0], initial_y=-a0[0])[0]._queue is None


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        make_config(dt=0.2)  # dt > t_end
    with pytest.raises(ValueError):
        make_config(dt=0.3, t_end=0.5)  # would integrate to t = 0.6
    make_config(dt=0.1, t_end=0.3)  # 0.3 / 0.1 = 2.9999999999999996 rounds to 3 steps
    with pytest.raises(ValueError):
        make_config(scheme="heun")
    with pytest.raises(ValueError):
        make_config(operator=OperatorSpec(n_modes=16, grid_size=64))  # aliasing
    # library-only Phi and an unknown noise profile are config errors
    # (exit 1), not tracebacks
    for line in ("model.phi = custom", "noise.profile = full_matrix"):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
