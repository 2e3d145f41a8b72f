"""Config parsing round-trips and CLI exit codes / artifact determinism."""

import json

import numpy as np
import pytest

from spme import bounds, cli
from spme.cli import main
from spme.config import (
    SCHEMA,
    ConfigError,
    build_model,
    build_noise,
    build_operator,
    parse_config,
    parse_initial,
    serialize_config,
)
from spme.ergodic import BUILTIN_FUNCTIONALS
from spme.model import PHI_KINDS, PSI_KINDS
from spme.noise import PROFILES
from spme.solver import INITIAL_PRESETS, SCHEMES

BASE = """
operator.n_modes = 8
operator.grid_size = 64
model.psi = odd_power
noise.profile = diagonal_power
noise.c = 0.2
noise.a = 1.0
noise.seed = 5
sim.dt = 0.001
sim.t_end = 0.2
sim.record_every = 20
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_config_choices_are_the_library_lists():
    # one list of each enumeration: every kind the library knows, a config can spell
    for key, kinds in (
        ("model.psi", PSI_KINDS),
        ("model.phi", PHI_KINDS),
        ("noise.profile", PROFILES),
        ("sim.scheme", SCHEMES),
        ("sim.initial", INITIAL_PRESETS),
        ("sim.initial_y", INITIAL_PRESETS),
        ("ensemble.functionals", BUILTIN_FUNCTIONALS),
    ):
        for kind in kinds:
            value = (kind,) if key == "ensemble.functionals" else kind
            assert SCHEMA[key].check(value), (key, kind)


def test_parse_and_serialize_round_trip():
    cfg = parse_config(BASE)
    assert cfg["operator.n_modes"] == 8
    assert cfg["sim.dt"] == 0.001
    assert "model.r" in cfg.applied_defaults
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again.values == cfg.values


def test_all_errors_reported_together():
    bad = "operator.n_modes = 0\nmodel.r = 1.0\nmystery.key = 3\nnot a line\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msgs = err.value.errors
    assert len(msgs) == 4
    assert any("r must exceed 1" in m for m in msgs)
    assert any("unknown key" in m for m in msgs)
    assert any("expected" in m for m in msgs)


def test_dt_exceeding_t_end_rejected():
    with pytest.raises(ConfigError):
        parse_config(BASE + "sim.dt = 1.0\n")


def test_parse_initial_labels():
    assert parse_initial("e1") == ("e1", 1.0)
    assert parse_initial("zero") == ("zero", 1.0)
    assert parse_initial("10*e1") == ("e1", 10.0)


def test_builders(tmp_path):
    cfg = parse_config(BASE)
    op = build_operator(cfg)
    assert op.n_modes == 8 and op.grid_size == 64
    mdl = build_model(cfg)
    assert mdl.r == 3.0 and mdl.psi_kind == "odd_power"
    nz = build_noise(cfg)
    assert nz.master_seed == 5
    assert build_noise(cfg.with_value("noise.seed", 9)).master_seed == 9


def test_verify_subcommand(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "verify.csv").read_text().splitlines()
    assert rows[0] == "eta,sigma,theta,delta,kappa,c,c1,c2,trace_q,gate"
    fields = rows[1].split(",")
    assert abs(float(fields[0]) - 0.25) < 1e-3  # eta
    assert fields[-1] == "pass"
    meta = json.loads((out / "verify_meta.json").read_text())
    assert meta["gate"] == "pass"


def test_verify_passes_at_huge_decay_exponent(tmp_path):
    # scipy's zeta is NaN for 2a+2 above about 2.5e13; the trace is c^2/pi^2
    cfg = write(tmp_path, BASE.replace("noise.a = 1.0", "noise.a = 1e15"))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    fields = (out / "verify.csv").read_text().splitlines()[1].split(",")
    assert float(fields[-2]) == 0.2**2 / np.pi**2
    assert fields[-1] == "pass"


def test_verify_gate_failure_exit_2(tmp_path):
    cfg = write(tmp_path, BASE + "model.phi = scaled_identity\nmodel.beta = 0.5\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert (out / "verify.csv").read_text().splitlines()[1].endswith("fail")


def test_verify_monotonicity_failure_exit_2(tmp_path):
    cfg = write(tmp_path, BASE + "model.gamma = -1.0\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2


def test_simulate_subcommand_and_determinism(tmp_path):
    cfg = write(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    csv1 = (out1 / "simulate.csv").read_bytes()
    assert csv1 == (out2 / "simulate.csv").read_bytes()
    rows = csv1.decode().splitlines()
    assert rows[0] == "t,h_norm,l2_norm,lrp1_power"
    assert len(rows) == 2 + 10  # header + t=0 + 10 records


def test_seed_override_changes_output(tmp_path):
    cfg = write(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(out1)])
    main(["simulate", "--config", cfg, "--seed", "77", "--out", str(out2)])
    assert (out1 / "simulate.csv").read_bytes() != (out2 / "simulate.csv").read_bytes()


def test_simulate_blow_up_exit_4(tmp_path):
    text = BASE + "sim.scheme = explicit_em\nsim.dt = 0.005\nsim.initial_scale = 5.0\nsim.gate_override = true\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    meta = json.loads((out / "simulate_meta.json").read_text())
    assert meta["blown_up"] is True
    assert meta["blow_up_time"] is not None
    # the rows recorded before the blow-up, out of the record times 0, 0.1, 0.2
    rows = (out / "simulate.csv").read_text().splitlines()
    assert rows[0] == "t,h_norm,l2_norm,lrp1_power"
    blow_up_time = float(meta["blow_up_time"])
    assert [float(row.split(",")[0]) for row in rows[1:]] == [
        t for t in (0.0, 0.1, 0.2) if t < blow_up_time
    ]


def test_couple_subcommand(tmp_path):
    text = BASE + "sim.initial_y = e1\nsim.initial_y_scale = -1.0\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["couple", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "couple.csv").read_text().splitlines()
    assert rows[0] == "t,dist_h,bound_poly,bound_exp"
    first = rows[1].split(",")
    assert float(first[1]) == pytest.approx(2.0 / np.pi, rel=1e-12)
    meta = json.loads((out / "couple_meta.json").read_text())
    assert meta["bound_violated"] is False


def _halve(monkeypatch, name):
    envelope = getattr(bounds, name)
    monkeypatch.setattr(bounds, name, lambda *args: 0.5 * envelope(*args))


@pytest.mark.parametrize("envelope, extra", [
    ("contraction_bound", ""),
    ("exponential_bound", "model.psi = linear_plus_odd_power\nmodel.alpha = 0.5\n"),
])
def test_couple_bound_violation_exit_3(tmp_path, monkeypatch, envelope, extra):
    _halve(monkeypatch, envelope)
    cfg = write(tmp_path, BASE + "sim.initial_y = e1\nsim.initial_y_scale = -1.0\n" + extra)
    out = tmp_path / "out"
    assert main(["couple", "--config", cfg, "--out", str(out)]) == 3
    meta = json.loads((out / "couple_meta.json").read_text())
    assert meta["bound_violated"] is True and meta["blown_up"] is False
    rows = [row.split(",") for row in (out / "couple.csv").read_text().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == pytest.approx(np.arange(11) * 0.02)
    exponential = envelope == "exponential_bound"
    assert meta["exponential_regime"] is exponential
    assert all(row[3] != "" for row in rows) == exponential
    # with bound_exp halved, dist stays within bound_poly: only their minimum is exceeded
    dist, poly = (np.array([float(row[i]) for row in rows]) for i in (1, 2))
    assert np.all(dist <= 1.1 * poly + 1e-12) == exponential


def test_ergodic_subcommand(tmp_path):
    text = BASE + (
        "sim.t_end = 1.0\nensemble.n_traj = 24\nensemble.burn_in = 0.3\n"
        "ensemble.initials = zero,e1\nensemble.functionals = tanh_h_norm\n"
    )
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["ergodic", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "ergodic.csv").read_text().splitlines()
    assert rows[0] == "t,functional,initial,ptf_estimate,std_err,mixing_gap"
    meta = json.loads((out / "ergodic_meta.json").read_text())
    assert meta["fit_kind"] == "power"
    assert set(meta["uniqueness_diagnostic"]) == {"tanh_h_norm"}


def test_report_subcommand(tmp_path):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    assert main(["report", "--out", str(out)]) == 0
    index = json.loads((out / "index.json").read_text())
    names = [a["name"] for a in index["artifacts"]]
    assert "simulate.csv" in names
    for a in index["artifacts"]:
        assert len(a["sha256"]) == 64 and a["bytes"] > 0
    assert (out / "summary.txt").read_text()


def test_config_error_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "model.r = 0.5\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "r must exceed 1" in capsys.readouterr().err


TOO_MANY_STEPS = "must be a whole number of sim.dt steps, at most 9007199254740992"
GATE_FAIL = "model.phi = scaled_identity\nmodel.beta = 0.5\n"  # sigma = 0 < delta
# burn_in 0.1 leaves the later sample times of the 0.2 horizon to average
SMALL_ENSEMBLE = "ensemble.n_traj = 8\nensemble.burn_in = 0.1\n"
# certifies: eta = gamma/16, kappa = 5*gamma and c = gamma are finite
GAMMA_1E300_R5 = "model.gamma = 1e300\nmodel.r = 5.0\noperator.grid_size = 96\n"
# kappa = gamma*r overflows
GROWTH_OVERFLOW = "model.gamma = 1e308\nmodel.r = 5.0\noperator.grid_size = 96\n"


@pytest.mark.parametrize(
    "command, extra, code, message",
    [
        # a failed gate stops every subcommand the same way
        ("couple", GATE_FAIL, 2, "sigma = 0 below delta"),
        ("ergodic", GATE_FAIL + SMALL_ENSEMBLE, 2, "sigma = 0 below delta"),
        # more than 1% of an ensemble blowing up is a blow-up exit
        ("ergodic",
         "sim.scheme = explicit_em\nsim.dt = 0.005\nsim.gate_override = true\n"
         "ensemble.initials = 8*e1,zero\n" + SMALL_ENSEMBLE,
         4, "8/8 trajectories blew up"),
        # config values that cannot give a meaningful run
        ("simulate", "operator.grid_size = 4\n", 1, "at least operator.n_modes"),
        ("verify", "operator.grid_size = 32\n", 1, "need at least 64"),
        ("ergodic", "ensemble.initials = zero,bump\n", 1, "unknown preset in 'bump'"),
        ("ergodic", "ensemble.initials = zero,x*e1\n", 1, "could not convert string"),
        ("ergodic", "ensemble.initials = e1\n", 1, "ensemble.initials: need at least two"),
        ("ergodic", "ensemble.functionals = l2\n", 1, "ensemble.functionals: need one or more"),
        ("ergodic", "ensemble.functionals = \n", 1, "ensemble.functionals: need one or more"),
        ("ergodic", "ensemble.sample_times = 0.2,0.1\n", 1, "must be increasing"),
        ("verify", "model.alpha = 1.0\n", 1, "odd_power takes no linear coefficient"),
        ("ergodic", "ensemble.sample_times = 0.1,0.5\n", 1, "must lie in (0, sim.t_end]"),
        ("simulate", "sim.dt = 0.3\nsim.t_end = 0.5\n", 1, "whole number of sim.dt steps"),
        # t_end / dt past 2**53 steps, or not finite at all
        ("verify", "sim.t_end = inf\n", 1, f"sim.t_end: {TOO_MANY_STEPS}"),
        ("couple", "sim.dt = 1e-320\n", 1, f"sim.t_end: {TOO_MANY_STEPS}"),
        ("simulate", "sim.t_end = 1e300\n", 1, f"sim.t_end: {TOO_MANY_STEPS}"),
        ("simulate", "noise.profile = explicit_diagonal\nnoise.q = 0.1,nan\n", 1,
         "noise.q: must be finite"),
        # 0.0001 and 0.0002 both round to step 0 at sim.dt = 0.001
        ("ergodic",
         "ensemble.sample_times = 0.0001,0.0002,"
         + ",".join(f"{0.02 * k:g}" for k in range(1, 11)) + "\n" + SMALL_ENSEMBLE,
         1, "sample times 0.0001 and 0.0002 round to the same dt step"),
        # windows the sample times cannot fill; the default burn_in is 1
        ("ergodic", "ensemble.n_traj = 8\n", 1,
         "ensemble.burn_in: no sample time after 1; the last sample time is 0.2"),
        ("ergodic", "ensemble.fit_window = 0.15,0.2\n" + SMALL_ENSEMBLE, 1,
         "ensemble.fit_window: [0.15, 0.2] holds 2 sample times, need at least 5"),
        # the default sample times start at 10*sim.dt
        ("ergodic", "sim.t_end = 0.005\n" + SMALL_ENSEMBLE, 1,
         "sim.t_end: 0.005 is not past 10*sim.dt = 0.01"),
        # the contraction envelope needs eta > theta and a finite z0, override or not
        ("couple", "sim.gate_override = true\nmodel.gamma = 0\n", 1,
         "model.gamma, model.phi: certified eta = 0 does not exceed theta = 0"),
        ("couple", "sim.initial_scale = 1e200\n", 1,
         "sim.initial_scale: the initial H-norm overflows at sim.initial_scale = 1e+200"),
        ("couple", "sim.initial_scale = 1e154\nsim.initial_y_scale = -1e154\n", 1,
         "sim.initial_scale, sim.initial_y_scale: the initial H-distance overflows"),
        # an initial state whose H-norm overflows is non-finite before step 1
        ("simulate", "sim.initial_scale = 1e200\n", 1,
         "sim.initial_scale: the initial H-norm overflows at sim.initial_scale = 1e+200"),
        ("ergodic", "ensemble.initials = zero,1e200*e1\n" + SMALL_ENSEMBLE, 1,
         "ensemble.initials: the initial H-norm overflows at 1e200*e1"),
        # a finite H-norm, but an infinite integral of |X|^(r+1) from t = 0
        ("simulate", "sim.initial_scale = 1e100\n", 1,
         "sim.initial_scale: the initial L^(r+1) power overflows at sim.initial_scale = 1e+100"),
        ("ergodic", "ensemble.initials = zero,1e100*e1\n" + SMALL_ENSEMBLE, 1,
         "ensemble.initials: the initial L^(r+1) power overflows at 1e100*e1"),
        # two labels for one preset would collapse their ensembles into one
        ("ergodic", "ensemble.initials = e1,1.0*e1\n" + SMALL_ENSEMBLE, 1,
         "ensemble.initials: need at least two distinct presets, got e1, e1"),
        ("ergodic", "ensemble.initials = zero,e1,1*e1\n" + SMALL_ENSEMBLE, 1,
         "ensemble.initials: need at least two distinct presets, got zero, e1, e1"),
        # a key that the chosen kind does not read
        ("simulate", "noise.q = 5,5,5\n", 1,
         "noise.q: not read with noise.profile = diagonal_power"),
        ("verify", "model.beta = 0.5\n", 1, "model.beta: not read with model.phi = zero"),
        # eta's certificate keeps the superlinear part however large alpha is
        ("verify", "model.psi = linear_plus_odd_power\nmodel.alpha = 1e14\n", 0, ""),
        # a certified constant that overflows fails the gate
        ("couple", GROWTH_OVERFLOW, 2, "certified kappa = inf is not finite"),
        # --seed is checked as noise.seed is: 2**64 and -1 would wrap to 0 and 2**64 - 1
        ("simulate --seed=18446744073709551616", "", 1, "noise.seed: must fit in 64 bits"),
        ("simulate --seed=-1", "", 1, "noise.seed: must fit in 64 bits"),
    ],
    ids=[
        "couple-gate", "ergodic-gate", "ergodic-blow-up", "grid-below-modes",
        "grid-aliased", "unknown-initial", "bad-initial-scale", "one-initial",
        "unknown-functional", "no-functional", "unordered-sample-times",
        "alpha-with-odd-power", "sample-time-past-t-end", "horizon-drift",
        "infinite-horizon", "steps-past-float-range", "steps-past-2-53",
        "non-finite-q", "colliding-sample-times", "burn-in-past-samples",
        "thin-fit-window", "horizon-below-sample-floor", "couple-eta-not-above-theta",
        "couple-initial-norm-overflow", "couple-initial-distance-overflow",
        "simulate-initial-norm-overflow", "ergodic-initial-norm-overflow",
        "simulate-initial-power-overflow", "ergodic-initial-power-overflow",
        "repeated-initial", "repeated-initial-of-three", "q-under-diagonal-power",
        "beta-under-zero-phi", "huge-alpha", "growth-constant-overflow",
        "seed-past-64-bits", "negative-seed",
    ],
)
def test_failure_exit_codes(tmp_path, capsys, command, extra, code, message):
    command, *flags = command.split()
    cfg = write(tmp_path, BASE + extra)
    out = tmp_path / "out"
    assert main([command, *flags, "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    if code == 2:
        meta = json.loads((out / f"{command}_meta.json").read_text())
        assert meta["gate"] == "fail" and message in meta["error"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "extra, kappa, c",
    [
        ("operator.n_modes = 4\noperator.grid_size = 1610\nmodel.r = 200\n", "200", "1"),
        (GAMMA_1E300_R5, "5.0000000000000003e+300", "1.0000000000000001e+300"),
        ("model.gamma = 1e300\nmodel.r = 20\noperator.grid_size = 336\n",
         "2.0000000000000001e+301", "1.0000000000000001e+300"),
    ],
    ids=["r-200", "gamma-1e300-r5", "gamma-1e300-r20"],
)
def test_verify_certifies_extreme_models(tmp_path, extra, kappa, c):
    # kappa and c are closed forms, finite for every r and below gamma*r's
    # overflow, and certifying them prints no NumPy warning
    cfg = write(tmp_path, BASE + extra)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    header, row = (out / "verify.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert (row["kappa"], row["c"], row["gate"]) == (kappa, c, "pass")


def test_ergodic_window_errors_reported_together(tmp_path, capsys):
    cfg = write(tmp_path, BASE + "ensemble.sample_times = 0.05,0.1,0.2\n")
    assert main(["ergodic", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "ensemble.burn_in: no sample time after 1" in err
    assert ("ensemble.fit_window (default: the later half of the sample times): "
            "[0.1, 0.2] holds 2 sample times") in err


def test_ergodic_sample_time_floor_reported_with_other_errors(tmp_path, capsys):
    text = BASE + "sim.t_end = 0.005\nensemble.initials = zero,1e200*e1\n" + SMALL_ENSEMBLE
    cfg = write(tmp_path, text)
    assert main(["ergodic", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "sim.t_end: 0.005 is not past 10*sim.dt = 0.01" in err
    assert "ensemble.initials: the initial H-norm overflows at 1e200*e1" in err


def test_ensemble_errors_reported_together(tmp_path, capsys):
    text = BASE + (
        "ensemble.initials = e1,1.0*e1\nensemble.sample_times = 0.0001,0.0002,"
        + ",".join(f"{0.02 * k:g}" for k in range(1, 11)) + "\n" + SMALL_ENSEMBLE
    )
    cfg = write(tmp_path, text)
    assert main(["ergodic", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "ensemble.initials: need at least two distinct presets, got e1, e1" in err
    assert "sample times 0.0001 and 0.0002 round to the same dt step" in err


# each on BASE + SMALL_ENSEMBLE, under every subcommand that reads a config
EXTREME_SETTINGS = {
    "t_end-inf": "sim.t_end = inf\n",
    "t_end-1e300": "sim.t_end = 1e300\n",
    "dt-1e-320": "sim.dt = 1e-320\n",
    "scale-1e100": "sim.initial_scale = 1e100\n",
    "scale-1e200": "sim.initial_scale = 1e200\n",
    "scale-1e-320": "sim.initial_scale = 1e-320\n",
    "y_scale-1e100": "sim.initial_y_scale = 1e100\n",
    "c-inf": "noise.c = inf\n",
    "c-inf-override": "noise.c = inf\nsim.gate_override = true\n",
    "a-inf": "noise.a = inf\n",
    "initials-1e100": "ensemble.initials = zero,1e100*e1\n",
    "burn_in-inf": "ensemble.burn_in = inf\n",
    "gamma-1e300": "model.gamma = 1e300\n",
    "gamma-1e300-r5": GAMMA_1E300_R5,
}


def nonfinite_cells(path):
    """The cells of a CSV or JSON artifact that parse as a float but are not finite."""
    text = path.read_text()
    if path.suffix == ".json":
        cells, stack = [], [json.loads(text)]
        while stack:
            v = stack.pop()
            if isinstance(v, dict):
                stack.extend(v.values())
            elif isinstance(v, list):
                stack.extend(v)
            elif isinstance(v, (str, float, int)) and not isinstance(v, bool):
                cells.append(v)
    else:
        cells = text.replace("\n", ",").split(",")
    bad = []
    for cell in cells:
        try:
            x = float(cell)
        except ValueError:
            continue
        if not np.isfinite(x):
            bad.append(cell)
    return bad


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("setting", sorted(EXTREME_SETTINGS))
@pytest.mark.parametrize("command", ["verify", "simulate", "couple", "ergodic"])
def test_extreme_values_exit_cleanly(tmp_path, capsys, command, setting):
    # a documented exit code and no traceback; at exit 0, only finite numbers
    cfg = write(tmp_path, BASE + SMALL_ENSEMBLE + EXTREME_SETTINGS[setting])
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
    if code == 0:
        for path in sorted(out.iterdir()):
            if path.suffix in (".csv", ".json"):
                assert nonfinite_cells(path) == [], path.name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_overflow_check_is_exact():
    # the sum bound skips the transform only far below overflow; near it,
    # the synthesized power decides: 1e76*e1 stays finite, 1e77*e1 does not
    op = build_operator(parse_config(BASE))
    for scale, overflows in ((1.0, False), (1e76, False), (1e77, True), (1e100, True)):
        a = np.zeros(8)
        a[0] = scale
        with np.errstate(over="ignore"):
            assert np.isfinite(op.lp_power(op.synth(a), 4.0)) != overflows
        assert cli._power_overflows(op, a, 4.0) == overflows
