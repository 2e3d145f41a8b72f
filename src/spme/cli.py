"""Command-line orchestration: verify / simulate / couple / ergodic / report.

Exit codes: 0 success, 1 config error, 2 hypothesis-gate failure (with a
`<command>_meta.json` naming the reason), 3 bound violation beyond
tolerance, 4 blow-up.  All artifacts are deterministic given
(config, seed): floats are printed with 17 significant digits and no
timestamps are emitted.
"""

import argparse
import hashlib
import json
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import config as config_mod
from . import ergodic as ergodic_mod
from . import model as model_mod
from . import solver as solver_mod

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GATE = 2
EXIT_BOUND = 3
EXIT_BLOWUP = 4

BOUND_SLACK = 1.1  # multiplicative tolerance on the closed-form envelopes


def _f(x):
    """17 significant digits: doubles round-trip exactly."""
    return f"{float(x):.17g}"


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_csv(path, header, rows):
    """A CSV of `header` and `rows`; numeric cells are printed with _f."""
    lines = [header]
    lines += [",".join(c if isinstance(c, str) else _f(c) for c in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _finite_prefix(series):
    """How many leading entries of `series` are finite: the rows recorded before a blow-up."""
    bad = np.flatnonzero(~np.isfinite(series))
    return int(bad[0]) if len(bad) else len(series)


def _write_meta(out, command, meta):
    _write(out / f"{command}_meta.json", json.dumps(meta, sort_keys=True, indent=1) + "\n")


def _load(args):
    """Parse the config, apply --seed and build the run: (cfg, sim, out)."""
    cfg = config_mod.parse_config(Path(args.config).read_text())
    if args.seed is not None:
        cfg = cfg.with_value("noise.seed", args.seed)
    sim = config_mod.build_sim(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, sim, out


def _overflow_errors(op, states, r=None):
    """A config error for each initial state whose H-norm overflows, or,
    given the degree r, whose L^(r+1) power does.

    `states` holds (key, setting, coeffs) triples: the config key that
    sets a state, its setting as the error should quote it, and the
    state's coefficients.  Such a state is non-finite before step 1, or
    records an infinite L^(r+1) power from t = 0.
    """
    errors = []
    with np.errstate(over="ignore"):
        for key, setting, a in states:
            if not np.isfinite(op.h_norm(a)):
                errors.append(f"{key}: the initial H-norm overflows at {setting}")
            elif r is not None and _power_overflows(op, a, r + 1.0):
                errors.append(f"{key}: the initial L^(r+1) power overflows at {setting}")
    return errors


def _power_overflows(op, a, p):
    """True if the grid integral of |X|^p overflows for the coefficients a.

    On the grid |X| <= sqrt(2) * sum|a_k| (1.5 leaves room for rounding),
    which bounds the sum of the grid_size powers.  A state whose bound is
    below 1e300 is not synthesized, so the check adds no transform to a
    usual run.
    """
    if op.grid_size * (1.5 * np.abs(a).sum()) ** p <= 1e300:
        return False
    return not np.isfinite(op.lp_power(op.synth(a), p))


def _scaled(cfg, key, coeffs):
    """The (key, setting, coeffs) triple of a state scaled by `key`."""
    return key, f"{key} = {cfg[key]:g}", coeffs


def cmd_verify(args):
    cfg, sim, out = _load(args)
    trace, k, verdict = solver_mod.certify(sim)
    gate = "pass" if verdict.passed else "fail"
    _write_csv(out / "verify.csv", "eta,sigma,theta,delta,kappa,c,c1,c2,trace_q,gate", [
        (k.eta, k.sigma, k.theta, k.delta, k.kappa, k.c, k.c1, k.c2, trace, gate)
    ])
    _write_meta(out, "verify", {
        "gate": gate,
        "exponential_regime": verdict.exponential_regime,
        "reasons": list(verdict.reasons),
        "defaults_applied": list(cfg.applied_defaults),
    })
    return EXIT_OK if verdict.passed else EXIT_GATE


def cmd_simulate(args):
    cfg, sim, out = _load(args)
    errors = _overflow_errors(
        sim.operator, [_scaled(cfg, "sim.initial_scale", solver_mod.initial_coeffs(sim))],
        sim.model.r,
    )
    if errors:
        raise config_mod.ConfigError(errors)
    record = solver_mod.simulate(sim)
    kept = _finite_prefix(record.h_norms)
    _write_csv(out / "simulate.csv", "t,h_norm,l2_norm,lrp1_power", zip(
        record.times[:kept], record.h_norms[:kept], record.l2_norms[:kept],
        record.lrp1_powers[:kept]))
    _write_meta(out, "simulate", {
        "blown_up": record.blown_up,
        "blow_up_time": None if record.blow_up_time is None else _f(record.blow_up_time),
        "blow_up_reason": record.blow_up_reason,
        "scheme": sim.scheme,
        "defaults_applied": list(cfg.applied_defaults),
    })
    return EXIT_BLOWUP if record.blown_up else EXIT_OK


def cmd_couple(args):
    cfg, sim, out = _load(args)
    _, k, _ = solver_mod.certify(sim)
    ax = solver_mod.initial_coeffs(sim)
    ay = solver_mod.initial_coeffs(
        sim, preset=cfg["sim.initial_y"], scale=cfg["sim.initial_y_scale"]
    )
    errors = _overflow_errors(sim.operator, [
        _scaled(cfg, "sim.initial_scale", ax), _scaled(cfg, "sim.initial_y_scale", ay)
    ])
    with np.errstate(over="ignore"):  # an overflow is a config error below
        z0 = float(sim.operator.h_norm(ax - ay))
    if not errors and not np.isfinite(z0):
        errors.append("sim.initial_scale, sim.initial_y_scale: the initial H-distance "
                      "overflows")
    if sim.gate_override and not k.eta > k.theta:
        # without the override the gate stops the run on this (exit 2)
        errors.append(
            f"model.gamma, model.phi: certified eta = {k.eta:g} does not exceed "
            f"theta = {k.theta:g}; the contraction envelope needs eta > theta, "
            "sim.gate_override or not"
        )
    if errors:
        raise config_mod.ConfigError(errors)
    rec_x, _, dist = solver_mod.coupled_simulate(sim, initial_x=ax, initial_y=ay)
    params = bounds_mod.BoundParams(
        r=sim.model.r, eta=k.eta, theta=k.theta, sigma=k.sigma, delta=k.delta,
        lambda_1=sim.operator.eigenvalue(1),
    )
    bound_poly = bounds_mod.contraction_bound(z0, rec_x.times, params)
    exponential = k.sigma > k.delta
    bound_exp = (
        bounds_mod.exponential_bound(z0, rec_x.times, params) if exponential else None
    )
    limit = bound_poly if bound_exp is None else np.minimum(bound_poly, bound_exp)
    kept = _finite_prefix(dist)
    violated = bool(np.any(dist[:kept] > BOUND_SLACK * limit[:kept] + 1e-12))
    _write_csv(out / "couple.csv", "t,dist_h,bound_poly,bound_exp", zip(
        rec_x.times[:kept], dist[:kept], bound_poly[:kept],
        repeat("") if bound_exp is None else bound_exp[:kept]))
    _write_meta(out, "couple", {
        "z0": _f(z0),
        "bound_violated": violated,
        "blown_up": rec_x.blown_up,
        "exponential_regime": exponential,
        "defaults_applied": list(cfg.applied_defaults),
    })
    if rec_x.blown_up:
        return EXIT_BLOWUP
    return EXIT_BOUND if violated else EXIT_OK


def cmd_ergodic(args):
    cfg, sim, out = _load(args)
    _, _, verdict = solver_mod.certify(sim)
    initials = tuple(config_mod.parse_initial(s) for s in cfg["ensemble.initials"])
    window = cfg["ensemble.fit_window"] or None
    try:
        sample_times = cfg["ensemble.sample_times"] or config_mod.default_sample_times(cfg)
    except config_mod.ConfigError as exc:
        errors = exc.errors  # no sample times to check the rest against
    else:
        errors = ergodic_mod.window_errors(sample_times, cfg["ensemble.burn_in"], window)
        try:
            ens = ergodic_mod.EnsembleConfig(
                base=sim,
                n_traj=cfg["ensemble.n_traj"],
                burn_in=cfg["ensemble.burn_in"],
                sample_times=sample_times,
                initial_set=initials,
                functionals=cfg["ensemble.functionals"],
            )
        except ValueError as exc:
            # EnsembleConfig checks the sample times, default ones included,
            # against the horizon and the dt grid, and the initial labels
            errors.insert(0, str(exc))
    errors += _overflow_errors(sim.operator, [
        ("ensemble.initials", label, solver_mod.initial_coeffs(sim, preset, scale))
        for label, (preset, scale) in zip(cfg["ensemble.initials"], initials)
    ], sim.model.r)
    if errors:
        raise config_mod.ConfigError(errors)
    report, samples = ergodic_mod.mixing_experiment(
        ens, exponential=verdict.exponential_regime, fit_window=window
    )
    _write_csv(out / "ergodic.csv", "t,functional,initial,ptf_estimate,std_err,mixing_gap", [
        (t, name, label, mean, se, gap)
        for name in samples.functionals
        for label in samples.func_values
        for t, mean, se, gap in zip(report.sample_times, *report.ptf[(name, label)],
                                    report.mixing_series[(name, label)])
    ])
    mom_mean, mom_se = report.moment_estimate
    _write_meta(out, "ergodic", {
        "fit_kind": report.fit_kind,
        "fit_rate": _f(report.fit.rate),
        "fit_intercept": _f(report.fit.intercept),
        "fit_residual": _f(report.fit.residual),
        "moment_estimate": _f(mom_mean),
        "moment_std_err": _f(mom_se),
        "mu_estimates": {
            name: [_f(m), _f(s)] for name, (m, s) in sorted(report.mu_estimates.items())
        },
        "uniqueness_diagnostic": {
            name: [_f(g), _f(s)]
            for name, (g, s) in sorted(report.uniqueness_diagnostic.items())
        },
        "excluded": {k: int(v) for k, v in sorted(samples.excluded.items())},
        "defaults_applied": list(cfg.applied_defaults),
    })
    return EXIT_OK


def cmd_report(args):
    """Build the machine-readable index and a human summary for a run dir."""
    out = Path(args.out)
    artifacts = sorted(
        p.name
        for p in out.iterdir()
        if p.suffix in (".csv", ".json") and p.name != "index.json"
    ) if out.exists() else []
    index = {"artifacts": []}
    summary = []
    for name in artifacts:
        data = (out / name).read_bytes()
        index["artifacts"].append(
            {
                "name": name,
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        )
        summary.append(f"{name}: {len(data)} bytes")
    for name in artifacts:
        if name.endswith("_meta.json"):
            meta = json.loads((out / name).read_text())
            for key in ("gate", "fit_kind", "fit_rate", "moment_estimate",
                        "bound_violated", "blown_up"):
                if key in meta:
                    summary.append(f"{name[:-10]}.{key} = {meta[key]}")
    _write(out / "index.json", json.dumps(index, sort_keys=True, indent=1) + "\n")
    _write(out / "summary.txt", "\n".join(summary) + "\n")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="spme",
        description="Spectral Galerkin simulator for a stochastic porous "
        "medium equation, with decay/contraction/ergodicity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (
        ("verify", cmd_verify, True),
        ("simulate", cmd_simulate, True),
        ("couple", cmd_couple, True),
        ("ergodic", cmd_ergodic, True),
        ("report", cmd_report, False),
    ):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True)
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except config_mod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except model_mod.AssumptionError as exc:
        # a failed gate (raised in solver._check_gate) or an uncertifiable model
        print(f"hypothesis gate: {exc}", file=sys.stderr)
        _write(Path(args.out) / f"{args.command}_meta.json",
               json.dumps({"gate": "fail", "error": str(exc)}, sort_keys=True) + "\n")
        return EXIT_GATE
    except solver_mod.BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
