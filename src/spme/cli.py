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
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import config as config_mod
from . import ergodic as ergodic_mod
from . import model as model_mod
from . import noise as noise_mod
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


def _certify(sim):
    trace = noise_mod.trace(sim.noise, sim.operator)
    constants, verdict = model_mod.certify_constants(
        sim.model, sim.operator.eigenvalue(1), trace
    )
    return trace, constants, verdict


def _overflow_errors(op, states):
    """A config error for each initial state whose H-norm overflows.

    `states` holds (key, setting, coeffs) triples: the config key that
    sets a state, its setting as the error should quote it, and the
    state's coefficients.  Such a state is non-finite before step 1.
    """
    with np.errstate(over="ignore"):
        return [f"{key}: the initial H-norm overflows at {setting}"
                for key, setting, a in states if not np.isfinite(op.h_norm(a))]


def _scaled(cfg, key, coeffs):
    """The (key, setting, coeffs) triple of a state scaled by `key`."""
    return key, f"{key} = {cfg[key]:g}", coeffs


def cmd_verify(args):
    cfg, sim, out = _load(args)
    trace, k, verdict = _certify(sim)
    gate = "pass" if verdict.passed else "fail"
    rows = [
        "eta,sigma,theta,delta,kappa,c,c1,c2,trace_q,gate",
        ",".join(
            [_f(k.eta), _f(k.sigma), _f(k.theta), _f(k.delta), _f(k.kappa),
             _f(k.c), _f(k.c1), _f(k.c2), _f(trace), gate]
        ),
    ]
    _write(out / "verify.csv", "\n".join(rows) + "\n")
    _write_meta(out, "verify", {
        "gate": gate,
        "exponential_regime": verdict.exponential_regime,
        "reasons": list(verdict.reasons),
        "defaults_applied": list(cfg.applied_defaults),
    })
    return EXIT_OK if verdict.passed else EXIT_GATE


def _write_trajectory_csv(path, record):
    header = "t,h_norm,l2_norm,lrp1_power"
    lines = [header]
    for i, t in enumerate(record.times):
        if not np.isfinite(record.h_norms[i]):
            break
        lines.append(
            ",".join(
                [_f(t), _f(record.h_norms[i]), _f(record.l2_norms[i]),
                 _f(record.lrp1_powers[i])]
            )
        )
    _write(path, "\n".join(lines) + "\n")


def cmd_simulate(args):
    cfg, sim, out = _load(args)
    errors = _overflow_errors(
        sim.operator, [_scaled(cfg, "sim.initial_scale", solver_mod.initial_coeffs(sim))]
    )
    if errors:
        raise config_mod.ConfigError(errors)
    record = solver_mod.simulate(sim)
    _write_trajectory_csv(out / "simulate.csv", record)
    _write_meta(out, "simulate", {
        "blown_up": record.blown_up,
        "blow_up_time": None if record.blow_up_time is None else _f(record.blow_up_time),
        "blow_up_reason": record.blow_up_reason,
        "scheme": record.scheme,
        "defaults_applied": list(cfg.applied_defaults),
    })
    return EXIT_BLOWUP if record.blown_up else EXIT_OK


def cmd_couple(args):
    cfg, sim, out = _load(args)
    _, k, _ = _certify(sim)
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
    lines = ["t,dist_h,bound_poly,bound_exp"]
    violated = False
    for i, t in enumerate(rec_x.times):
        if not np.isfinite(dist[i]):
            break
        be = "" if bound_exp is None else _f(bound_exp[i])
        lines.append(",".join([_f(t), _f(dist[i]), _f(bound_poly[i]), be]))
        limit = bound_poly[i]
        if bound_exp is not None:
            limit = min(limit, bound_exp[i])
        if dist[i] > BOUND_SLACK * limit + 1e-12:
            violated = True
    _write(out / "couple.csv", "\n".join(lines) + "\n")
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
    _, _, verdict = _certify(sim)
    sample_times = cfg["ensemble.sample_times"] or config_mod.default_sample_times(cfg)
    initials = tuple(config_mod.parse_initial(s) for s in cfg["ensemble.initials"])
    window = cfg["ensemble.fit_window"] or None
    errors = ergodic_mod.window_errors(sample_times, cfg["ensemble.burn_in"], window)
    errors += _overflow_errors(sim.operator, [
        ("ensemble.initials", label, solver_mod.initial_coeffs(sim, preset, scale))
        for label, (preset, scale) in zip(cfg["ensemble.initials"], initials)
    ])
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
        # against the horizon and the dt grid
        errors.insert(0, str(exc))
    if errors:
        raise config_mod.ConfigError(errors)
    report, samples = ergodic_mod.mixing_experiment(
        ens, exponential=verdict.exponential_regime, fit_window=window
    )
    lines = ["t,functional,initial,ptf_estimate,std_err,mixing_gap"]
    for name in samples.functionals:
        for label in samples.func_values:
            mean, se = report.ptf[(name, label)]
            gap = report.mixing_series[(name, label)]
            for i, t in enumerate(report.sample_times):
                lines.append(
                    ",".join([_f(t), name, label, _f(mean[i]), _f(se[i]), _f(gap[i])])
                )
    _write(out / "ergodic.csv", "\n".join(lines) + "\n")
    mom_mean, mom_se, _ = report.moment_estimate
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


def emit_report(out):
    """Build the machine-readable index and a human summary for a run dir."""
    out = Path(out)
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


def cmd_report(args):
    return emit_report(args.out)


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
