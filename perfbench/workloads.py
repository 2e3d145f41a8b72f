"""The three benchmark workloads: spme configs, expected counts, checks.

Each workload is one `spme` subcommand at an acceptance-suite config;
the noise seed is passed on the command line.  `expected_counts` gives
the exact per-layer call counts a traced run must reproduce, so a
wrapper that never hooks shows up as a count mismatch; `check` is the
correctness gate applied to the artifacts of every run.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDENS = Path(__file__).parent / "goldens.json"  # CSV sha256 at the acceptance seeds

BLOCK = 256  # spme.solver buffers noise increments in blocks of this many steps

_DECAY = """\
operator.n_modes = 64
operator.grid_size = 512
model.psi = odd_power
noise.profile = zero
sim.dt = 0.0001
sim.t_end = {t_end!r}
sim.scheme = tamed_em
sim.record_every = 100
sim.initial = e1
sim.initial_scale = {scale!r}
sim.gate_override = true
"""

_COUPLE = """\
operator.n_modes = 32
operator.grid_size = 256
model.psi = odd_power
noise.profile = diagonal_power
noise.c = 0.2
noise.a = 1.0
noise.seed = 7
sim.dt = 0.0001
sim.t_end = {t_end!r}
sim.scheme = tamed_em
sim.record_every = 1
sim.initial = e1
sim.initial_scale = 1.0
sim.initial_y = e1
sim.initial_y_scale = -1.0
"""

_MIXING = """\
operator.n_modes = 32
operator.grid_size = 256
model.psi = odd_power
noise.profile = diagonal_power
noise.c = 0.03
noise.a = 1.0
noise.seed = 13
sim.dt = 0.00025
sim.t_end = {t_end!r}
sim.scheme = tamed_em
sim.record_every = 400
ensemble.n_traj = {n_traj}
ensemble.burn_in = {burn_in!r}
ensemble.sample_times = {times}
ensemble.fit_window = {fit_lo!r},{fit_hi!r}
ensemble.initials = zero,e1,10*e1
ensemble.functionals = tanh_h_norm
"""

# criterion 5 runs to t_end = 10 (about 6 minutes here); the benchmark
# keeps its per-step shape and scales the horizon, burn-in, sample
# times and fit window by MIXING_T_END / 10
MIXING_T_END = 0.1
MIXING_PRESETS = 3
MIXING_SAMPLES = 18


def _mixing_text(t_end, n_traj):
    s = t_end / 10.0
    times = ",".join(f"{t:.17g}" for t in np.geomspace(0.1 * s, 10.0 * s, MIXING_SAMPLES))
    return _MIXING.format(t_end=t_end, n_traj=n_traj, burn_in=2.0 * s,
                          times=times, fit_lo=0.1 * s, fit_hi=1.5 * s)


def _records(steps, every):
    return len(range(0, steps + 1, every)) + (steps % every != 0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # spme subcommand
    seed: int  # acceptance seed: the goldens hold at this seed
    seed_free: bool  # outputs do not depend on the seed at all
    steps: int
    rows: int  # trajectory rows integrated per step, over all presets
    batch: int  # rows stepped together by one transform call
    n_modes: int
    grid_size: int
    text: str  # config document
    warm_text: str  # same shapes, short horizon: fills plan caches

    def argv(self, cfg, out, seed):
        return [self.command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]

    @property
    def traj_steps(self):
        return self.steps * self.rows

    def working_set(self):
        """Bytes of the arrays one step touches, computed from the shape."""
        noisy = self.name != "decay"
        return {"batch_rows": self.batch,
                "grid_array": 8 * self.batch * self.grid_size,
                "coeff_array": 8 * self.batch * self.n_modes,
                "noise_block": 8 * self.batch * BLOCK * self.n_modes * noisy}

    def expected_counts(self):
        n = self.steps
        if self.name == "decay":
            return {"basis.synth.calls": n + _records(n, 100), "basis.analyze.calls": n,
                    "model.certify.calls": 0, "noise.sample_block.calls": 0,
                    "noise.normals_drawn": 0, "solver.traj_steps": n}
        if self.name == "couple":
            return {"basis.synth.calls": 2 * n + _records(n, 1), "basis.analyze.calls": 2 * n,
                    "model.certify.calls": 2,
                    "noise.sample_block.calls": math.ceil(n / BLOCK),
                    "noise.normals_drawn": n * self.n_modes, "solver.traj_steps": 2 * n}
        return {"model.certify.calls": 1 + MIXING_PRESETS,
                "noise.sample_block.calls": self.rows * math.ceil(n / BLOCK),
                "noise.normals_drawn": self.rows * n * self.n_modes,
                "solver.traj_steps": self.rows * n}

    def check(self, code, out, seed):
        """Failures of one run, each naming the artifact at fault."""
        fails = []
        goldens = json.loads(GOLDENS.read_text())[self.name]
        if code != 0:
            fails.append(f"spme {self.command} exited {code}, expected 0")
        for name in goldens:
            if not (out / name).exists():
                fails.append(f"{name}: missing")
        if fails:
            return fails
        for path in sorted(out.iterdir()):
            bad = _first_nonfinite(path)
            if bad is not None:
                fails.append(f"{path.name}: non-finite value {bad!r}")
        if self.seed_free or seed == self.seed:
            for name, digest in goldens.items():
                got = hashlib.sha256((out / name).read_bytes()).hexdigest()
                if got != digest:
                    fails.append(f"{name}: sha256 {got} differs from golden {digest}")
        fails += getattr(self, f"_check_{self.name}")(out)
        return fails

    def _check_decay(self, out):
        # criterion 1: ||X_t||_H ~ t^(-1/(r-1)) = t^(-1/2) on [0.5, 5]
        t, h = _columns(out / "simulate.csv", "t", "h_norm")
        win = (t >= 0.5) & (t <= 5.0)
        slope = np.polyfit(np.log(t[win]), np.log(h[win]), 1)[0]
        if not -0.65 <= slope <= -0.35:
            return [f"simulate.csv: decay exponent {slope:.4f} outside [-0.65, -0.35]"]
        return []

    def _check_couple(self, out):
        # criterion 2: the shared-noise distance never grows, at any seed
        (dist,) = _columns(out / "couple.csv", "dist_h")
        fails = []
        if len(dist) != _records(self.steps, 1):
            fails.append(f"couple.csv: {len(dist)} rows, expected {_records(self.steps, 1)}")
        if np.any(np.diff(dist) > 1e-9):
            fails.append("couple.csv: coupled H-distance grows")
        return fails

    def _check_mixing(self, out):
        lines = (out / "ergodic.csv").read_text().splitlines()
        want = 1 + MIXING_PRESETS * MIXING_SAMPLES
        if len(lines) != want:
            return [f"ergodic.csv: {len(lines)} lines, expected {want}"]
        return []


def _columns(path, *names):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return [np.atleast_1d(data[n]) for n in names]


def _first_nonfinite(path):
    """First value in a CSV or JSON artifact that parses as a float but is not finite."""
    text = path.read_text()
    if path.suffix == ".json":
        cells = []
        stack = [json.loads(text)]
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
    for cell in cells:
        try:
            x = float(cell)
        except ValueError:
            continue
        if not math.isfinite(x):
            return cell
    return None


def _build():
    decay_scale = 1.0 * np.pi  # initial e1 at H-norm 1
    mixing_rows = MIXING_PRESETS * 500
    return {
        "decay": Workload(
            "decay", "simulate", seed=0, seed_free=True, steps=50_000, rows=1,
            batch=1, n_modes=64, grid_size=512,
            text=_DECAY.format(t_end=5.0, scale=decay_scale),
            warm_text=_DECAY.format(t_end=0.05, scale=decay_scale)),
        "couple": Workload(
            "couple", "couple", seed=7, seed_free=False, steps=50_000, rows=2,
            batch=1, n_modes=32, grid_size=256,
            text=_COUPLE.format(t_end=5.0), warm_text=_COUPLE.format(t_end=0.05)),
        "mixing": Workload(
            "mixing", "ergodic", seed=13, seed_free=False,
            steps=round(MIXING_T_END / 0.00025), rows=mixing_rows,
            batch=500, n_modes=32, grid_size=256,
            text=_mixing_text(MIXING_T_END, 500),
            warm_text=_mixing_text(MIXING_T_END, 20)),
    }


WORKLOADS = _build()
