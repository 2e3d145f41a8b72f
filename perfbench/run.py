#!/usr/bin/env python3
"""spme benchmark: one `spme` CLI workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload decay|couple|mixing|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the spme sources are taken from `src/` beside this
directory and artifacts go to `.bench_run/` there.  The workload runs in
this process, single-threaded, repeated until `--seconds` of wall time
are spent, after one short warm-up run.  Set-up time is measured in
fresh interpreters, one per sample.  With `--trace 0` the last line of
stdout is a JSON object with the end-to-end metrics; with `--trace 1`
untraced and traced runs alternate and it holds the per-layer metrics.
See perfbench/README.md.
"""

import os
import sys

# Pin native thread pools before numpy loads.  spme parses --jobs/SPME_JOBS
# but does not use it, so the benchmark passes neither.  A fixed hash seed
# makes allocation order, and with it peak RSS, repeat from run to run;
# it takes effect only at interpreter start, hence the re-exec.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
os.environ.pop("SPME_JOBS", None)
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_SAMPLES = 7

END_TO_END = {"wall_s": "s", "traj_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "basis.synth.calls": "count", "basis.synth.self_s": "s",
    "basis.analyze.calls": "count", "basis.analyze.self_s": "s",
    "basis.rows_transformed": "count", "basis.norms.self_s": "s",
    "model.psi.self_s": "s", "model.psi_prime.self_s": "s",
    "model.certify.calls": "count", "model.certify.self_s": "s",
    "noise.sample_block.calls": "count", "noise.sample_block.self_s": "s",
    "noise.normals_drawn": "count",
    "solver.integrate.wall_s": "s", "solver.integrate.self_s": "s",
    "solver.traj_steps": "count", "solver.blown": "count", "solver.live_row_ratio": "ratio",
    "bounds.self_s": "s", "ergodic.ensemble.self_s": "s", "ergodic.estimate.self_s": "s",
    "config.parse.self_s": "s", "cli.self_s": "s", "cli.artifact_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import spme.cli
from spme import config, model, noise
cfg = config.parse_config(open(sys.argv[1]).read()).with_value("noise.seed", int(sys.argv[2]))
sim = config.build_sim(cfg)
if not sim.gate_override:
    model.certify_constants(sim.model, sim.operator.eigenvalue(1),
                            noise.trace(sim.noise, sim.operator))
t1 = time.perf_counter()
if not spme.__file__.startswith(sys.argv[3]):
    sys.exit("imported spme from " + spme.__file__)
print(repr(t1 - t0))
"""


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spme():
    if not (SRC / "spme" / "cli.py").is_file():
        fail(f"no spme sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import spme.cli

    if not spme.__file__.startswith(str(SRC)):
        fail(f"imported spme from {spme.__file__}, not {SRC}")
    return spme.cli


def environment(wl):
    import numpy as np
    import scipy
    import scipy.fft

    l2 = {}  # one entry per distinct L2 instance
    for d in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index2"):
        l2[(d / "shared_cpu_list").read_text().strip()] = (d / "size").read_text().strip()

    status = Path("/proc/self/status")
    threads = next((line.split()[1] for line in status.read_text().splitlines()
                    if line.startswith("Threads:")), "unknown") if status.exists() else "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "process_threads": threads,
        "jobs": "spme --jobs/SPME_JOBS is parsed but unused; the benchmark passes neither",
        "l2_instances": sorted(l2.values()),
        "working_set_bytes_computed": wl.working_set(),
    }


def measure_setup(cfg, seed):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(cfg), str(seed), str(SRC)],
                             cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            fail(f"set-up run failed: {res.stderr.strip()}")
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_once(cli, wl, cfg, out, seed):
    if out.exists():
        shutil.rmtree(out)
    t0 = time.perf_counter()
    code = cli.main(wl.argv(cfg, out, seed))
    return time.perf_counter() - t0, code


def layer_metrics(summary, counts, out):
    def self_s(metric):
        return summary[metric][2]

    integrate = summary["solver.integrate"]
    attempted = counts["solver.traj_steps"]
    return {
        "basis.synth.calls": summary["basis.synth"][0],
        "basis.synth.self_s": self_s("basis.synth"),
        "basis.analyze.calls": summary["basis.analyze"][0],
        "basis.analyze.self_s": self_s("basis.analyze"),
        "basis.rows_transformed": counts["basis.rows_transformed"],
        "basis.norms.self_s": self_s("basis.norms"),
        "model.psi.self_s": self_s("model.psi"),
        "model.psi_prime.self_s": self_s("model.psi_prime"),
        "model.certify.calls": summary["model.certify"][0],
        "model.certify.self_s": self_s("model.certify"),
        "noise.sample_block.calls": summary["noise.sample_block"][0],
        "noise.sample_block.self_s": self_s("noise.sample_block"),
        "noise.normals_drawn": counts["noise.normals_drawn"],
        "solver.integrate.wall_s": integrate[1],
        "solver.integrate.self_s": integrate[2],
        "solver.traj_steps": attempted,
        "solver.blown": counts["solver.blown"],
        "solver.live_row_ratio": counts["solver.live_traj_steps"] / max(attempted, 1),
        "bounds.self_s": self_s("bounds"),
        "ergodic.ensemble.self_s": self_s("ergodic.ensemble"),
        "ergodic.estimate.self_s": self_s("ergodic.estimate"),
        "config.parse.self_s": self_s("config.parse"),
        "cli.self_s": self_s("cli"),
        "cli.artifact_bytes": sum(p.stat().st_size for p in out.iterdir()),
    }


def count_failures(wl, layer):
    return [f"{k} = {layer[k]}, expected {v}"
            for k, v in wl.expected_counts().items() if layer[k] != v]


def run_workload(args):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    cli = load_spme()
    seed = wl.seed if args.seed is None else args.seed
    work = RUN_DIR / wl.name
    work.mkdir(parents=True, exist_ok=True)
    cfg, warm_cfg, out = work / "run.cfg", work / "warm.cfg", work / "out"
    cfg.write_text(wl.text)
    warm_cfg.write_text(wl.warm_text)

    setup_s = None if args.trace else measure_setup(cfg, seed)
    run_once(cli, wl, warm_cfg, work / "warm", seed)

    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    walls = {False: [], True: []}
    layers, failures = [], []
    start = time.perf_counter()
    while True:  # whole untraced/traced cycles until --seconds are spent
        cycle = 0.0
        for traced in (False, True) if args.trace else (False,):
            with tracer_mod.installed(tracer) if traced else contextlib.nullcontext():
                wall, code = run_once(cli, wl, cfg, out, seed)
            fails = wl.check(code, out, seed)
            if traced:
                layers.append(layer_metrics(tracer.summary(), tracer.counts, out))
                fails += count_failures(wl, layers[-1])
            walls[traced].append(wall)
            cycle += wall
            if fails:
                failures.append(fails)
                for f in fails:
                    print(f"FAIL {wl.name} run {len(walls[False]) + len(walls[True])}: {f}")
        if time.perf_counter() - start + 0.5 * cycle >= args.seconds:
            break
    attempted = len(walls[False]) + len(walls[True])

    env = environment(wl)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        tracer.save(work / "spans.npz")
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead_ratio":
                continue
            values = [layer[name] for layer in layers]
            metrics[name] = values[0] if PER_LAYER[name] == "count" else statistics.median(values)
        metrics["trace.overhead_ratio"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        units = PER_LAYER
        (work / "trace.json").write_text(json.dumps(
            {"env": env, "runs": layers, "untraced_wall_s": walls[False],
             "traced_wall_s": walls[True]}, indent=1) + "\n")
    else:
        wall_s = statistics.median(walls[False])
        metrics = {
            "wall_s": wall_s,
            "traj_steps_per_s": wl.traj_steps / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END
    report(wl, seed, metrics, units, attempted, len(failures), walls, args.trace)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def report(wl, seed, metrics, units, attempted, failed, walls, trace):
    runs = walls[False] + walls[True]
    print(f"workload {wl.name}: spme {wl.command}, seed {seed}, {attempted} runs "
          f"({len(walls[True])} traced), run wall {min(runs):.4f} .. {max(runs):.4f} s")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':28s} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    if trace:
        listed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"  sum of layer self_s {listed:.4f} s beside solver.integrate.wall_s "
              f"{metrics['solver.integrate.wall_s']:.4f} s and run wall "
              f"{statistics.median(walls[True]):.4f} s")


def run_all(args):
    from workloads import WORKLOADS

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        res = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = res.stdout.splitlines()
        if res.returncode != 0 or not lines:
            fail(f"workload {name} failed: {res.stderr.strip()}")
        print("\n".join(lines[:-1]))
        sub = json.loads(lines[-1])
        result["correct"] &= sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        for k, v in sub["metrics"].items():
            result["metrics"][f"{name}.{k}"] = v
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["decay", "couple", "mixing", "all"])
    p.add_argument("--seed", type=int, default=None,
                   help="noise seed; default: the workload's acceptance seed")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
