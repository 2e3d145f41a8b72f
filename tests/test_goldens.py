"""The benchmark's own output gate: each perfbench workload at its acceptance seed.

`perfbench/workloads.py` and `perfbench/tracer.py` are loaded read-only
from their files, so the workloads, their sha256 goldens, their checks
and their pinned per-layer counts are exactly the ones the benchmark
applies to every run.
"""

import importlib.util
from pathlib import Path

import pytest

from spme.cli import main

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer_mod = _load("tracer")

# summed on the shard threads through the tracer's unlocked Counter, so a
# count can be lost when mixing steps its batches on two threads
_UNPINNED = {"mixing": {"noise.normals_drawn"}}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_golden(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(wl.text)
    out = tmp_path / "out"
    tracer = tracer_mod.Tracer()
    with tracer_mod.installed(tracer):
        code = main(wl.argv(cfg, out, wl.seed))
    assert wl.check(code, out, wl.seed) == []
    calls = {f"{metric}.calls": n for metric, (n, _, _) in tracer.summary().items()}
    for key, want in wl.expected_counts().items():
        if key not in _UNPINNED.get(name, ()):
            got = calls[key] if key.endswith(".calls") else tracer.counts[key]
            assert got == want, key


# the certificates that feed couple.csv's envelopes, at the couple workload's model
VERIFY_AT_COUPLE = (
    b"eta,sigma,theta,delta,kappa,c,c1,c2,trace_q,gate\n"
    b"0.24999999999999992,0,0,0,3,1,0,0,0.0043864908449286052,pass\n"
)


def test_verify_matches_golden_at_the_couple_model(tmp_path):
    wl = workloads.WORKLOADS["couple"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(wl.text)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--seed", str(wl.seed)]) == 0
    assert (out / "verify.csv").read_bytes() == VERIFY_AT_COUPLE
