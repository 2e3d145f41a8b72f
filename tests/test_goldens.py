"""The benchmark's own output gate: each perfbench workload at its acceptance seed.

`perfbench/workloads.py` is loaded read-only from its file, so the
workloads, their sha256 goldens and their checks are exactly the ones
the benchmark applies to every run.
"""

import importlib.util
from pathlib import Path

import pytest

from spme.cli import main

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_golden(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(wl.text)
    out = tmp_path / "out"
    code = main(wl.argv(cfg, out, wl.seed))
    assert wl.check(code, out, wl.seed) == []
