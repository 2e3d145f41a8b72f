"""spme starts without importing any scipy package.

Each check runs in a fresh interpreter: other test modules import
scipy.fft and scipy.special into the pytest session.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CERTIFY = """
import sys
import spme.cli
from spme import config, model, noise

for text in sys.argv[1:]:
    sim = config.build_sim(config.parse_config(text))
    model.certify_constants(sim.model, sim.operator.eigenvalue(1),
                            noise.trace(sim.noise, sim.operator))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

DST_BYTES = """
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.fft
from spme import basis
import scipy.fft

x = np.random.default_rng(12).standard_normal((3, 256))
for kind in (2, 3):
    want = scipy.fft.dst(x, type=kind, axis=-1).tobytes()
    assert basis.dst(x, kind, (-1,), 0, None, 1, None).tobytes() == want
    buf = x.copy()
    basis.dst(buf, kind, (-1,), 0, buf, 1, None)
    assert buf.tobytes() == want
print("ok")
"""


def run(code, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    res = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_start_up_imports_no_scipy_package():
    # the couple and mixing benchmark configs: both certify a noise trace
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = [workloads.WORKLOADS[name].text for name in ("couple", "mixing")]
    assert run(CERTIFY, *texts) == "[]"


@pytest.mark.parametrize("order", ["before", "after"])
def test_loaded_dst_is_scipy_fft_dst_in_either_import_order(order):
    assert run(DST_BYTES, order) == "ok"
