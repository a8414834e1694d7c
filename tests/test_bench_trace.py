"""The benchmark's tracer still sees every layer a CLI job must reach.

hsbench/tracer.py times the library by swapping module attributes for
timing wrappers, so a call made around a wrapped name goes unseen, and the
benchmark fails that traced job. This runs the tracer on a tiny flat job and
a three-value eta sweep, and checks the calls it counted against the calls
`hsbench/harness.py` requires of those commands.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import hsseg

BENCH = Path(__file__).resolve().parents[1] / "hsbench"


def test_tracer_sees_every_required_call(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import inputs

    rng = np.random.default_rng(0)
    hsseg.write_cube(hsseg.SpectralCube(rng.integers(0, 3, size=(6, 7, 2)).astype(float)),
                     tmp_path / "cube.hsc")
    jobs = [
        inputs.Job("flat", "flat", "flat",
                   ("flat", "--input", "cube.hsc", "--lambda", "1", "--outdir", "flat")),
        inputs.Job("sweep-eta", "sweep", "eta",
                   ("sweep", "--algo", "eta", "--input", "cube.hsc", "--lambda", "inf",
                    "--param", "0:2:1", "--outdir", "sweep"), grid=(0.0, 1.0, 2.0)),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(hsseg.__file__).parents[1]))
    for job in jobs:
        spans = tmp_path / f"{job.name}.json"
        proc = subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans), *job.args],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(spans.read_text())["calls"]
        required = harness.required_calls(job)
        assert ("metrics.build_metric",) in required
        for names, least in required.items():
            assert sum(calls.get(name, 0) for name in names) >= least, (job.name, names, calls)
