"""What `repro serve` and `repro serve --resume` import.

A killed service answers again only after its interpreter has imported
everything on the serving path, so that path must not pull in the
analysis stack's heavy libraries: SciPy and networkx are imported inside
the functions that call them.  The check runs in a fresh interpreter --
this pytest process has long since imported both.
"""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from repro.api import build_pipeline, load_spec
from repro.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def payload(step):
    """One sequenced JSON payload per 0.5 s step, ``back`` trailing
    ``front`` by a second (the child runs this same source)."""
    t = 0.5 * step
    return json.dumps({"source": "s1", "seq": step, "batches": [
        {"component": "front", "time": t,
         "metrics": {"cpu": 0.5 + 0.3 * math.sin(t / 3.0)
                            + 0.01 * (step % 7),
                     "mem": 100.0 + step % 5}},
        {"component": "back", "time": t,
         "metrics": {"cpu": 0.4 + 0.2 * math.sin((t - 1.0) / 3.0)
                            + 0.02 * (step % 3),
                     "mem": 80.0 + step % 11}},
    ]}).encode()


_CHILD = '''
import json, math, sys
import repro.cli
from repro.api import build_pipeline, load_spec
''' + inspect.getsource(payload) + '''

def heavy():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in ("scipy", "networkx"))

fresh_spec, resume_spec, step = sys.argv[1], sys.argv[2], int(sys.argv[3])
report = {"after_import": heavy()}
build_pipeline(load_spec(fresh_spec)).close()
report["after_serve"] = heavy()
session = build_pipeline(load_spec(resume_spec))
report["after_resume"] = heavy()
windows = report["restored_windows"] = session.engine.stats.windows
while session.engine.stats.windows == windows:
    session.service.handle_ingest("application/json", payload(step))
    step += 1
report["reasons"] = session.engine.latest().recluster_reasons
report["after_window"] = heavy()
session.close()
print(json.dumps(report))
'''


def _spec(tmp_path, name, *extra):
    """Write the spec ``repro serve`` resolves, with every window a
    full refresh, so the child's first window clusters and tests."""
    out = tmp_path / f"{name}.json"
    argv = ["serve", "--port", "0", "--topology", "front:back",
            "--journal", str(tmp_path / f"{name}.journal"),
            "--checkpoint", str(tmp_path / f"{name}.ckpt"), *extra]
    assert main(["spec", *argv, "-o", str(out)]) == 0
    spec = json.loads(out.read_text())
    spec["streaming"]["full_refresh_windows"] = 1
    out.write_text(json.dumps(spec))
    return out


def test_serve_and_resume_import_neither_scipy_nor_networkx(tmp_path):
    # A service that analyzed windows, checkpointed and journaled
    # past its last checkpoint, then went away.
    session = build_pipeline(load_spec(_spec(tmp_path, "run")))
    step = 0
    while session.engine.stats.windows < 2:
        session.service.handle_ingest("application/json", payload(step))
        step += 1
    for step in range(step, step + 6):
        session.service.handle_ingest("application/json", payload(step))
    session.close()
    resume = _spec(tmp_path, "run", "--resume")
    fresh = _spec(tmp_path, "fresh")

    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(fresh), str(resume),
         str(step + 1)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["after_import"] == []
    assert report["after_serve"] == []
    assert report["after_resume"] == []
    assert report["restored_windows"] == 2
    # The window really clustered and Granger-tested (which is where
    # scipy.special and scipy.cluster load) ...
    assert set(report["reasons"].values()) == {"refresh"}
    assert "scipy.special" in report["after_window"]
    # ... without scipy.stats or networkx.
    assert not [name for name in report["after_window"]
                if name.startswith(("scipy.stats", "networkx"))]
