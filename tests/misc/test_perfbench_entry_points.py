"""The benchmark's per-layer tracer wraps program entry points by name;
a renamed or removed one must fail here, not only in a full benchmark
run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


def test_every_traced_entry_point_exists():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
