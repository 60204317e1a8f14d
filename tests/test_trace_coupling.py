"""The benchmark's tracer (perfbench/spans.py) wraps og4 functions by name
from outside the package, and perfbench/run.py reads ``og4.BACKEND``.  This
test installs the tracer in a fresh interpreter and runs one CLI command, so
renaming or deleting a wrapped name fails here, not only in traced runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
import og4
import og4.cli
from spans import Tracer, install

tracer = Tracer()
install(tracer)
status = og4.cli.main(["classify", sys.argv[1]])
sys.stderr.write(f"backend={og4.BACKEND} status={status} spans={len(tracer.spans)}\\n")
sys.exit(0 if status == 0 and tracer.spans else 1)
"""


def test_traced_classify_records_spans(tmp_path):
    doc = tmp_path / "lex3.json"
    doc.write_text(json.dumps({"family": "lex_cycle", "r": 3}))
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(doc)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["basic_type"] == "Cycle"
