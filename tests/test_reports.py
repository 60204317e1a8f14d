"""Golden reports: every operation of the benchmark's three workloads
(``perfbench/workloads.py``) on the corpus with its points unrelabelled,
`verify` of each emitted pair and the malformed documents included, gives
the pinned exit status and the pinned sha256 of its stdout and stderr.

A refactor that should leave the reports byte-identical is checked here.
A change that alters a report on purpose re-records the digests with

    PYTHONPATH=src python3 tests/test_reports.py

and says in its change notes which reports changed and why.
"""

import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Optional

import pytest

import oracles

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_reports.json")
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from og4.cli import _json_chunks, main  # noqa: E402

UNRELABELLED = [1, 2, 3, 4, 5]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def workload_reports(workload: str, directory: Path,
                     stdout: Optional[dict] = None) -> dict[str, dict]:
    """Run the workload's operations in canonical order, in process ->
    {"command input": {"exit", "stdout", "stderr"}}, the streams as
    digests; each stdout itself goes into ``stdout`` if it is given."""
    reports = {}
    for cmd, name in workloads.fixed_ops(workload):
        path = directory / workloads.input_file(name)
        if name in workloads.MALFORMED:
            path.write_text(json.dumps(workloads.MALFORMED[name][1]))
        elif not name.startswith("pair:"):
            path.write_text(json.dumps(workloads.spec(name, UNRELABELLED)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([cmd, str(path)])
        if cmd == "construct" and status == 0:
            pair = json.loads(out.getvalue())["pair"]
            (directory / workloads.input_file(f"pair:{name}")).write_text(json.dumps(pair))
        reports[f"{cmd} {name}"] = {"exit": status, "stdout": _digest(out.getvalue()),
                                    "stderr": _digest(err.getvalue())}
        if stdout is not None:
            stdout[f"{cmd} {name}"] = out.getvalue()
    return reports


@functools.lru_cache(maxsize=None)
def run_workload(workload: str) -> tuple[dict[str, dict], dict[str, str]]:
    """(digests, stdout) of each operation of the workload, run once."""
    stdout: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        return workload_reports(workload, Path(tmp), stdout), stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reports_match_golden(workload):
    golden = json.loads(GOLDEN.read_text())[workload]
    got = run_workload(workload)[0]
    assert sorted(got) == sorted(golden)
    assert [op for op in got if got[op] != golden[op]] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reports_are_json_dumps(workload):
    """Each report the workload prints is ``json.dumps(sort_keys=True,
    indent=2)`` of itself, and the emitter writes the same bytes."""
    for op, text in run_workload(workload)[1].items():
        if text:
            report = json.loads(text)
            assert text == oracles.json_report(report) + "\n", op
            assert "".join(_json_chunks(report)) == oracles.json_report(report), op


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {w: workload_reports(w, Path(tmp)) for w in workloads.WORKLOADS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
