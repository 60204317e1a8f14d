#!/usr/bin/env python3
"""End-to-end benchmark of the og4 CLI over the corpus of tests/conftest.py.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 35 --trace 0

Run from the repository root.  Each operation is one ``og4.cli.main`` call on
one input document, made in a child forked from this process after
``import og4``, one child at a time, so nothing one command caches serves
another.  A run makes whole passes over the workload's operations until
another pass would end past ``--seconds`` (at least one pass) and reports the
median over passes.  Reports are checked after the timed passes by
``checks.py``.  With ``--trace 1`` the same passes are run untraced, then as
many traced, and the per-layer metrics of the traced passes are reported
instead of the end-to-end ones.  The last line of standard output is the
result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy advises transparent huge pages for arrays of 4 MB and more.  Whether
# the kernel grants them depends on the machine's free memory at the moment
# (up to 178 MB of huge pages were in use during one `build` pass), so peak
# RSS and timings would depend on it.  Without the advice every run counts
# the same 4 KiB pages; children inherit the setting.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
from workloads import MALFORMED, WORKLOADS, input_file, seeded_ops, write_inputs  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="import og4, write the input documents into DIR and exit")
    return p.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_setups(args, work: Path) -> tuple[list[float], Path]:
    """Set up from a fresh interpreter several times: start, import og4 and
    write the workload's input documents."""
    times = []
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
                        str(target)], check=True)
        times.append(time.perf_counter() - t0)
    return times, target


def run_op(argv: list[str], out: Path, err: Path, tracer=None, trace_to: Path | None = None):
    """One CLI call in a forked child -> (seconds, peak RSS in MB, exit code).
    With a tracer installed, the child writes its spans to `trace_to`."""
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            for fd, path in ((1, out), (2, err)):
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
            try:
                status = sys.modules["og4.cli"].main(argv)
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
            except BaseException:  # as the interpreter would: traceback, exit 1
                traceback.print_exc()
                status = 1
            sys.stdout.flush()
            sys.stderr.flush()
            if tracer is not None:
                tracer.dump(trace_to)
        finally:
            os._exit(status)
    _, wstatus, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    return seconds, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(wstatus)


def extract_pair(report: Path, target: Path) -> None:
    """Write the `pair` document of a construct report, in a child so the
    parent's own memory, which every later child inherits, stays flat."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            doc = json.loads(report.read_text())["pair"]
            target.write_text(json.dumps(doc))
            code = 0
        finally:
            os._exit(code)
    os.waitpid(pid, 0)


def sha256_of(path: Path) -> str:
    """Digest read in 64 KiB blocks.  Freeing a buffer of 128 KiB or more
    raises glibc's mmap threshold in this process, every later child inherits
    it, and that alone moved tw_cayley's peak RSS from 324 to 352 MB."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    def __init__(self, workload: str, seed: int, inputs: Path, work: Path):
        self.ops = seeded_ops(workload, seed)
        self.inputs = inputs
        self.work = work
        self.first = {}  # op key -> (exit code, digest) of the first pass
        self.mismatch = []
        self.tracer = None

    def one_pass(self, index: int) -> list[tuple[float, float, int]]:
        rows = []
        for cmd, name in self.ops:
            key = f"{cmd}-{input_file(name)[:-5]}"
            out, err = self.work / f"{key}.out", self.work / f"{key}.err"
            seconds, rss, status = run_op([cmd, str(self.inputs / input_file(name))], out, err,
                                          self.tracer, self.work / "spans" / f"{index}-{key}.json")
            rows.append((seconds, rss, status))
            digest = sha256_of(out)
            if key not in self.first:
                self.first[key] = (status, digest)
                shutil.copyfile(out, self.work / "first" / f"{key}.out")
                shutil.copyfile(err, self.work / "first" / f"{key}.err")
                if cmd == "construct" and status == 0:
                    extract_pair(out, self.inputs / input_file(f"pair:{name}"))
            elif self.first[key] != (status, digest):
                self.mismatch.append(key)
        return rows

    def passes(self, seconds: float, count: int | None = None):
        """Whole passes: `count` of them, or while another fits in `seconds`."""
        done = []
        t0 = time.perf_counter()
        while True:
            done.append(self.one_pass(len(done)))
            elapsed = time.perf_counter() - t0
            if count is not None and len(done) >= count:
                return done
            if count is None and elapsed * (len(done) + 1) / len(done) > seconds:
                return done

    def verdicts(self) -> tuple[list[str], int]:
        """(problems, failed operations per pass) from the first-pass reports."""
        from checks import check_report, malformed_outcome

        problems = [f"{key}: report differs between passes" for key in self.mismatch]
        failed = 0
        for cmd, name in self.ops:
            key = f"{cmd}-{input_file(name)[:-5]}"
            status = self.first[key][0]
            out = (self.work / "first" / f"{key}.out").read_text()
            err = (self.work / "first" / f"{key}.err").read_text()
            if name in MALFORMED:
                verdict = malformed_outcome(name, status, out, err)
                if verdict is None:
                    problems.append(f"{key}: exit {status}, unexpected handling")
                failed += verdict == "failed"
                continue
            if status != 0:
                problems.append(f"{key}: exit {status}: {(err or out).strip()[-300:]}")
                failed += 1
                continue
            family = name[5:] if name.startswith("pair:") else name
            problems += [f"{key}: {p}" for p in check_report(cmd, family, out)]
        return problems, failed


def summarize(passes) -> dict[str, float]:
    def med(f):
        return statistics.median(f(rows) for rows in passes)

    return {
        "wall_s": med(lambda rows: sum(r[0] for r in rows)),
        "max_command_s": med(lambda rows: max(r[0] for r in rows)),
        "geomean_command_s": med(lambda rows: math.exp(
            sum(math.log(r[0]) for r in rows) / len(rows))),
        "peak_rss_mb": med(lambda rows: max(r[1] for r in rows)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "og4" / "__init__.py").is_file():
        sys.stderr.write(f"error: og4 sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        import og4  # noqa: F401  (the import is part of what set-up costs)

        write_inputs(args.workload, args.seed, Path(args.setup_only))
        return 0

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "first").mkdir(parents=True)
    (work / "spans").mkdir()
    setup_times, inputs = timed_setups(args, work)
    import og4
    import og4.cli  # noqa: F401
    import numpy

    runner = Runner(args.workload, args.seed, inputs, work)
    plain = runner.passes(args.seconds)
    n = len(plain)
    traced = []
    if args.trace:
        import spans

        runner.tracer = spans.Tracer()
        spans.install(runner.tracer)
        traced = runner.passes(args.seconds, count=n)
        layer = spans.aggregate(sorted((work / "spans").iterdir()), n)
        layer["cli.report_bytes"] = sum(p.stat().st_size for p in (work / "first").glob("*.out"))
        layer["trace.overhead_s"] = summarize(traced)["wall_s"] - summarize(plain)["wall_s"]
        units = spans.metric_units()
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
    else:
        e2e = {"setup_s": statistics.median(setup_times), **summarize(plain)}
        units = {"setup_s": "s", "wall_s": "s", "max_command_s": "s",
                 "geomean_command_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in units.items()}

    problems, failed_per_pass = runner.verdicts()
    passes_run = n * (2 if args.trace else 1)
    attempted = passes_run * len(runner.ops)
    conditions = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes_run, "attempted": attempted,
        "failed": failed_per_pass * passes_run, "backend": og4.BACKEND,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "setup_s_samples": setup_times,
    }
    (work / "conditions.json").write_text(json.dumps(conditions, indent=2))
    (work / "operations.json").write_text(json.dumps([
        [{"op": f"{cmd} {name}", "seconds": s, "peak_rss_mb": rss, "exit": status}
         for (cmd, name), (s, rss, status) in zip(runner.ops, rows)]
        for rows in plain + traced], indent=1))
    print(json.dumps({"conditions": conditions}))
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed_per_pass * passes_run, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
