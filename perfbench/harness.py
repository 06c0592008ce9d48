"""Runs one workload in this process, measures it and checks its outputs.

Every operation is one in-process ``specklesim.cli.main`` call.  A pass
runs all operations of the workload once.  The first pass is a warm-up:
it is not timed, and its artifacts are the reference that every later
pass must reproduce byte for byte and that the physics checks read.
A plain run also times fresh-interpreter set-up, spread over the run.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import specklesim.cli as cli

import checks
import spans
from workloads import Operation, Workload, argv, nproc, op_seed, write_inputs

HERE = Path(__file__).resolve().parent

SETUP_REPS = 15

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# A fresh interpreter does what every CLI call pays for before work
# starts: import specklesim and write the workload's inputs.
_SETUP_PROBE = (
    "import sys\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import specklesim.cli\n"
    "from pathlib import Path\n"
    "import workloads\n"
    "workloads.write_inputs(workloads.WORKLOADS[sys.argv[3]], Path(sys.argv[4]))\n"
)


@dataclass
class OpRun:
    op: str
    seconds: float
    cpu_seconds: float
    error: str
    files: dict[str, bytes]


@dataclass
class Measurement:
    reference: list[OpRun]
    passes: list[list[OpRun]]
    traced: list[list[OpRun]] = field(default_factory=list)
    tracer: spans.Tracer | None = None
    peak_rss_mb: float = 0.0
    checks: dict[str, list[checks.Check]] = field(default_factory=dict)
    setup: list[float] = field(default_factory=list)


def setup_time(workload: Workload, src: Path, target: Path) -> float:
    """Wall time from interpreter start to ready, in one fresh process."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(src), str(HERE), workload.name, str(target)],
        check=True,
    )
    return time.perf_counter() - start


def _artifacts(out_dir: Path) -> dict[str, bytes]:
    # names are <scenario>_seed<seed>.<name>; key by <name>
    return {p.name.split(".", 1)[1]: p.read_bytes() for p in sorted(out_dir.iterdir())}


def run_pass(calls: list[tuple[Operation, list[str], Path]]) -> list[OpRun]:
    runs = []
    for op, args, out_dir in calls:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            code = cli.main(args)
            error = "" if code == 0 else f"exit code {code}"
        except Exception as exc:  # an operation that raises is reported, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        runs.append(OpRun(op.name, elapsed, cpu, error, _artifacts(out_dir)))
    return runs


def _timed_passes(calls, seconds: float, after_pass=None) -> list[list[OpRun]]:
    """Run passes until ``seconds`` have gone; ``after_pass`` gets the share gone."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(calls))
        if after_pass is not None:
            after_pass((time.perf_counter() - start) / seconds)
    return passes


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path, src: Path | None = None
) -> Measurement:
    """Warm up, time passes for ``seconds``, then check the artifacts.

    With ``trace`` the time is split: untraced passes first, then passes
    with the span recorder installed.  The recorder is removed before
    the checks run.  Without ``trace`` and with ``src`` given,
    ``SETUP_REPS`` set-up probes run between the timed passes, evenly
    over the run, so that their median sees the same machine as the
    passes do.
    """
    inputs = work / "inputs"
    write_inputs(workload, inputs)
    calls = [(op, argv(op, seed, inputs, work / "out" / op.name), work / "out" / op.name) for op in workload.operations]
    result = Measurement(run_pass(calls), [])

    def probe_setup(share: float) -> None:
        while len(result.setup) < min(SETUP_REPS, math.ceil(SETUP_REPS * share)):
            result.setup.append(setup_time(workload, src, work / "setup" / str(len(result.setup))))

    probing = src is not None and not trace
    result.passes = _timed_passes(calls, seconds / 2 if trace else seconds, probe_setup if probing else None)
    if probing:
        probe_setup(1.0)
    if trace:
        result.tracer = spans.Tracer()
        result.tracer.install()
        try:
            result.traced = _timed_passes(calls, seconds / 2)
        finally:
            result.tracer.uninstall()
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ran = {run.op: run.files for run in result.reference if not run.error}
    result.checks = checks.check_operations(
        ran,
        {op.name: inputs / op.config for op in workload.operations},
        {op.name: op_seed(seed, op) for op in workload.operations},
    )
    return result


@dataclass
class Outcome:
    attempted: int
    failed: int
    correct: bool
    reasons: list[str]


def outcome(m: Measurement) -> Outcome:
    """Count the workload's operations and those that failed.

    Each operation is counted once, however many passes fit in the run,
    so that ``attempted`` and ``failed`` depend on the seed and the
    program, never on the machine's speed.  An operation fails when any
    of its calls exits non-zero or raises, when any call's artifacts
    differ from the warm-up's, or when a check on the warm-up's
    artifacts fails.  ``correct`` is false when a call errs, is not
    deterministic, or fails an exact check.
    """
    reference = {run.op: run for run in m.reference}
    calls: dict[str, list[OpRun]] = {op: [] for op in reference}
    for runs in [m.reference, *m.passes, *m.traced]:
        for run in runs:
            calls[run.op].append(run)
    correct = True
    reasons: list[str] = []
    for op, runs in calls.items():
        why = list(dict.fromkeys(run.error for run in runs if run.error))
        if any(not run.error and run.files != reference[op].files for run in runs):
            why.append("artifacts differ from the warm-up pass")
        correct = correct and not why
        bad = [c for c in m.checks.get(op, []) if not c.ok]
        correct = correct and not any(c.exact for c in bad)
        why += [f"check {c.name}" for c in bad]
        if why:
            reasons.append(f"{op}: {'; '.join(why)}")
    return Outcome(len(calls), len(reasons), correct, reasons)


def artifact_digest(runs: list[OpRun]) -> str:
    h = hashlib.sha256()
    for run in runs:
        for name, data in sorted(run.files.items()):
            h.update(f"{run.op}/{name}/{len(data)}\n".encode())
            h.update(data)
    return h.hexdigest()


def environment(root: Path) -> dict[str, object]:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    git = {"sha": "unavailable: not a git checkout", "dirty": None}
    if (root / ".git").exists() and shutil.which("git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True)
        if sha.returncode == 0 and status.returncode == 0:
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARS},
        "git": git,
    }


def pass_seconds(passes: list[list[OpRun]]) -> list[float]:
    return [sum(run.seconds for run in runs) for runs in passes]


def layer_metrics(m: Measurement) -> dict[str, float]:
    """Per-layer metrics of a traced measurement, every value per pass."""
    out = spans.layer_metrics(m.tracer, len(m.traced))
    generation = out.get("medium.gaussian_transmission_matrix.s")
    if generation is not None:
        out["medium.mentries_per_s"] = out["medium.entries_generated"] / 1e6 / generation if generation else 0.0
    counting = out.get("twophoton.montecarlo_counts.s")
    if counting is not None:
        out["twophoton.montecarlo_counts.pulses_per_s"] = (
            out["twophoton.montecarlo_counts.pulses"] / counting if counting else 0.0
        )
    wall = pass_seconds(m.passes)
    cpu = [sum(run.cpu_seconds for run in runs) for runs in m.passes]
    out["cli.cpu_s"] = statistics.median(cpu)
    out["cli.cpu_per_wall"] = sum(cpu) / sum(wall)
    out["trace.overhead_frac"] = statistics.median(pass_seconds(m.traced)) / statistics.median(wall) - 1.0
    return out


UNITS = {
    ".calls": "count",
    ".self_s": "s",
    ".s": "s",
    "cli.cpu_s": "s",
    ".entries_generated": "count",
    ".segments": "count",
    ".pulses": "count",
    ".mentries_per_s": "Mentries/s",
    ".pulses_per_s": "1/s",
    ".bytes": "B",
    ".cpu_per_wall": "1",
    ".overhead_frac": "1",
}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)

