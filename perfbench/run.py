"""specklesim benchmark: one workload per process, measured end to end
or traced per layer.

    python3 perfbench/run.py --workload shaped-scan --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a source checkout; it imports ``specklesim``
from ``src/`` there and from nowhere else.  Working files go to
``perfbench/.work/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  ``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; the program's seeds derive from it")
    parser.add_argument("--seconds", type=float, default=30.0, help="time spent in measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import specklesim from this checkout's src/, or exit 1."""
    if not (SRC / "specklesim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no specklesim sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import specklesim

    if Path(specklesim.__file__).resolve().parent != (SRC / "specklesim").resolve():
        sys.exit(f"perfbench: imported specklesim from {specklesim.__file__}, not from {SRC}")


def _run_all(args: argparse.Namespace) -> int:
    code = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
        code = code or child.returncode
    return code


def _metric_line(name: str, value: float, unit: str, samples: int, what: str) -> str:
    return f"metric {name} = {value:.6g} {unit} ({what}, n = {samples})"


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        sys.exit("perfbench: --seconds must be positive")
    _import_program()

    import harness

    workload = WORKLOADS[args.workload]
    work = HERE / ".work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {workload.why}")
    print("environment:", json.dumps(harness.environment(ROOT), sort_keys=True))
    m = harness.measure(workload, args.seed, args.seconds, bool(args.trace), work, SRC)
    setup = m.setup
    result = harness.outcome(m)

    for op in workload.operations:
        times = [run.seconds for runs in m.passes for run in runs if run.op == op.name]
        print(f"operation {op.name}: median {statistics.median(times):.4f} s over {len(times)} passes")
        for check in m.checks.get(op.name, []):
            verdict = "PASS" if check.ok else "FAIL"
            kind = "exact" if check.exact else "criterion"
            print(f"  check {op.name}.{check.name} [{kind}] {verdict}: {check.detail}")
    for reason in result.reasons:
        print(f"failed: {reason}")

    digest = harness.artifact_digest(m.reference)
    recorded = json.loads((HERE / "digests.json").read_text())
    if recorded["seed"] == args.seed:
        same = "same as" if recorded["sha256"].get(workload.name) == digest else "differs from (for information)"
        print(f"artifacts sha256 {digest}, {same} the digest recorded for seed {args.seed}")
    else:
        print(f"artifacts sha256 {digest} (digests are recorded for seed {recorded['seed']} only)")

    if args.trace:
        metrics = harness.layer_metrics(m)
        if m.tracer.missing:
            print("missing boundaries:", ", ".join(m.tracer.missing))
        m.tracer.write(work / "spans.csv")
        print(f"spans: {len(m.tracer.spans)} written to {work / 'spans.csv'}")
        for name, value in metrics.items():
            print(_metric_line(name, value, harness.unit_of(name), len(m.traced), "per traced pass"))
        units = {name: harness.unit_of(name) for name in metrics}
    else:
        passes = harness.pass_seconds(m.passes)
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(passes),
            "peak_rss_mb": m.peak_rss_mb,
        }
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
        print("setup times (s):", " ".join(f"{t:.4f}" for t in setup))
        print("pass times (s):", " ".join(f"{t:.4f}" for t in passes))
        print(_metric_line("setup_s", metrics["setup_s"], "s", len(setup), "median of fresh processes between passes"))
        print(_metric_line("pass_s", metrics["pass_s"], "s", len(passes), "median pass, tracing off"))
        print(_metric_line("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1, "ru_maxrss of this process"))
        print(_metric_line("failed_frac", result.failed / result.attempted, "1", result.attempted, "operations, each run every pass"))

    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
