"""The benchmark's workloads: the config files each one writes and the
``specklesim`` CLI calls it makes.

This module uses only the standard library, so the set-up probe can
import it without paying for anything but ``specklesim`` itself.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

# Reference scale of the paper's programmability figure, written out in
# full so that a change of the program's defaults does not change the work.
_REFERENCE_MEDIUM = "medium_kind = gaussian\nn_out = 4000\nsegments = 960\noutput_m = 0\noutput_n = 1\n"
_ANALYTIC_COUNTING = "source = filtered\ncounting = analytic\n"
_MONTECARLO = "circuit = ideal\nt = 0.45\nalpha_grid = 0:pi:9\ncounting = montecarlo\npulses_per_point = 1000000\n"


@dataclass(frozen=True)
class Operation:
    """One ``specklesim.cli.main`` call."""

    name: str
    subcommand: str
    config: str
    threads: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict[str, str]
    operations: tuple[Operation, ...]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="shaped-scan",
            why="each call draws a full 4000x1920 medium but reads 2 rows; stepped shaping runs a Python loop per segment",
            configs={
                "analytic.cfg": _REFERENCE_MEDIUM + "circuit = shaped\nmethod = analytic\nalpha_grid = 0:pi:9\n" + _ANALYTIC_COUNTING,
                "stepped.cfg": _REFERENCE_MEDIUM + "circuit = shaped\nmethod = stepped\nsteps = 8\nalpha_grid = 0:pi:9\n" + _ANALYTIC_COUNTING,
                "classical.cfg": _REFERENCE_MEDIUM + "circuit = shaped\nmethod = analytic\nalpha = pi/2\ndelta_theta_grid = 0:2pi:25\n",
            },
            operations=(
                Operation("alpha-scan-analytic", "alpha-scan", "analytic.cfg"),
                Operation("alpha-scan-stepped", "alpha-scan", "stepped.cfg"),
                Operation("classical-scan", "classical-scan", "classical.cfg"),
            ),
        ),
        Workload(
            name="enhancement",
            why="60 media, each used whole; generation dominates and --threads may parallelize replicates",
            configs={
                "enhancement.cfg": "n_out = 4000\nseeds = 20\nsegment_counts = 64,256,960\nmethod = analytic\noutput_m = 0\n",
            },
            operations=(Operation("enhancement-study", "enhancement-study", "enhancement.cfg", threads=nproc()),),
        ),
        Workload(
            name="photon-counting",
            why="Monte Carlo pulse counting dominates and no medium is drawn: the bypass workload for medium and shaping",
            configs={
                "mc_highpower.cfg": _MONTECARLO + "source = highpower\n",
                "mc_filtered.cfg": _MONTECARLO + "source = filtered\n",
                "hom.cfg": "circuit = ideal\nt = 0.7071067811865476\nalpha = pi\nsource = filtered\ndelay_grid = -3e-12:3e-12:241\n",
            },
            operations=(
                Operation("alpha-scan-highpower", "alpha-scan", "mc_highpower.cfg"),
                Operation("alpha-scan-filtered", "alpha-scan", "mc_filtered.cfg"),
                Operation("hom-scan", "hom-scan", "hom.cfg"),
            ),
        ),
    )
}


def op_seed(workload_seed: int, op: Operation) -> int:
    """64-bit program seed of one operation, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload_seed}/{op.name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def write_inputs(workload: Workload, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for name, text in workload.configs.items():
        (inputs / name).write_text(text)


def argv(op: Operation, workload_seed: int, inputs: Path, out_dir: Path) -> list[str]:
    return [
        op.subcommand,
        "--config", str(inputs / op.config),
        "--seed", str(op_seed(workload_seed, op)),
        "--out", str(out_dir),
        "--force",
        "--threads", str(op.threads),
        "--quiet",
    ]
