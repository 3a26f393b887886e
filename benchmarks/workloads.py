"""The benchmark's workloads: which bridgelab commands one op runs, and at what size.

One op is one user session: ``bridgelab train`` on paired data, ``bridgelab
sample`` of the parameters it just wrote, and ``bridgelab verify --suite all
--mc 100000``. Every workload runs all three commands, so every end-to-end
metric is measured on every workload; the workloads differ in the balance of
work inside the layers (see README.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation inside an op, with the unit of work its rate counts."""

    kind: str  # "train", "sample" or "verify"
    argv: list[str]
    out_dir: str
    work: int  # samples (train), runs (sample), 1 (verify)


@dataclass(frozen=True)
class Workload:
    name: str
    task: tuple[str, ...]  # task flags shared by train and sample
    hidden: str
    batch_size: int
    steps: int
    sample_steps: int  # sample --N
    runs: int

    def commands(self, op_dir: str, seed: int) -> list[Command]:
        train_dir = os.path.join(op_dir, "train")
        sample_dir = os.path.join(op_dir, "sample")
        verify_dir = os.path.join(op_dir, "verify")
        return [
            Command(
                "train",
                ["train", *self.task, "--hidden", self.hidden,
                 "--batch-size", str(self.batch_size), "--steps", str(self.steps),
                 "--seed", str(seed), "--out-dir", train_dir],
                train_dir,
                self.batch_size * self.steps,
            ),
            Command(
                "sample",
                ["sample", *self.task, "--params", os.path.join(train_dir, "params.bin"),
                 "--N", str(self.sample_steps), "--runs", str(self.runs),
                 "--mode", "corrected", "--seed", str(seed), "--out-dir", sample_dir],
                sample_dir,
                self.runs,
            ),
            # verify keeps its default seed: its statistical bounds are fixed
            # for every seed, and the op must be the one users run.
            Command(
                "verify",
                ["verify", "--suite", "all", "--mc", "100000", "--out-dir", verify_dir],
                verify_dir,
                1,
            ),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shift2d",
            task=("--task", "gaussian_shift", "--dim", "2"),
            hidden="32,32",
            batch_size=32,
            steps=1000,
            sample_steps=512,
            runs=1024,
        ),
        Workload(
            name="grid8",
            task=("--task", "grid_colorize", "--grid-size", "8"),
            hidden="128,128",
            batch_size=128,
            steps=100,
            sample_steps=64,
            runs=1024,
        ),
    )
}
