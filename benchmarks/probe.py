"""One fresh process doing a benchmark op's set-up, timed from start to exit by run.py.

Usage: python3 benchmarks/probe.py WORKLOAD TMP_DIR

It imports bridgelab (numpy and scipy with it), builds the op's argv and
creates and removes the op's temporary directory under TMP_DIR.
"""

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import bridgelab.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

os.makedirs(sys.argv[2], exist_ok=True)
with tempfile.TemporaryDirectory(dir=sys.argv[2]) as op_dir:
    WORKLOADS[sys.argv[1]].commands(op_dir, 0)
