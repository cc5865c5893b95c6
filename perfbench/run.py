"""Delegation-pipeline benchmark for isingcloak.

Run from the repository root:

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 30 --trace 0

One client in one process drives complete ``gen -> encrypt -> solve ->
decrypt -> verify/stats`` pipelines through ``isingcloak.cli.main`` in
a closed loop (see ``workloads.py`` for the three instance mixes), and
checks every pipeline's output.  The package is imported from
``src/`` of the checkout; nothing is installed.

``--trace 0`` reports the end-to-end metrics.  Pipelines run until
their summed wall time reaches ``--seconds``, always in whole rounds of
one pipeline per instance kind, so every kind is equally represented in
the percentiles.

``--trace 1`` reports the per-layer metrics.  It alternates an
untraced and a traced pass over the run's first four rounds of
instances until ``--seconds`` are used (at least one pair).  Per-layer values are per
pass: work counts are exact and identical across passes, times are the
median over traced passes.  ``trace.overhead`` compares the traced
passes' wall time with the untraced ones.  The spans are written to
``.perfbench_out/`` in the checkout when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def cap_threads() -> tuple:
    """Cap BLAS/OpenMP pools at the usable CPU count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc, {var: int(os.environ[var]) for var in THREAD_VARS}


def main(argv=None) -> int:
    nproc, caps = cap_threads()  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    return bench.main(argv, nproc, caps)


if __name__ == "__main__":
    sys.exit(main())
