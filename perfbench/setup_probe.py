"""One cold set-up: import isingcloak and run a workload's warm-up pipeline.

Started by ``bench.py`` in a fresh interpreter, which times it from
outside (interpreter start included):

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Exits with 0 when the warm-up pipeline's outputs pass their checks.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(workload: str, seed: str, workdir: str) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Pipeline, import_cli, warmup_instance

    result = Pipeline(import_cli(ROOT), workdir).run(warmup_instance(workload, int(seed)))
    if not result.ok:
        print(f"warm-up pipeline failed: {result.error}", file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
