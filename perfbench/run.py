"""caden benchmark: one workload per invocation, untraced or traced.

    python3 perfbench/run.py --workload mlp_ring [--seed 0] [--seconds 50] [--trace 0]

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, plus the tracing overhead.  The exit code is 1 when the
checkout holds no ``src/caden``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_PARENT = ROOT / ".perfbench_out"

# One BLAS thread: the runs are single-threaded Python loops over small
# matrices, and a multi-threaded BLAS only adds scheduling noise.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="minimum measuring time of an untraced run; a traced run makes one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _import_checkout_package():
    """Import caden from this checkout's src/, or exit with code 1."""
    if not (SRC / "caden" / "__init__.py").is_file():
        sys.exit(f"error: no caden package under {SRC}")
    sys.path.insert(0, str(SRC))
    import caden

    if SRC.resolve() not in Path(caden.__file__).resolve().parents:
        sys.exit(f"error: caden was imported from {caden.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    _import_checkout_package()
    import measure

    workload = WORKLOADS[args.workload]
    print(f"env {measure.environment(ROOT)}")
    print(f"workload {workload.name}: {workload.why}")
    print(
        f"seed {args.seed}: experiment seeds {workload.instance_seeds(args.seed)}, "
        f"target {workload.target_column} <= {workload.target:g}"
    )
    OUT_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_PARENT) as tmp:
        samples: dict[str, str] = {}
        if args.trace:
            calls, tracer, overhead = measure.run_traced(workload, args.seed, Path(tmp))
            values = measure.per_layer(tracer, overhead)
            units = printed = measure.PER_LAYER_UNITS
        else:
            calls = measure.run_untraced(workload, args.seed, args.seconds, Path(tmp))
            values = {}
            if any(c.failure is None for c in calls):
                values, samples = measure.end_to_end(calls)
            units = measure.E2E_UNITS
            printed = {**units, **measure.PRINTED_ONLY_UNITS}
    for line in measure.describe(calls):
        print(line)
    for name, unit in printed.items():
        if name in values:
            note = f" ({samples[name]})" if name in samples else ""
            print(f"{name} {values[name]!r} {unit}{note}")
    print(measure.result_line(calls, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
