"""Run one workload of the cirtrain benchmark and print its metrics.

    python3 cirbench/run.py --workload train_full --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: it imports `cirtrain` from the
checkout's own `src/` and exits with status 2 if that is missing.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the `end_to_end`
list of BENCHMARK.json, measured with tracing off; with `--trace 1` they are
its `per_layer` list, and the spans are written to
`.cirbench/trace-<workload>.jsonl`.  The lines before it print every metric
by name with its unit, the error rate, and a JSON line of details (machine,
library versions, sample counts).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_REPS = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RAW_UNITS = {
    "items_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "op_samples": "count",
    "reference_ms_p50": "ms", "setup_wall_s": "s",
}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import `cirtrain` and all its modules afresh; returns the package."""
    for name in [m for m in sys.modules if m == "cirtrain" or m.startswith("cirtrain.")]:
        del sys.modules[name]
    import cirtrain.cli

    return sys.modules["cirtrain"]


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    # one BLAS thread for this process, set before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    package = src / "cirtrain" / "__init__.py"
    if not package.is_file():
        print(f"run.py: {package} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])

    from host import HostReference  # loads numpy: the toolchain's import, not timed

    spec = json.loads((ROOT / "cirbench" / "spec.json").read_text(encoding="utf-8"))
    reference = HostReference(spec["workloads"][args.workload]["reference"])
    sys.path.insert(0, str(src))
    imports = [reference.around(import_library) for _ in range(IMPORT_REPS)]
    cirtrain = imports[-1][0]
    if Path(cirtrain.__file__).resolve() != package.resolve():
        print(f"run.py: imported cirtrain from {cirtrain.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import workloads

    metrics, attempted, failed, details = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        (statistics.median(i[1] for i in imports), statistics.median(i[2] for i in imports)),
        ROOT,
    )
    listed = bench["per_layer" if args.trace else "end_to_end"]
    unknown = set(metrics) - {m["name"] for m in listed}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a layer the workload does not run reports 0
    values = {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }
    for name, v in values.items():
        print(f"{name:<36s} {v['value']:>14.6g} {v['unit']}")
    for name, value in details.get("raw", {}).items():
        print(f"{name:<36s} {value:>14.6g} {RAW_UNITS[name]} (host-dependent, not gated)")
    print(f"{'error_rate':<36s} {failed / attempted:>14.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "details": details,
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
