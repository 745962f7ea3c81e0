"""Benchmark command for miquant.

    python3 perfbench/run.py --workload {cohort,refine,train} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record (environment, inputs, per-unit times, failed
checks) goes to ``.perfbench/results/``, and the spans of a traced run next
to it. Exits 2, printing no result, when the program cannot be imported.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "cases_per_min": "1/min",
    "train_s": "s",
    "setup_s": "s",
    "dice_pct.paper": "%",
    "hd_mm.paper": "mm",
    "mvo_sens.paper": "frac",
    "dice_pct.nsd": "%",
    "dice_pct.otsu": "%",
    "dice_pct.fwhm": "%",
    "dice_pct.gmm": "%",
    "detect_auc": "frac",
    "train_loss": "nats",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflops"):
        return "GFLOP/s"
    if name.endswith("_gflop"):
        return "GFLOP"
    if name.endswith("_gb"):
        return "GB"
    if name.endswith("_flop_per_byte"):
        return "FLOP/B"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_frac", "_share")):
        return "frac"
    if name.endswith("_px"):
        return "px"
    return "count"


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cohort", "refine", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import miquant
    except ImportError as exc:
        print(f"cannot import miquant from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(miquant.__file__))) != SRC:
        print(f"miquant resolved to {miquant.__file__}, not to {SRC}", file=sys.stderr)
        return 2
    import workloads

    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("spans", None)
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, f"{stem}-spans.json"))
    record["environment"] = environment()

    values = record["metrics"]
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    problems = record["problems"]
    problems += [f"metric {k} is {m['value']}" for k, m in metrics.items()
                 if not _finite(m["value"])]
    with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "environment", "sizes", "why")}))
    print(json.dumps({"correct": not problems, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
