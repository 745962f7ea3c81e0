"""Smoke test of the benchmark on a tiny configuration (a small corpus and
(4, 8)-wide nets): every metric BENCHMARK.json names is emitted with its
unit, and the output checks pass. It has no timing thresholds.

    python -m pytest perfbench
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    record = workloads.run(name, seed=5, seconds=0.2, trace=bool(trace),
                           workdir=str(tmp_path), cfg=workloads.TINY_CONFIGS[name])
    assert record["problems"] == []
    assert record["attempted"] > 0
    assert record["failed"] == 0
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        value = record["metrics"][metric["name"]]
        assert math.isfinite(value), metric["name"]
        unit = run.per_layer_unit(metric["name"]) if trace else run.END_TO_END_UNITS[metric["name"]]
        assert unit == metric["unit"], metric["name"]
    if trace and name == "cohort":
        learnlib = {k: v for k, v in record["metrics"].items() if k.startswith("learnlib.")}
        assert learnlib and not any(learnlib.values())


def test_case_error_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    from miquant import preprocess
    from miquant.errors import EmptyRegion

    real = preprocess.preprocess_case

    def failing_first_case(case, *args, **kwargs):
        if case.case_id.startswith("case00"):
            raise EmptyRegion("injected")
        return real(case, *args, **kwargs)

    monkeypatch.setattr(preprocess, "preprocess_case", failing_first_case)
    cfg = workloads.TINY_CONFIGS["cohort"]
    record = workloads.run("cohort", seed=5, seconds=0.0, trace=False,
                           workdir=str(tmp_path), cfg=cfg)
    passes = workloads.MIN_PASSES
    assert record["attempted"] == passes * len(cfg.slots) * cfg.dims[2]
    assert record["failed"] == passes * cfg.dims[2]
    assert record["problems"] == []
    assert all(math.isfinite(v) for v in record["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cohort", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
