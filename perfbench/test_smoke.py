"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import tracer  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Metrics that are not self times of one layer.
NOT_SELF = {"tensor.backward_s", "trace.wall_s", "trace.overhead_s"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_reported(workload, trace):
    # codec-preview is not in BENCHMARK.json but stays runnable, so it is tested too
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        accounted = sum(v for name, v in values.items() if name.endswith("_s") and name not in NOT_SELF)
        assert accounted == pytest.approx(values["trace.wall_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in values.values())
        for kind in ("train_step",) if workload == "train" else ("encode", "decode"):
            assert f"{kind}_kpx_s " in proc.stderr and f"{kind}_ms_p50 " in proc.stderr
        assert "failed_ratio 0\n" in proc.stderr


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "codec-ladder", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_hooks_are_skipped_and_originals_restored(monkeypatch):
    import flowcodec.flow as flow

    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + [
        ("conv.forward", "flowcodec.flow", "no_such_function"),
        ("flow.forward", "flowcodec.flow", "NoSuchClass.forward"),
        ("codec.self", "flowcodec.no_such_module", "encode_image"),
    ])
    conv2d, forward = flow.conv2d, flow.FlowModel.__dict__["forward"]
    t = tracer.Tracer()
    with t.installed():
        assert flow.conv2d is not conv2d
        assert flow.FlowModel.__dict__["forward"] is not forward
    assert flow.conv2d is conv2d
    assert flow.FlowModel.__dict__["forward"] is forward
    assert t.absent == [
        "flowcodec.flow.no_such_function",
        "flowcodec.flow.NoSuchClass.forward",
        "flowcodec.no_such_module.encode_image",
    ]


def test_failing_counter_is_dropped_and_the_span_kept():
    calls = []

    def observe(args, result):
        calls.append(args)
        raise AttributeError("no such field")

    t = tracer.Tracer()
    wrapped = t.span("codec.self", lambda x: x + 1, observe)
    assert wrapped(1) == 2 and wrapped(2) == 3
    assert len(calls) == 1
    assert t.broken == ["codec.self: AttributeError: no such field"]
    assert t.total_s["codec.self"] > 0


def test_reference_samples_its_share_of_the_run():
    ref = Reference()
    ref.keep_up()
    assert len(ref.samples) == 1
    assert ref.spent > reference.SHARE * (time.perf_counter() - ref.start)
    ref.keep_up()
    assert len(ref.samples) == 1
    assert ref.scale == reference.NOMINAL_S / ref.samples[0]


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
