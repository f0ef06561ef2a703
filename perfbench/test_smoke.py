"""Smoke test of the benchmark: every workload at tiny sizes, plain and
traced, in seconds.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# per-layer metrics named for each module, whether or not BENCHMARK.json
# carries them (it carries those every workload exercises)
LAYER_FAMILIES = (
    "engine.conv2d.fw_s", "engine.conv2d.bw_s", "engine.conv2d.gflop",
    "engine.conv2d.mb_moved", "engine.batch_norm.bw_s",
    "engine.max_pool2d.fw_s", "engine.relu.bw_s", "engine.matmul.fw_s",
    "engine.softmax.bw_s", "engine.elementwise.fw_s", "engine.backward.s",
    "engine.backward.overhead_s", "engine.backward.nodes", "engine.tensors",
    "engine.check_finite.calls", "engine.check_finite.s",
    "engine.adjoint.accumulations", "engine.adjoint.useful_ratio",
    "engine.adjoint.wasted_mb", "engine.sgd.step_s",
    "models.forward_train.s", "models.forward_eval.s",
    "models.theta1.conv3.bw_s", "models.theta2.fw_s", "models.theta3.bw_s",
    "losses.objective.fw_s", "losses.kt.fw_s", "losses.bw_s",
    "losses.cr.calls", "training.steps", "training.step.p50_ms",
    "training.step.p90_ms", "training.val_eval.s", "training.state_dict.s",
    "training.prepare_domains.calls", "training.prepare_domains.s",
    "features.pipeline.s", "features.pipeline.calls", "features.samples",
    "scenario.make_scene.s", "scenario.trace_paths.s", "scenario.synth_cfr.s",
    "scenario.links", "scenario.dropped", "dataio.save_dataset.s",
    "dataio.load_dataset.s", "dataio.checkpoint.s", "dataio.bytes_written",
    "dataio.bytes_read", "cli.gen.s", "cli.eval.s")


def run_bench(workload, trace, out):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


# every workload the command offers, also those BENCHMARK.json does not gate
@pytest.mark.parametrize("workload",
                         ("ablation-train", "fullscale-train", "gen-eval"))
def test_smoke(workload, tmp_path):
    out = tmp_path / "result.json"
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        lines, last = run_bench(workload, trace, out)
        assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        assert set(last["metrics"]) == set(want)
        for name, m in last["metrics"].items():
            assert m["unit"] == want[name]
            assert math.isfinite(m["value"])
            # every named metric is also printed with its unit
            assert any(line.split()[:1] == [name]
                       and line.split()[2:3] == [want[name]]
                       for line in lines), name

    result = json.loads(out.read_text())[workload]
    plain, traced = result["plain"], result["traced"]
    assert set(LAYER_FAMILIES) <= set(traced["per_layer"])
    assert plain["end_to_end"]["error_rate"]["value"] == 0.0
    for key in ("wall_s", "cpu_s", "setup_s", "eval_samples_per_s"):
        assert plain["end_to_end"][key]["n"] >= 1

    trace = traced["trace"]
    assert math.isfinite(trace["overhead"])
    assert any(line.startswith("tracing overhead:") for line in lines)
    # span self times account for the measured time of each traced op;
    # for the training workloads that is the training step loop
    for op, share in trace["self_time_share_per_op"].items():
        if op == "train":
            assert abs(share - 1.0) <= 0.10, (op, share)
    if workload != "gen-eval":
        assert traced["per_layer"]["training.steps"] > 0
        assert traced["per_layer"]["losses.cr.calls"] > 0
        assert traced["per_layer"]["engine.backward.s"] > 0
    else:
        assert traced["per_layer"]["cli.gen.s"] > 0
        assert traced["per_layer"]["scenario.links"] > 0
        assert traced["per_layer"]["engine.backward.s"] == 0
