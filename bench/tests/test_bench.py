"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import layers
import run
import tracer
from conftest import BENCH, ROOT
from lunarforge import cli
from workloads import WORKLOADS, tiny, write_predictions

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def two_threads(monkeypatch):
    monkeypatch.setenv("LUNARFORGE_THREADS", "2")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_passes_checks(name, tmp_path):
    workload = tiny(WORKLOADS[name])
    result, samples = run.run(workload, seed=3, seconds=0, trace=False, work=tmp_path)
    assert samples["errors"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_INVOCATIONS * workload.pairs
    printed = run.format_metrics(result["metrics"], trace=False)
    assert list(printed) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in printed.values())


@pytest.mark.parametrize("name", ["render_large_dem", "eval_noisy"])
def test_traced_run_prints_every_layer_metric(name, tmp_path):
    result, samples = run.run(tiny(WORKLOADS[name]), seed=4, seconds=0, trace=True, work=tmp_path)
    assert samples["errors"] == []
    printed = run.format_metrics(result["metrics"], trace=True)
    assert list(printed) == [m["name"] for m in SPEC["per_layer"]]
    values = {k: v["value"] for k, v in printed.items()}
    assert values["cli.import.scipy_s"] > 0
    assert 0 <= values["trace.untraced_share"] < 1
    if name == "eval_noisy":
        assert values["pose.ransac_align.calls"] == 4
        assert values["pose.ransac_align.umeyama_calls"] > 4 * 3
        assert 0.3 < values["pose.ransac_align.inlier_ratio"] < 1
    else:
        assert values["renderer.render_pair.worker_util"] > 0


def test_spec_units_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _originals():
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, *_ in tracer.TARGETS + tuple((m, "ThreadPoolExecutor") for m, _ in tracer.POOLS)
    }


def test_tracer_restores_every_wrapped_attribute():
    before = _originals()
    with tracer.Tracer():
        during = _originals()
        assert all(during[k] is not before[k] for k in before)
    assert _originals() == before
    with pytest.raises(ZeroDivisionError), tracer.Tracer():
        1 / 0
    after = _originals()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", ["gen_desk", "render_large_dem"])
def test_ray_classes_partition_all_traced_rays(name, tmp_path):
    scene = tiny(WORKLOADS[name]).scene
    with tracer.Tracer() as t:
        assert cli.main(scene.argv(5, tmp_path / "out")) == 0
    spans = layers._Spans(t.spans)
    classes = layers.ray_classes(spans)
    total = sum(s["rays"] for s in spans.named("_heightfield.intersect_rays"))
    assert sum(s["rays"] for members in classes.values() for s in members) == total
    central = sum(s["rays"] for s in classes["central"])
    jittered = sum(s["rays"] for s in classes["jittered"])
    assert central == scene.pair_count * 2 * scene.res**2
    assert jittered == 4 * central  # default rays per pixel
    assert classes["shadow"]


def test_corrupted_depth_fails_the_scene_check(tmp_path):
    scene = tiny(WORKLOADS["gen_desk"]).scene
    out = tmp_path / "out"
    assert cli.main(scene.argv(6, out)) == 0
    assert checks.check_scene(scene, 6, out) == []
    depth = out / scene.pair_ids()[0] / "depth_a.f32"
    values = np.fromfile(depth, dtype="<f4")
    (values * np.float32(1.01)).tofile(depth)
    errors = checks.check_scene(scene, 6, out)
    assert errors and "depth off by" in errors[0]


def test_wrong_alignment_fails_the_report_check(tmp_path):
    workload = tiny(WORKLOADS["eval_noisy"])
    gt, pred, report = tmp_path / "gt", tmp_path / "pred", tmp_path / "report.jsonl"
    assert cli.main(workload.scene.argv(7, gt)) == 0
    expected = write_predictions(workload, 7, gt, pred)
    assert cli.main(["evaluate", "--gt", str(gt), "--pred", str(pred),
                     "--seed", "7", "--report", str(report)]) == 0
    ids = workload.scene.pair_ids()
    assert checks.check_report(report, ids, "noisy", expected) == []

    wrong_scale = dict(expected, scale=expected["scale"] * 1.02)
    assert checks.check_report(report, ids, "noisy", wrong_scale)
    rot = np.asarray(expected["rotation"])
    a = np.radians(0.5)
    tilt = np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
    assert checks.check_report(report, ids, "noisy", dict(expected, rotation=(tilt @ rot).tolist()))

    lines = report.read_text().splitlines()
    entry = json.loads(lines[0])
    entry["alignment"]["scale"] *= 0.9
    report.write_text("\n".join([json.dumps(entry), *lines[1:]]) + "\n")
    errors = checks.check_report(report, ids, "noisy", expected)
    assert errors and "alignment scale" in errors[0]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gen_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
