import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lunarforge
from lunarforge import formats
from lunarforge.cli import main
from lunarforge.pose import pose_accuracy_table


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def run(argv):
    return main(argv)


GEN_ARGS = ["generate", "--synth", "--trajectory", "nadir", "--bands", "0", "--pairs", "1",
            "--seed", "7", "--res", "32", "--synth-size", "96", "--stride", "2"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "gt"
    code = run(GEN_ARGS + ["--lighting", "side", "--out", str(out)])
    assert code == 0
    return out


def test_generate_deterministic_trees(tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    assert run(GEN_ARGS + ["--lighting", "side", "--out", str(d1)]) == 0
    assert run(GEN_ARGS + ["--lighting", "side", "--out", str(d2)]) == 0
    assert tree_digest(d1) == tree_digest(d2)


def test_generate_worker_count_invariance(tmp_path, monkeypatch):
    # At 64 px a view is one band at any thread count; the count sets how
    # many of the rig's two view tasks run at once.
    trees = []
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("LUNARFORGE_THREADS", threads)
        out = tmp_path / f"w{threads}"
        assert run(GEN_ARGS + ["--res", "64", "--lighting", "side", "--out", str(out)]) == 0
        trees.append(tree_digest(out))
    assert trees[0] == trees[1] == trees[2]


def test_generate_three_pairs_match_serial(tmp_path, monkeypatch, renderer_pools):
    # Pairs render one after another, each on one pool of LUNARFORGE_THREADS
    # threads whose two tasks are the pair's views (one band of 64 rows each).
    argv = GEN_ARGS + ["--pairs", "3", "--res", "64", "--lighting", "side"]
    trees = {}
    for threads in (1, 8):
        renderer_pools.clear()
        monkeypatch.setenv("LUNARFORGE_THREADS", str(threads))
        out = tmp_path / f"w{threads}"
        assert run(argv + ["--out", str(out)]) == 0
        trees[threads] = tree_digest(out)
        assert renderer_pools == [threads] * 3
    assert sum(name.endswith("meta.json") for name in trees[1]) == 3
    assert trees[1] == trees[8]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_generate_lightings_together_match_each_alone(tmp_path, monkeypatch, threads):
    # One render per rig shades every lighting; each lighting's pair
    # directories are those of a run with that lighting alone, and the
    # manifest lists the union of both runs' records.
    monkeypatch.setenv("LUNARFORGE_THREADS", threads)
    argv = GEN_ARGS + ["--trajectory", "oblique", "--bands", "0,5", "--pairs", "2", "--res", "48"]
    trees, manifests = {}, {}
    for lighting in ("side,back", "side", "back"):
        out = tmp_path / lighting
        assert run(argv + ["--lighting", lighting, "--out", str(out)]) == 0
        trees[lighting] = tree_digest(out)
        header, *records = (out / "manifest.jsonl").read_text().splitlines()
        manifests[lighting] = header, sorted(records)
        del trees[lighting]["manifest.jsonl"]
    assert len(trees["side,back"]) == 2 * 2 * 2 * 12  # bands x pairs x lightings x files
    assert trees["side,back"] == {**trees["side"], **trees["back"]}
    header, records = manifests["side,back"]
    assert header == manifests["side"][0] == manifests["back"][0]
    assert records == sorted(manifests["side"][1] + manifests["back"][1])


def test_generate_computes_each_rigs_geometry_once(tmp_path, monkeypatch):
    # Depth, pointmaps and correspondences depend on the rig alone: a
    # two-lighting run computes them once per rig and writes the same bytes
    # into both lightings' pair directories.
    from lunarforge import cli

    calls = {"gt_correspondences": 0, "depth_to_pointmap": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    out = tmp_path / "out"
    argv = GEN_ARGS + ["--trajectory", "oblique", "--bands", "0,5", "--res", "48", "--lighting", "side,back"]
    assert run(argv + ["--out", str(out)]) == 0
    rigs = 2  # bands x pairs
    assert calls == {"gt_correspondences": rigs, "depth_to_pointmap": 2 * rigs}
    sides = sorted(out.glob("*_side"))
    assert len(sides) == rigs
    for side in sides:
        back = side.with_name(side.name.removesuffix("_side") + "_back")
        geometry = sorted(p.name for pattern in ("depth_*", "pointmap_*", "correspondences.csv")
                          for p in side.glob(pattern))
        assert len(geometry) == 9  # two depths and two pointmaps with sidecars, one CSV
        for name in geometry:
            assert (side / name).read_bytes() == (back / name).read_bytes(), name


def test_render_pair_lone_pair_uses_every_worker(tmp_path, monkeypatch, renderer_pools):
    argv = ["render-pair", "--synth", "--trajectory", "nadir", "--res", "64", "--synth-size", "96"]
    trees = []
    for threads in ("1", "2", "8"):
        renderer_pools.clear()
        monkeypatch.setenv("LUNARFORGE_THREADS", threads)
        assert run(argv + ["--out", str(tmp_path / threads)]) == 0
        trees.append(tree_digest(tmp_path / threads))
    assert renderer_pools == [8]  # one pool for both views of the one pair
    assert trees[0] == trees[1] == trees[2]


def test_generate_trees_match_under_every_band_plan(tmp_path, monkeypatch):
    # The band plan depends on BAND_PIXELS alone: a 96 px view is 1 band of
    # 96 rows, 3 of 32, 8 of 12 or 96 of one row.  Each band draws its own
    # part of the view's jitter, so the plan does not change a byte.
    import lunarforge.renderer as renderer

    trees = []
    for bands, rows in ((1, 96), (3, 32), (8, 12), (96, 1)):
        monkeypatch.setattr(renderer, "BAND_PIXELS", 96 * rows)
        assert len(renderer._row_bands(96, 96)) == bands
        out = tmp_path / f"b{bands}"
        assert run(GEN_ARGS + ["--res", "96", "--lighting", "side", "--out", str(out)]) == 0
        trees.append(tree_digest(out))
    assert all(tree == trees[0] for tree in trees)


SCENE_ARGV = {
    "generate": GEN_ARGS,
    "render-pair": ["render-pair", "--synth", "--trajectory", "nadir", "--res", "32", "--synth-size", "96"],
}


INVALID_SCENE_VALUES = [
    (flag, value, command)
    for flag, value in [
        ("--hapke-w", "2"),
        ("--hapke-b0", "nan"),
        ("--hapke-b0", "inf"),
        ("--hapke-h", "inf"),
        ("--psf-sigma", "-1"),
        ("--psf-sigma", "inf"),
        ("--rays-per-pixel", "0"),
        ("--res", "0"),
        ("--stride", "0"),
        ("--synth-size", "8"),
        ("--synth-craters", "-2"),
        ("--synth-octaves", "-1"),
        ("--lighting", ","),
    ]
    for command in sorted(SCENE_ARGV)
] + [("--bands", "", "generate")]  # render-pair takes one --band


@pytest.mark.parametrize("flag, value, command", [
    pytest.param(*case, id="-".join(case)) for case in INVALID_SCENE_VALUES
])
def test_invalid_scene_value_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flag, value):
    import lunarforge.cli as cli

    def no_dem(*args, **kwargs):
        raise AssertionError("a DEM was synthesised before validation")

    monkeypatch.setattr(cli, "synth_crater_dem", no_dem)
    out = tmp_path / "out"
    assert run(SCENE_ARGV[command] + [flag, value, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "usage"
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "render-pair", "evaluate"])
@pytest.mark.parametrize("threads", ["abc", "0", "-2"])
def test_bad_thread_cap_is_a_usage_error(dataset, tmp_path, monkeypatch, capsys, command, threads):
    import lunarforge.cli as cli

    def no_dem(*args, **kwargs):
        raise AssertionError("a DEM was synthesised before validation")

    monkeypatch.setattr(cli, "synth_crater_dem", no_dem)
    monkeypatch.setenv("LUNARFORGE_THREADS", threads)
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--gt", str(dataset), "--pred", str(dataset), "--report", str(out)]
    else:
        argv = SCENE_ARGV[command] + ["--out", str(out)]
    assert run(argv) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "usage"
    assert "LUNARFORGE_THREADS" in payload["detail"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["synth-dem", "--width", "15"], id="synth-dem-width"),
    pytest.param(["synth-dem", "--height", "8"], id="synth-dem-height"),
    pytest.param(["synth-dem", "--cell-size", "0"], id="synth-dem-cell-size-0"),
    pytest.param(["synth-dem", "--cell-size", "-5"], id="synth-dem-cell-size-negative"),
    pytest.param(["synth-dem", "--cell-size", "inf"], id="synth-dem-cell-size-inf"),
    pytest.param(["synth-dem", "--craters", "-1"], id="synth-dem-craters-negative"),
    pytest.param(["synth-dem", "--octaves", "-3"], id="synth-dem-octaves-negative"),
    pytest.param(["visualize", "--mode", "slope", "--spacing", "0"], id="visualize-spacing-0"),
    pytest.param(["visualize", "--mode", "hillshade", "--spacing", "-1"], id="visualize-spacing-negative"),
    pytest.param(["visualize", "--mode", "hillshade", "--spacing", "inf"], id="visualize-spacing-inf"),
    pytest.param(["visualize", "--mode", "slope", "--spacing", "inf"], id="visualize-slope-spacing-inf"),
    pytest.param(["visualize", "--mode", "hillshade", "--azimuth", "nan"], id="visualize-azimuth-nan"),
    pytest.param(["visualize", "--mode", "hillshade", "--elevation", "inf"], id="visualize-elevation-inf"),
    pytest.param(["visualize", "--mode", "hillshade", "--elevation", "0"], id="visualize-elevation-0"),
    pytest.param(["visualize", "--mode", "hillshade", "--elevation", "-30"], id="visualize-elevation-negative"),
])
def test_bad_raster_geometry_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # The input raster does not exist and synthesis fails the run, so either
    # one happening before the check would exit 1, not 2.
    import lunarforge.cli as cli

    def no_dem(*args, **kwargs):
        raise AssertionError("a DEM was synthesised before validation")

    monkeypatch.setattr(cli, "synth_crater_dem", no_dem)
    out = tmp_path / "out.f32"
    io = ["--input", str(tmp_path / "missing.f32")] if argv[0] == "visualize" else []
    assert run(argv + io + ["--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "usage"
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "render-pair", "synth-dem", "evaluate"])
def test_negative_seed_is_a_usage_error(dataset, tmp_path, monkeypatch, capsys, command):
    import lunarforge.cli as cli

    def no_dem(*args, **kwargs):
        raise AssertionError("a DEM was synthesised before validation")

    monkeypatch.setattr(cli, "synth_crater_dem", no_dem)
    out = tmp_path / "out"
    argv = {
        **SCENE_ARGV,
        "synth-dem": ["synth-dem", "--out", str(out)],
        "evaluate": ["evaluate", "--gt", str(dataset), "--pred", str(dataset), "--report", str(out)],
    }[command]
    if command in SCENE_ARGV:
        argv = argv + ["--out", str(out)]
    assert run(argv + ["--seed", "-1"]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "usage"
    assert "--seed" in payload["detail"]
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    pytest.param(GEN_ARGS + ["--res", "abc", "--out", "out"], "--res", id="res-not-an-integer"),
    pytest.param(GEN_ARGS + ["--dem-format", "foo", "--out", "out"], "--dem-format", id="unknown-dem-format"),
    pytest.param(GEN_ARGS + ["--trajectory", "sideways", "--out", "out"], "--trajectory", id="unknown-trajectory"),
    pytest.param(GEN_ARGS, "--out", id="missing-out"),
    pytest.param(["evaluate", "--gt", "out", "--pred", "out"], "--report", id="missing-report"),
    pytest.param(["synth-dem", "--out", "out", "--bogus"], "--bogus", id="unknown-flag"),
    pytest.param([], "command", id="no-subcommand"),
])
def test_parse_error_is_one_json_usage_line(tmp_path, monkeypatch, capsys, argv, flag):
    # argparse's own wording differs across Python versions; the flag's name
    # in the detail does not.
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "usage"
    assert flag in payload["detail"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code, error", [
    pytest.param(["generate", "--synth", "--trajectory", "nadir", "--res", "abc", "--out", "out"], 2, "usage",
                 id="parse-error"),
    pytest.param(["evaluate", "--gt", "missing", "--pred", "missing", "--report", "out"], 2, "usage",
                 id="command-usage-error"),
    pytest.param(["visualize", "--input", "missing.f32", "--mode", "slope", "--out", "out"], 1,
                 "FileNotFoundError", id="runtime-failure"),
])
def test_python_m_lunarforge_exits_with_one_json_line(tmp_path, argv, code, error):
    src = str(Path(lunarforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "lunarforge", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == error
    assert list(tmp_path.iterdir()) == []


def test_rays_per_pixel_is_not_checked_without_psf(tmp_path):
    # With --psf-sigma 0 every pixel casts one central ray, so the ray count
    # is moot and any value renders.
    argv = SCENE_ARGV["render-pair"] + ["--psf-sigma", "0"]
    assert run(argv + ["--rays-per-pixel", "0", "--out", str(tmp_path / "r0")]) == 0
    assert run(argv + ["--out", str(tmp_path / "r4")]) == 0
    assert tree_digest(tmp_path / "r0") == tree_digest(tmp_path / "r4")


def test_synth_size_is_not_checked_without_synth(tmp_path):
    from lunarforge import write_dem
    from lunarforge.cli import synth_dem_for_band

    dem_path = tmp_path / "dem.f32"
    write_dem(synth_dem_for_band("nadir", 0, seed=7, size=96), dem_path, "raw_f32")
    assert run(["render-pair", "--dem", str(dem_path), "--trajectory", "nadir", "--res", "16",
                "--synth-size", "8", "--out", str(tmp_path / "r")]) == 0


def test_generate_lighting_variants(tmp_path):
    out = tmp_path / "lit"
    code = run(GEN_ARGS + ["--lighting", "side, overhead ,back", "--out", str(out)])
    assert code == 0
    lines = (out / "manifest.jsonl").read_text().splitlines()
    records = [json.loads(ln) for ln in lines[1:]]
    assert len(records) == 3  # one geometry, three lighting variants
    ids = {r["pair_id"] for r in records}
    assert ids == {"nadir_b00_p000_side", "nadir_b00_p000_overhead", "nadir_b00_p000_back"}
    # Same geometry: poses identical across lighting variants.
    metas = [formats.read_json(out / r["paths"]["meta"]) for r in records]
    assert metas[0]["pose_a"] == metas[1]["pose_a"] == metas[2]["pose_a"]
    assert {m["sun"]["azimuth"] for m in metas} == {150.0, 250.0, 0.0}


def test_manifest_completeness(dataset):
    lines = (dataset / "manifest.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "lunarforge-manifest"
    for line in lines[1:]:
        record = json.loads(line)
        for key, rel in record["paths"].items():
            assert (dataset / rel).exists(), f"missing {key} artifact {rel}"
        # Parse every artifact format.
        img = formats.read_pgm16(dataset / record["paths"]["image_a"])
        assert img.shape == (32, 32)
        depth, meta = formats.read_f32_raster(dataset / record["paths"]["depth_a"])
        assert depth.shape == (32, 32)
        pm, pmeta = formats.read_f32_raster(dataset / record["paths"]["pointmap_a"])
        assert pm.shape == (32, 32, 3)
        assert pmeta["frame"] == "world"
        corr = formats.read_correspondences_csv(dataset / record["paths"]["correspondences"])
        assert corr.shape[1] == 4
        gsd_expected = 2 * record["altitude_m"] * math.tan(math.radians(22.5)) / 32
        assert abs(record["gsd_m"] - gsd_expected) < 0.1


def test_evaluate_gt_as_prediction(dataset, tmp_path):
    pred = tmp_path / "pred"
    pred.mkdir()
    for line in (dataset / "manifest.jsonl").read_text().splitlines()[1:]:
        record = json.loads(line)
        shutil.copytree(dataset / record["pair_id"], pred / record["pair_id"])
    report = tmp_path / "report.jsonl"
    code = run(["evaluate", "--gt", str(dataset), "--pred", str(pred), "--report", str(report)])
    assert code == 0
    lines = [json.loads(ln) for ln in report.read_text().splitlines()]
    aggregate = lines[-1]
    assert aggregate["type"] == "aggregate"
    assert aggregate["pairs_missing"] == 0
    assert aggregate["rra_table"]["2"] == 1.0
    assert aggregate["rta_table"]["2"] == 1.0
    per_pair = [ln for ln in lines[:-1] if ln["status"] == "ok"]
    assert per_pair
    for entry in per_pair:
        assert entry["chamfer_m"] < 1e-4
        assert entry["slope_corr"] > 1 - 1e-6
        assert entry["ssim"] > 1 - 1e-6
        assert entry["si_loss"] < 1e-6


def test_evaluate_empty_pred_dir(dataset, tmp_path, capsys):
    pred = tmp_path / "empty"
    pred.mkdir()
    report = tmp_path / "r.jsonl"
    code = run(["evaluate", "--gt", str(dataset), "--pred", str(pred), "--report", str(report)])
    assert code == 0
    lines = [json.loads(ln) for ln in report.read_text().splitlines()]
    aggregate = lines[-1]
    assert aggregate["all_missing_warning"] is True
    assert aggregate["pairs_evaluated"] == 0
    err = capsys.readouterr().err
    assert "warning" in err.lower()


def _copy_predictions(dataset, pred):
    ids = [json.loads(line)["pair_id"] for line in (dataset / "manifest.jsonl").read_text().splitlines()[1:]]
    for pair_id in ids:
        shutil.copytree(dataset / pair_id, pred / pair_id)
    return ids


@pytest.fixture(scope="module")
def two_pair_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds2") / "gt"
    assert run(GEN_ARGS + ["--lighting", "side,back", "--out", str(out)]) == 0
    return out


# A malformed pose file (a list, a string, a rotation that is not a list) or
# pointmap sidecar (a scalar shape) is a TypeError where the program reads it.
TYPE_ERROR_DEFECTS = ("pose_list", "pose_string", "pose_rotation_dict", "sidecar_scalar_shape")


@pytest.mark.parametrize("defect", ["pointmap_rows", "pointmap_channels", "lone_pose_a", "nan_pose", "gt_frame",
                                    *TYPE_ERROR_DEFECTS])
def test_evaluate_flags_a_bad_prediction_and_scores_the_rest(two_pair_dataset, tmp_path, capsys, defect):
    gt = two_pair_dataset
    if defect == "gt_frame":
        gt = tmp_path / "gt"
        shutil.copytree(two_pair_dataset, gt)
    pred = tmp_path / "pred"
    bad, good = _copy_predictions(gt, pred)
    bad_dir = pred / bad
    if defect == "gt_frame":  # ground truth must be world-frame
        sidecar = gt / bad / "pointmap_b.f32.json"
        sidecar.write_text(sidecar.read_text().replace('"frame": "world"', '"frame": "view1"'))
    elif defect.startswith("pointmap"):
        pts, meta = formats.read_f32_raster(bad_dir / "pointmap_a.f32")
        pts = pts[:16] if defect == "pointmap_rows" else pts[..., :2]
        formats.write_f32_raster(bad_dir / "pointmap_a.f32", pts, meta)
    elif defect == "sidecar_scalar_shape":
        sidecar = bad_dir / "pointmap_b.f32.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "shape": 5}))
    else:
        meta = formats.read_json(bad_dir / "meta.json")
        pose_a = {
            "nan_pose": {**meta["pose_a"], "translation": [float("nan")] * 3},
            "pose_list": [],
            "pose_string": "x",
            "pose_rotation_dict": {**meta["pose_a"], "rotation": {"a": 1}},
        }.get(defect, meta["pose_a"])
        if defect != "lone_pose_a":
            (bad_dir / "pose_b.json").write_text(json.dumps(meta["pose_b"]))
        (bad_dir / "pose_a.json").write_text(json.dumps(pose_a))
    report = tmp_path / "report.jsonl"
    assert run(["evaluate", "--gt", str(gt), "--pred", str(pred), "--report", str(report)]) == 0
    lines = [json.loads(ln) for ln in report.read_text().splitlines()]
    entries = {ln["pair_id"]: ln for ln in lines[:-1]}
    assert entries[bad]["status"] == "error"
    assert entries[bad]["error"]["type"] == ("TypeError" if defect in TYPE_ERROR_DEFECTS else "ValueError")
    assert entries[bad]["error"]["detail"]
    assert entries[good]["status"] == "ok"
    assert entries[good]["chamfer_m"] < 1e-4
    aggregate = lines[-1]
    assert aggregate["pairs_failed"] == 1
    assert aggregate["failed"] == [bad]
    assert aggregate["pairs_evaluated"] == 1
    assert aggregate["pairs_missing"] == 0
    assert bad in capsys.readouterr().err


def test_evaluate_reports_match_at_every_thread_count_on_noisy_predictions(two_pair_dataset, tmp_path, monkeypatch):
    """Predictions in another frame and scale, with 1 m noise, 40% outliers
    off by kilometres and a NaN hole: each pair is aligned and scored, and
    the report's bytes do not depend on how many threads score the pairs."""
    rng = np.random.default_rng(12)
    yaw = np.radians(70.0)
    rot = np.array([[np.cos(yaw), -np.sin(yaw), 0.0], [np.sin(yaw), np.cos(yaw), 0.0], [0.0, 0.0, 1.0]])
    pred = tmp_path / "pred"
    pairs = _copy_predictions(two_pair_dataset, pred)
    for pair_id in pairs:
        for view in ("a", "b"):
            path = pred / pair_id / f"pointmap_{view}.f32"
            gt, meta = formats.read_f32_raster(path)
            pts = gt + rng.normal(0.0, 1.0, gt.shape)
            outliers = rng.random(gt.shape[:2]) < 0.4
            pts[outliers] += rng.normal(0.0, 3000.0, (int(outliers.sum()), 3))
            pts[:4, :4] = np.nan
            formats.write_f32_raster(path, 0.5 * pts @ rot.T + [300.0, -200.0, 50.0], meta)
    reports = []
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("LUNARFORGE_THREADS", threads)
        report = tmp_path / f"report_{threads}.jsonl"
        assert run(["evaluate", "--gt", str(two_pair_dataset), "--pred", str(pred), "--report", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    entries = [json.loads(ln) for ln in reports[0].decode().splitlines()[:-1]]
    assert [e["status"] for e in entries] == ["ok", "ok"]
    for entry in entries:
        assert entry["alignment"]["scale"] == pytest.approx(2.0, rel=0.01)
        assert all(isinstance(entry[name], float) for name in ("chamfer_m", "slope_corr", "ssim", "si_loss"))


def test_evaluate_opens_one_pair_pool_at_every_thread_count(two_pair_dataset, tmp_path, monkeypatch, cli_pools):
    pred = tmp_path / "pred"
    _copy_predictions(two_pair_dataset, pred)
    reports = []
    for threads in (1, 2):
        cli_pools.clear()
        monkeypatch.setenv("LUNARFORGE_THREADS", str(threads))
        report = tmp_path / f"report_{threads}.jsonl"
        assert run(["evaluate", "--gt", str(two_pair_dataset), "--pred", str(pred), "--report", str(report)]) == 0
        assert cli_pools == [threads]
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("defect", ["depth_shape", "depth_nan"])
def test_evaluate_flags_a_bad_ground_truth_depth_and_scores_the_rest(two_pair_dataset, tmp_path, capsys, defect):
    gt = tmp_path / "gt"
    shutil.copytree(two_pair_dataset, gt)
    pred = tmp_path / "pred"
    bad, good = _copy_predictions(gt, pred)
    depth, meta = formats.read_f32_raster(gt / bad / "depth_a.f32")
    depth = np.zeros((10, 10)) if defect == "depth_shape" else np.full(depth.shape, np.nan)
    formats.write_f32_raster(gt / bad / "depth_a.f32", depth, meta)
    report = tmp_path / "report.jsonl"
    assert run(["evaluate", "--gt", str(gt), "--pred", str(pred), "--report", str(report)]) == 0
    lines = [json.loads(ln) for ln in report.read_text().splitlines()]
    entries = {ln["pair_id"]: ln for ln in lines[:-1]}
    if defect == "depth_shape":  # the pair cannot be scored
        assert entries[bad]["status"] == "error"
        assert entries[bad]["error"]["type"] == "ValueError"
        assert "depth_a" in entries[bad]["error"]["detail"]
        assert lines[-1]["failed"] == [bad]
    else:  # view a has no depth to compare: SSIM and profiles are flagged
        assert entries[bad]["status"] == "ok"
        assert entries[bad]["flags"]["ssim"] == "shared valid mask is empty"
        assert "profile" in entries[bad]["flags"]
        assert entries[bad]["chamfer_m"] < 1e-4
        assert lines[-1]["pairs_failed"] == 0
    assert entries[good]["status"] == "ok"
    assert entries[good]["chamfer_m"] < 1e-4
    assert entries[good]["flags"] == {}
    if defect == "depth_shape":
        assert f"warning: 1 pairs failed to load: {bad}\n" in capsys.readouterr().err


def _edit_manifest(gt, index, edit):
    """Apply `edit` to the manifest's pair record number `index` (0-based)."""
    manifest = gt / "manifest.jsonl"
    header, *records = manifest.read_text().splitlines()
    record = json.loads(records[index])
    edit(record)
    records[index] = json.dumps(record, sort_keys=True)
    manifest.write_text("\n".join([header, *records]) + "\n")


def test_evaluate_flags_a_record_without_a_trajectory_and_scores_the_rest(two_pair_dataset, tmp_path, capsys):
    gt = tmp_path / "gt"
    shutil.copytree(two_pair_dataset, gt)
    pred = tmp_path / "pred"
    bad, good = _copy_predictions(gt, pred)
    _edit_manifest(gt, 0, lambda record: record.pop("trajectory"))
    report = tmp_path / "report.jsonl"
    assert run(["evaluate", "--gt", str(gt), "--pred", str(pred), "--report", str(report)]) == 0
    lines = [json.loads(ln) for ln in report.read_text().splitlines()]
    entries = {ln["pair_id"]: ln for ln in lines[:-1]}
    assert entries[bad] == {"pair_id": bad, "status": "error",
                            "error": {"type": "KeyError", "detail": "'trajectory'"}}
    assert entries[good]["status"] == "ok" and entries[good]["kind"] == "nadir"
    assert lines[-1]["failed"] == [bad] and lines[-1]["pairs_evaluated"] == 1
    assert f"warning: 1 pairs failed to load: {bad}\n" in capsys.readouterr().err


def test_evaluate_record_without_a_pair_id_is_a_usage_error(two_pair_dataset, tmp_path, capsys):
    gt = tmp_path / "gt"
    shutil.copytree(two_pair_dataset, gt)
    pred = tmp_path / "pred"
    _copy_predictions(gt, pred)
    _edit_manifest(gt, 1, lambda record: record.pop("pair_id"))
    report = tmp_path / "report.jsonl"
    assert run(["evaluate", "--gt", str(gt), "--pred", str(pred), "--report", str(report)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    # Line 1 is the format header, so the second pair record is line 3.
    assert payload == {"error": "usage", "detail": "manifest.jsonl line 3 has no pair_id"}
    assert not report.exists()


@pytest.mark.parametrize("line, problem", [
    pytest.param("not json", "is not a JSON object", id="not-json"),
    pytest.param("[1, 2]", "is not a JSON object", id="not-an-object"),
    *(pytest.param(json.dumps({"pair_id": pair_id}), f"pair_id {pair_id!r} is not a directory name", id=name)
      for name, pair_id in (("pair-id-number", 5), ("pair-id-empty", ""), ("pair-id-path", "sub/pair"))),
])
def test_evaluate_malformed_manifest_line_is_a_usage_error(two_pair_dataset, tmp_path, capsys, line, problem):
    gt = tmp_path / "gt"
    shutil.copytree(two_pair_dataset, gt)
    pred = tmp_path / "pred"
    _copy_predictions(gt, pred)
    manifest = gt / "manifest.jsonl"
    header, _, *records = manifest.read_text().splitlines()
    manifest.write_text("\n".join([header, line, *records]) + "\n")
    report = tmp_path / "report.jsonl"
    assert run(["evaluate", "--gt", str(gt), "--pred", str(pred), "--report", str(report)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "usage", "detail": f"manifest.jsonl line 2 {problem}"}
    assert not report.exists()


# The scalar metrics that by_kind averages: every report field but the pose errors.
MEAN_FIELDS = ("accuracy_m", "completeness_m", "chamfer_m", "accuracy_rel", "completeness_rel", "chamfer_rel",
               "slope_corr", "slope_mae_deg", "profile_mae_m", "profile_corr", "ssim", "si_loss")


def test_evaluate_aggregate_is_computed_from_the_entries(tmp_path):
    """One pair missing, one with a degenerate predicted baseline and no
    ground-truth depth in either view, one a copy of the ground truth: every
    aggregate field follows from the entry lines alone."""
    gt = tmp_path / "gt"
    assert run(GEN_ARGS + ["--lighting", "side,back,overhead", "--out", str(gt)]) == 0
    pred = tmp_path / "pred"
    missing, degenerate, copy = _copy_predictions(gt, pred)
    shutil.rmtree(pred / missing)
    pose_a = formats.read_json(gt / degenerate / "meta.json")["pose_a"]
    for view in ("a", "b"):
        (pred / degenerate / f"pose_{view}.json").write_text(json.dumps(pose_a))
        depth, meta = formats.read_f32_raster(gt / degenerate / f"depth_{view}.f32")
        formats.write_f32_raster(gt / degenerate / f"depth_{view}.f32", np.full(depth.shape, np.nan), meta)
    *entries, aggregate = (json.loads(ln) for ln in _evaluate(gt, pred, tmp_path / "r.jsonl").splitlines())

    assert [(e["pair_id"], e["status"]) for e in entries] == [
        (missing, "missing"), (degenerate, "ok"), (copy, "ok"),
    ]
    ok = entries[1:]
    assert ok[0]["flags"]["rta_deg"] == "degenerate_baseline"
    assert {"ssim", "profile"} <= set(ok[0]["flags"])
    assert isinstance(ok[0]["ssim"], str) and isinstance(ok[1]["ssim"], float)
    assert ok[1]["flags"] == {}

    def floats(values):
        return [v for v in values if isinstance(v, float)]

    expected = {
        "type": "aggregate", "pairs_total": 3, "pairs_evaluated": 2, "pairs_missing": 1, "missing": [missing],
        "pairs_failed": 0, "failed": [], "rta_degenerate_count": 1, "all_missing_warning": False,
    }
    for metric in ("rra", "rta"):
        table = pose_accuracy_table(floats(e[f"{metric}_deg"] for e in ok), [2.0, 5.0, 15.0, 30.0])
        expected[f"{metric}_table"] = {str(int(tau)): share for tau, share in table.items()}
    expected["by_kind"] = {"nadir": {
        name: float(np.mean(vals)) if (vals := floats(e[name] for e in ok)) else "degenerate"
        for name in MEAN_FIELDS
    }}
    assert aggregate == expected
    assert expected["by_kind"]["nadir"]["ssim"] == ok[1]["ssim"]


def _evaluate(gt, pred, report):
    assert run(["evaluate", "--gt", str(gt), "--pred", str(pred), "--report", str(report)]) == 0
    return report.read_text()


def test_evaluate_prediction_needs_only_points_and_shape(two_pair_dataset, tmp_path):
    # A model's pointmap comes in its own frame and scale: the loader reads
    # only the raster and its shape, and the alignment absorbs the rest.
    gt = two_pair_dataset
    copy, bare = tmp_path / "copy", tmp_path / "bare"
    for pair_id in _copy_predictions(gt, copy):
        (bare / pair_id).mkdir(parents=True)
        meta = formats.read_json(gt / pair_id / "meta.json")
        for view in ("a", "b"):
            pts, _ = formats.read_f32_raster(gt / pair_id / f"pointmap_{view}.f32")
            formats.write_f32_raster(bare / pair_id / f"pointmap_{view}.f32", pts, {})
            (bare / pair_id / f"pose_{view}.json").write_text(json.dumps(meta[f"pose_{view}"]))
        assert json.loads((bare / pair_id / "pointmap_a.f32.json").read_text()) == {"shape": list(pts.shape)}
    expected = _evaluate(gt, copy, tmp_path / "copy.jsonl")
    assert '"status": "ok"' in expected and '"status": "error"' not in expected
    assert _evaluate(gt, bare, tmp_path / "bare.jsonl") == expected


@pytest.mark.parametrize("thresholds", ["nan", "inf", "1e400", "2,-5", "0", ",", "5,2,2", "2,2.0"])
def test_bad_thresholds_are_a_usage_error(dataset, tmp_path, monkeypatch, capsys, thresholds):
    import lunarforge.cli as cli

    scored = []
    monkeypatch.setattr(cli, "evaluate_pair", lambda *args: scored.append(args))
    pred = tmp_path / "pred"
    _copy_predictions(dataset, pred)
    report = tmp_path / "r.jsonl"
    code = run(["evaluate", "--gt", str(dataset), "--pred", str(pred),
                "--thresholds", thresholds, "--report", str(report)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert scored == []
    assert not report.exists()


def test_evaluate_threshold_override(dataset, tmp_path):
    pred = tmp_path / "pred"
    pred.mkdir()
    for line in (dataset / "manifest.jsonl").read_text().splitlines()[1:]:
        record = json.loads(line)
        shutil.copytree(dataset / record["pair_id"], pred / record["pair_id"])
    report = tmp_path / "report.jsonl"
    code = run(["evaluate", "--gt", str(dataset), "--pred", str(pred),
                "--thresholds", "5,10", "--report", str(report)])
    assert code == 0
    aggregate = json.loads(report.read_text().splitlines()[-1])
    assert set(aggregate["rra_table"]) == {"5", "10"}
    assert set(aggregate["rta_table"]) == {"5", "10"}


def test_generate_invalid_band_exit_2(tmp_path):
    code = run(["generate", "--synth", "--trajectory", "nadir", "--bands", "10",
                "--out", str(tmp_path / "x")])
    assert code == 2


def test_generate_unknown_lighting_exit_2(tmp_path):
    code = run(["generate", "--synth", "--trajectory", "nadir", "--lighting", "noon",
                "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("flags", [["--bands", "0,0"], ["--lighting", "side,side"]])
def test_generate_duplicate_entries_exit_2(tmp_path, monkeypatch, flags):
    def no_dem(*args, **kwargs):
        raise AssertionError("a DEM was built before the usage check")

    monkeypatch.setattr("lunarforge.cli.synth_dem_for_band", no_dem)
    out = tmp_path / "x"
    code = run(["generate", "--synth", "--trajectory", "nadir", *flags, "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_generate_requires_scene_exit_2(tmp_path):
    code = run(["generate", "--trajectory", "nadir", "--out", str(tmp_path / "x")])
    assert code == 2


def test_visualize_flat_hillshade_all_white(tmp_path):
    raster = tmp_path / "flat.f32"
    formats.write_f32_raster(raster, np.full((24, 24), 7.0), {"spacing_m": 1.0})
    out = tmp_path / "shade.pgm"
    code = run(["visualize", "--input", str(raster), "--mode", "hillshade",
                "--elevation", "90", "--out", str(out)])
    assert code == 0
    data = out.read_bytes()
    header_end = data.index(b"255\n") + 4
    assert set(data[header_end:]) == {255}


def test_visualize_slope_plane_value(tmp_path):
    ys, xs = np.meshgrid(np.arange(24.0), np.arange(24.0), indexing="ij")
    raster = tmp_path / "plane.f32"
    formats.write_f32_raster(raster, 0.1 * xs, {"spacing_m": 1.0})
    out = tmp_path / "slope.pgm"
    code = run(["visualize", "--input", str(raster), "--mode", "slope",
                "--spacing", "1.0", "--out", str(out)])
    assert code == 0
    data = out.read_bytes()
    header_end = data.index(b"255\n") + 4
    values = set(data[header_end:])
    assert values == {32}  # round(atan(0.1) in deg / 45 * 255)


def test_visualize_readme_synth_dem_commands(tmp_path):
    dem = tmp_path / "dem.f32"
    assert run(["synth-dem", "--seed", "1", "--width", "192", "--height", "192",
                "--cell-size", "5", "--out", str(dem)]) == 0
    assert run(["visualize", "--input", str(dem), "--mode", "hillshade", "--azimuth", "315",
                "--elevation", "45", "--out", str(tmp_path / "shade.pgm")]) == 0
    assert run(["visualize", "--input", str(dem), "--mode", "slope", "--spacing", "5",
                "--out", str(tmp_path / "slope.pgm")]) == 0


def test_visualize_dem_spacing_from_cell_size(tmp_path):
    dem = tmp_path / "dem.f32"
    assert run(["synth-dem", "--seed", "4", "--width", "32", "--height", "32",
                "--cell-size", "5", "--out", str(dem)]) == 0
    bare = tmp_path / "bare.f32"
    formats.write_f32_raster(bare, formats.read_f32_raster(dem)[0], {})

    def slope_image(path, *spacing):
        out = tmp_path / f"{path.stem}{len(spacing)}.pgm"
        assert run(["visualize", "--input", str(path), "--mode", "slope", *spacing,
                    "--out", str(out)]) == 0
        return out.read_bytes()

    assert slope_image(dem) == slope_image(bare, "--spacing", "5")
    assert slope_image(dem) != slope_image(bare)  # 1 m default without a cell size


@pytest.mark.parametrize("shape, code", [
    ((8, 8), 0), ((2, 2), 0), ((8, 8, 3), 0),
    ((8, 8, 1), 2), ((8, 8, 2), 2), ((8, 8, 4), 2), ((1, 8), 2), ((8, 1), 2), ((1, 8, 3), 2),
])
@pytest.mark.parametrize("mode", ["hillshade", "slope"])
def test_visualize_takes_a_2d_raster_or_a_pointmap(tmp_path, capsys, shape, code, mode):
    raster = tmp_path / "r.f32"
    formats.write_f32_raster(raster, np.arange(math.prod(shape), dtype=np.float64).reshape(shape), {})
    out = tmp_path / "o.pgm"
    assert run(["visualize", "--input", str(raster), "--mode", mode, "--out", str(out)]) == code
    if code == 2:
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "usage" and str(shape) in payload["detail"]
    assert out.exists() == (code == 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["hillshade", "slope"])
def test_visualize_raster_without_a_finite_value_is_a_usage_error(tmp_path, capsys, mode):
    raster = tmp_path / "nan.f32"
    formats.write_f32_raster(raster, np.full((8, 8), np.nan), {})
    out = tmp_path / "o.pgm"
    assert run(["visualize", "--input", str(raster), "--mode", mode, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "usage", "detail": "input raster has no finite value"}
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("inf", [math.inf, -math.inf])
@pytest.mark.parametrize("mode", ["hillshade", "slope"])
def test_visualize_fills_an_infinite_cell_like_a_nan_one(tmp_path, mode, inf):
    def image(first, second):
        values = np.arange(64, dtype=np.float64).reshape(8, 8)
        values[2, 3], values[5, 6] = first, second
        raster = tmp_path / "r.f32"
        formats.write_f32_raster(raster, values, {})
        out = tmp_path / "o.pgm"
        assert run(["visualize", "--input", str(raster), "--mode", mode, "--out", str(out)]) == 0
        return out.read_bytes()

    assert image(inf, math.nan) == image(math.nan, math.nan)


@pytest.mark.parametrize("cell_size", [math.nan, 0.0, -2.0])
@pytest.mark.parametrize("mode", ["hillshade", "slope"])
def test_visualize_bad_sidecar_cell_size_is_a_usage_error(tmp_path, capsys, mode, cell_size):
    raster = tmp_path / "dem.f32"
    formats.write_f32_raster(raster, np.arange(64, dtype=np.float64).reshape(8, 8), {"cell_size": cell_size})
    out = tmp_path / "o.pgm"
    assert run(["visualize", "--input", str(raster), "--mode", mode, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "usage",
                       "detail": f"sidecar cell_size must be finite and > 0, got {cell_size}"}
    assert not out.exists()
    # --spacing overrides the sidecar.
    assert run(["visualize", "--input", str(raster), "--mode", mode, "--spacing", "5",
                "--out", str(out)]) == 0


def test_visualize_unknown_mode_exit_2(tmp_path):
    raster = tmp_path / "r.f32"
    formats.write_f32_raster(raster, np.zeros((8, 8)), {})
    code = run(["visualize", "--input", str(raster), "--mode", "contour",
                "--out", str(tmp_path / "o.pgm")])
    assert code == 2


def test_synth_dem_round_trip(tmp_path):
    out = tmp_path / "dem.f32"
    code = run(["synth-dem", "--seed", "3", "--width", "48", "--height", "40",
                "--cell-size", "5", "--craters", "3", "--octaves", "2",
                "--out", str(out)])
    assert code == 0
    from lunarforge import load_dem, synth_crater_dem

    dem = load_dem(out, "raw_f32")
    ref = synth_crater_dem(3, 48, 40, 5.0, 3, 2)
    assert np.allclose(dem.elevations, ref.elevations, atol=1e-5)  # f32 storage


def test_generate_over_a_plane_facing_the_sun(tmp_path):
    # Every facet's normal is the overhead sun's direction, so the incidence
    # cosine n.s rounds to just above 1 at some hit points.
    from lunarforge import DemGrid, sun_direction, write_dem
    from lunarforge.trajectory import lighting_preset

    s = sun_direction(lighting_preset("overhead"))
    size, cell = 160, 36.0
    half = (size - 1) * cell / 2
    x, y = np.meshgrid(np.arange(size) * cell - half, np.arange(size) * cell - half)
    dem = tmp_path / "plane.f32"
    write_dem(DemGrid(width=size, height=size, cell_size=cell, origin_x=-half, origin_y=-half,
                      elevations=-(s[0] * x + s[1] * y) / s[2]), dem, "raw_f32")
    out = tmp_path / "out"
    assert run(["generate", "--dem", str(dem), "--trajectory", "nadir", "--bands", "0",
                "--lighting", "overhead", "--res", "64", "--out", str(out)]) == 0
    image = formats.read_pgm16(out / "nadir_b00_p000_overhead" / "image_a.pgm")
    assert image.min() > 0  # the whole plane is lit


def test_render_pair_zero_baseline(tmp_path):
    out = tmp_path / "zb"
    code = run(["render-pair", "--synth", "--trajectory", "nadir", "--band", "0",
                "--seed", "2", "--res", "32", "--synth-size", "96",
                "--zero-baseline", "--out", str(out)])
    assert code == 0
    meta = formats.read_json(out / "nadir_b00_p000_side" / "meta.json")
    assert meta["pose_a"] == meta["pose_b"]


def test_render_pair_allow_disjoint_zero_correspondences(tmp_path):
    out = tmp_path / "dj"
    code = run(["render-pair", "--synth", "--trajectory", "nadir", "--band", "0",
                "--seed", "2", "--res", "32", "--synth-size", "128",
                "--allow-disjoint", "--out", str(out)])
    assert code == 0
    corr = formats.read_correspondences_csv(out / "nadir_b00_p000_side" / "correspondences.csv")
    assert corr.shape == (0, 4)


def test_cli_version_and_help():
    assert run(["--version"]) == 0
    assert run(["generate", "--help"]) == 0
    assert run([]) == 2  # missing subcommand


def test_runtime_failure_error_json_and_cleanup(tmp_path, capsys):
    # Band 9 frusta cannot fit a tiny synthetic tile: runtime failure, exit 1,
    # machine-readable error JSON, and no partial pair directories left.
    out = tmp_path / "fail"
    code = run(["generate", "--synth", "--trajectory", "oblique", "--bands", "9",
                "--pairs", "1", "--res", "32", "--synth-size", "96",
                "--synth-craters", "0", "--synth-octaves", "0",
                "--seed", "1", "--out", str(out)])
    # Force the failure through a DEM that is too small for the band instead
    # when the sized synthesis succeeds.
    if code == 0:
        from lunarforge import DemGrid, write_dem
        import numpy as np

        tiny = DemGrid(width=16, height=16, cell_size=10.0, origin_x=0.0, origin_y=0.0,
                       elevations=np.zeros((16, 16)))
        dem_path = tmp_path / "tiny.f32"
        write_dem(tiny, dem_path, "raw_f32")
        out = tmp_path / "fail2"
        code = run(["generate", "--dem", str(dem_path), "--trajectory", "nadir",
                    "--bands", "9", "--pairs", "1", "--res", "32",
                    "--seed", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload and "detail" in payload
    if out.exists():
        assert [p for p in out.iterdir()] == []  # partial outputs removed


def test_workers_env_cap(monkeypatch):
    # LUNARFORGE_THREADS sets the thread count, above the default as well as
    # below it; unset, the count is min(4, cores).
    import lunarforge.renderer as renderer

    monkeypatch.setattr(renderer.os, "cpu_count", lambda: 16)
    monkeypatch.delenv("LUNARFORGE_THREADS", raising=False)
    assert renderer.resolve_workers() == 4
    for text, threads in (("1", 1), ("8", 8), (" 12 ", 12)):
        monkeypatch.setenv("LUNARFORGE_THREADS", text)
        assert renderer.resolve_workers() == threads
    monkeypatch.setattr(renderer.os, "cpu_count", lambda: None)
    monkeypatch.delenv("LUNARFORGE_THREADS")
    assert renderer.resolve_workers() == 1


@pytest.mark.parametrize("hole", [(slice(30, 42), slice(54, 66)), (slice(42, 54), slice(42, 54))],
                         ids=["beside-nadir", "under-camera"])
def test_generate_over_a_dem_with_a_nodata_hole(tmp_path, hole):
    # Rays that pass through the hole hit its walls, on the edges of nodata
    # cells; their normals and the camera-height check must not need the
    # missing heights.
    from lunarforge import DemGrid, write_dem
    from lunarforge.cli import synth_dem_for_band

    dem = synth_dem_for_band("nadir", 0, seed=7, size=96)
    elevations = dem.elevations.copy()
    elevations[hole] = np.nan
    dem_path = tmp_path / "holed.f32"
    write_dem(DemGrid(width=dem.width, height=dem.height, cell_size=dem.cell_size, origin_x=dem.origin_x,
                      origin_y=dem.origin_y, elevations=elevations), dem_path, "raw_f32")
    out = tmp_path / "out"
    assert run(["generate", "--dem", str(dem_path), "--trajectory", "nadir", "--bands", "0",
                "--pairs", "2", "--res", "32", "--seed", "3", "--out", str(out)]) == 0
    records = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()[1:]]
    assert len(records) == 2
    missed = 0
    for record in records:
        for view in ("a", "b"):
            image = formats.read_pgm16(out / record["paths"][f"image_{view}"])
            assert image.shape == (32, 32) and image.max() > 0
            depth, _ = formats.read_f32_raster(out / record["paths"][f"depth_{view}"])
            missed += int(np.isnan(depth).sum())
    assert missed > 0  # the hole is in view
