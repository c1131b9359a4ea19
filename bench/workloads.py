"""Workload definitions and their untimed set-up.

A workload is one lunarforge CLI invocation, repeated.  ``gen_*`` workloads
time the rendering subcommand itself; ``eval_*`` workloads render a dataset
during set-up and time ``evaluate`` on it.  Every input derives from the
workload seed.  README.md records why each workload exists.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Known similarity applied to ground truth to make noisy predictions:
# pred = s * R(yaw) @ (gt + noise) + offset, with outliers replacing 40% of
# the points.  The alignment evaluate recovers must invert it.
PRED_SCALE = 0.5
PRED_NOISE_M = 2.0
PRED_OUTLIER_FRACTION = 0.4
PRED_OUTLIER_M = 200.0


@dataclass(frozen=True)
class Scene:
    """Arguments of one rendering invocation (generate or render-pair)."""

    kind: str
    bands: tuple[int, ...]
    lightings: tuple[str, ...]
    pairs_per_band: int = 1
    res: int = 128
    synth_size: int = 160
    single_pair: bool = False  # render-pair instead of generate

    @property
    def pair_count(self) -> int:
        return len(self.bands) * self.pairs_per_band * len(self.lightings)

    def pair_ids(self) -> list[str]:
        return sorted(
            f"{self.kind}_b{band:02d}_p{idx:03d}_{lid}"
            for band in self.bands
            for idx in range(self.pairs_per_band)
            for lid in self.lightings
        )

    def argv(self, seed: int, out: Path) -> list[str]:
        common = ["--synth", "--synth-size", str(self.synth_size), "--trajectory", self.kind,
                  "--res", str(self.res), "--seed", str(seed), "--out", str(out)]
        if self.single_pair:
            return ["render-pair", *common, "--band", str(self.bands[0]),
                    "--lighting", self.lightings[0]]
        return ["generate", *common, "--bands", ",".join(map(str, self.bands)),
                "--pairs", str(self.pairs_per_band), "--lighting", ",".join(self.lightings)]


@dataclass(frozen=True)
class Workload:
    name: str
    scene: Scene
    predictions: str | None = None  # None: time the scene; "gt" | "noisy": time evaluate

    @property
    def pairs(self) -> int:
        return self.scene.pair_count


DESK = Scene(kind="oblique", bands=(0, 5), lightings=("side", "back"))
LARGE_DEM = Scene(kind="nadir", bands=(9,), lightings=("overhead",), res=192,
                  synth_size=640, single_pair=True)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("gen_desk", DESK),
        Workload("render_large_dem", LARGE_DEM),
        Workload("eval_noisy", DESK, predictions="noisy"),
        Workload("eval_gt", DESK, predictions="gt"),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload at test size: seconds instead of tens of seconds.

    64 px keeps the GSD, and so evaluate's 3-GSD inlier threshold, small
    enough that the 200 m outliers stay outliers.
    """
    scene = workload.scene
    return replace(workload, scene=replace(scene, res=64 if scene.res == 128 else 48,
                                           synth_size=64 if scene.synth_size == 160 else 96))


def _rotation_z(deg: float) -> np.ndarray:
    a = np.radians(deg)
    return np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])


def _write_f32(path: Path, array: np.ndarray, sidecar: dict) -> None:
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    np.asarray(array, dtype="<f4").tofile(path)


def read_f32(path: Path) -> tuple[np.ndarray, dict]:
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    return np.fromfile(path, dtype="<f4").astype(np.float64).reshape(sidecar["shape"]), sidecar


def write_predictions(workload: Workload, seed: int, gt_dir: Path, pred_dir: Path) -> dict:
    """Write per-pair predictions for an eval workload; returns the known
    alignment (pred -> gt) that evaluate must recover."""
    pred_dir.mkdir(parents=True)
    if workload.predictions == "gt":
        for pair_id in workload.scene.pair_ids():
            shutil.copytree(gt_dir / pair_id, pred_dir / pair_id)
        return {"scale": 1.0, "rotation": np.eye(3).tolist()}

    rng = np.random.default_rng([seed, 0xE7A1])
    yaw = float(rng.uniform(0.0, 360.0))
    rot = _rotation_z(yaw)
    offset = rng.normal(0.0, 1000.0, 3)
    for pair_id in workload.scene.pair_ids():
        (pred_dir / pair_id).mkdir()
        shutil.copy(gt_dir / pair_id / "meta.json", pred_dir / pair_id / "meta.json")
        for view in ("a", "b"):
            name = f"pointmap_{view}.f32"
            gt, sidecar = read_f32(gt_dir / pair_id / name)
            pts = gt + rng.normal(0.0, PRED_NOISE_M, gt.shape)
            outliers = rng.random(gt.shape[:2]) < PRED_OUTLIER_FRACTION
            pts[outliers] = gt[outliers] + rng.normal(0.0, PRED_OUTLIER_M, (int(outliers.sum()), 3))
            _write_f32(pred_dir / pair_id / name, PRED_SCALE * pts @ rot.T + offset, sidecar)
    return {"scale": 1.0 / PRED_SCALE, "rotation": rot.T.tolist()}
