"""On-disk formats for rendered products.

- images: 16-bit grayscale PGM (P5, maxval 65535, big-endian samples)
- depth / pointmap rasters: raw little-endian float32, row-major, NaN =
  invalid, with a JSON sidecar at <path>.json.  The reader returns the
  stored float32 array; callers convert to float64 where they compute, so a
  raster is held at half the size of a float64 copy.
- correspondences: CSV with a "u1,v1,u2,v2" header line

All writers are byte-deterministic for identical inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def write_pgm16(path, image: np.ndarray) -> None:
    """Write a [0, 1] float raster as a 16-bit P5 PGM; ValueError for a
    pixel outside [0, 1], NaN included."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be 2D")
    # Written as "inside" so that a NaN pixel fails both comparisons.
    if not np.all((img >= 0) & (img <= 1)):
        raise ValueError("image values must lie in [0, 1]")
    _write_pgm(path, np.round(img * 65535).astype(">u2"), 65535)


def _write_pgm(path, samples: np.ndarray, maxval: int) -> None:
    """The P5 layout: lines "P5", "W H" and maxval, then the row-major samples."""
    h, w = samples.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(samples.tobytes())


def read_pgm16(path) -> np.ndarray:
    """Read a P5 PGM written by write_pgm16 back into a [0, 1] float raster;
    any other header, an 8-bit PGM's included, is a ValueError."""
    magic, size, maxval, samples = Path(path).read_bytes().split(b"\n", 3)
    if magic != b"P5" or maxval != b"65535":
        raise ValueError("not a 16-bit binary PGM (P5, maxval 65535)")
    w, h = (int(v) for v in size.split(b" "))
    raster = np.frombuffer(samples, dtype=">u2", count=w * h)
    return raster.reshape(h, w).astype(np.float64) / 65535.0


def write_pgm8(path, image: np.ndarray) -> None:
    """Write a [0, 1] float raster as an 8-bit P5 PGM (visualizations)."""
    img = np.asarray(image, dtype=np.float64)
    _write_pgm(path, np.round(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8), 255)


def write_f32_raster(path, array: np.ndarray, meta: dict) -> None:
    """Raw little-endian f32 dump plus a JSON sidecar describing it."""
    arr = np.asarray(array, dtype=np.float64)
    sidecar = dict(meta)
    sidecar["shape"] = list(arr.shape)
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    arr.astype("<f4").tofile(path)


def read_f32_raster(path):
    """Inverse of write_f32_raster; returns (float32 array, sidecar dict)."""
    meta = json.loads(Path(str(path) + ".json").read_text())
    shape = tuple(meta["shape"])
    raw = np.fromfile(path, dtype="<f4")
    expected = int(np.prod(shape))
    if raw.size != expected:
        raise ValueError(f"raster size {raw.size} does not match sidecar shape {shape}")
    return raw.reshape(shape), meta


def write_correspondences_csv(path, pairs: np.ndarray) -> None:
    # One format string over Python floats: "%.6f" of a float is the same
    # text as the ".6f" format of its np.float64, without a numpy scalar
    # per value.
    values = np.asarray(pairs, dtype=np.float64).reshape(-1, 4)
    body = ("%.6f,%.6f,%.6f,%.6f\n" * len(values)) % tuple(values.ravel().tolist())
    Path(path).write_text("u1,v1,u2,v2\n" + body)


def read_correspondences_csv(path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "u1,v1,u2,v2":
        raise ValueError("correspondence CSV must start with a 'u1,v1,u2,v2' header")
    if len(lines) == 1:
        return np.zeros((0, 4))
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]], dtype=np.float64)


def write_json(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
