"""SHA-256 digests of tiny generate trees and of one evaluate report.

LunarStereo is a dataset: regenerating it from the same seed on another
machine must give the same bytes.  The digests below were recorded with the
numpy and scipy versions in RECORDED_WITH; under other versions the test
skips, since a new wheel may change the last bit of a ufunc.  Run the module
under NPY_DISABLE_CPU_FEATURES (say "X86_V4 AVX512_ICL AVX512_SPR", or the
same with X86_V3) to check the bytes at numpy's lower SIMD dispatch levels.
A change that declares an output change records the new digests here; a
failing assertion prints them.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy

from lunarforge.cli import main

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

pytestmark = pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"digests recorded with {RECORDED_WITH}",
)

SCENE = ["--synth", "--synth-size", "64", "--bands", "0,9", "--pairs", "1",
         "--lighting", "side,back,polar", "--seed", "5", "--stride", "4"]

GENERATE_DIGESTS = {
    "nadir": ("32", "bc0ef06c2f37bbe8b481fda308671350b855b11d5ba2616cba7795f0c21cdcc0"),
    "oblique": ("40", "960a4201e26c1ace76d02ad5a1d69d27cf63e4cb2a661fac6d2d8455a0d123a8"),
    "dynamic": ("48", "e71875a81f298b44204ef8d793125d209b7acd1790368ef936115542d4d0c210"),
}

# evaluate --gt <oblique tree> --pred <copies of its pair directories>, by
# whether numpy dispatches to AVX-512 (X86_V4).  The two differ in the last
# bits of slope_mae_deg: np.arctan in terrain.slope_map rounds differently
# there.  The X86_V3 (AVX2) and X86_V2 levels give the same report.
EVALUATE_DIGESTS = {
    True: "29a19dd378f01d7a7c2e625b47ae09ddaac63a934e97d02924628c15a5c01094",
    False: "063fff252b5b1d3032ad50ca71ed028d35b9beb30f4a3cf479fcd3d88817b24a",
}


def tree_digest(root: Path) -> str:
    """SHA-256 over each file's relative path and SHA-256, in path order."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(f"{p.relative_to(root).as_posix()}\0{hashlib.sha256(p.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    root = tmp_path_factory.mktemp("digests")
    out = {}
    for kind, (res, _) in GENERATE_DIGESTS.items():
        out[kind] = root / kind
        assert main(["generate", "--trajectory", kind, "--res", res, *SCENE, "--out", str(out[kind])]) == 0
    return out


@pytest.mark.parametrize("kind", list(GENERATE_DIGESTS))
def test_generate_tree_digest(trees, kind):
    assert tree_digest(trees[kind]) == GENERATE_DIGESTS[kind][1]


def test_evaluate_report_digest(trees, tmp_path):
    from numpy._core._multiarray_umath import __cpu_features__  # numpy 2 only

    gt = trees["oblique"]
    pred = tmp_path / "pred"
    for line in (gt / "manifest.jsonl").read_text().splitlines()[1:]:
        pair_id = json.loads(line)["pair_id"]
        shutil.copytree(gt / pair_id, pred / pair_id)
    report = tmp_path / "report.jsonl"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == EVALUATE_DIGESTS[__cpu_features__["X86_V4"]]
