import numpy as np
import pytest

from lunarforge import sample_pair
from lunarforge.cli import synth_dem_for_band
from lunarforge.trajectory import (
    ALTITUDE_BANDS_M,
    KINDS,
    FootprintTooSmallError,
    TrajectorySpec,
    footprint_overlap,
    lighting_preset,
    synth_extent_m,
)
from oracles import reference_synth_extent_m

DOWN = np.array([0.0, 0.0, -1.0])


def view_dir(pose):
    return pose.rotation @ DOWN


def test_lighting_presets():
    assert lighting_preset("side").azimuth == 150.0
    assert lighting_preset("overhead").azimuth == 250.0
    assert lighting_preset("back").azimuth == 0.0  # 360 normalized into [0, 360)
    assert 2.0 <= lighting_preset("polar").elevation <= 4.0  # south polar cap
    with pytest.raises(ValueError):
        lighting_preset("noon")


def test_spec_invariants_enforced():
    base = dict(kind="nadir", altitude_m=3500.0, baseline_frac=0.05, tilt_deg=0.0,
                roll_deg=0.0, altitude_delta_frac=0.0, heading_deg=10.0, seed=1)
    TrajectorySpec(**base)
    with pytest.raises(ValueError):
        TrajectorySpec(**{**base, "baseline_frac": 0.2})
    with pytest.raises(ValueError):
        TrajectorySpec(**{**base, "tilt_deg": 5.0})
    with pytest.raises(ValueError):
        TrajectorySpec(**{**base, "kind": "oblique", "tilt_deg": 10.0})
    with pytest.raises(ValueError):
        TrajectorySpec(**{**base, "kind": "dynamic", "tilt_deg": 5.0, "roll_deg": 15.0,
                          "baseline_frac": 0.1})
    with pytest.raises(ValueError):
        TrajectorySpec(**{**base, "kind": "spiral"})


# A spec inside each family's ranges.
VALID_SPECS = {
    "oblique": dict(kind="oblique", altitude_m=3500.0, baseline_frac=0.05, tilt_deg=25.0, roll_deg=0.0,
                    altitude_delta_frac=0.05, heading_deg=10.0, seed=1),
    "dynamic": dict(kind="dynamic", altitude_m=3500.0, baseline_frac=0.1, tilt_deg=10.0, roll_deg=5.0,
                    altitude_delta_frac=-0.2, heading_deg=10.0, seed=1),
}


@pytest.mark.parametrize("kind, field, value", [
    ("oblique", "baseline_frac", 0.2),
    ("oblique", "altitude_delta_frac", 0.3),
    ("oblique", "altitude_delta_frac", 0.1),  # between the choices
    ("dynamic", "tilt_deg", 40.0),
    ("dynamic", "baseline_frac", float("nan")),
])
def test_spec_checks_every_range_of_its_family(kind, field, value):
    TrajectorySpec(**VALID_SPECS[kind])
    with pytest.raises(ValueError, match=f"{kind} {field}"):
        TrajectorySpec(**{**VALID_SPECS[kind], field: value})


@pytest.mark.parametrize("allow_disjoint", [False, True])
@pytest.mark.parametrize("band", range(len(ALTITUDE_BANDS_M)))
@pytest.mark.parametrize("kind", KINDS)
def test_synth_extent_matches_the_reference_formula_bit_for_bit(kind, band, allow_disjoint):
    got = synth_extent_m(kind, band, allow_disjoint)
    assert got.hex() == reference_synth_extent_m(kind, band, allow_disjoint).hex()


def test_nadir_pair_geometry():
    dem = synth_dem_for_band("nadir", 0, seed=7)
    spec, rig = sample_pair("nadir", 5, 0, dem)
    assert rig.pose_a.translation[2] == pytest.approx(rig.pose_b.translation[2])
    assert np.allclose(view_dir(rig.pose_a), DOWN, atol=1e-12)
    assert np.allclose(view_dir(rig.pose_b), DOWN, atol=1e-12)
    assert 0.04 <= spec.baseline_frac <= 0.10
    horizontal = np.linalg.norm((rig.pose_b.translation - rig.pose_a.translation)[:2])
    assert horizontal == pytest.approx(spec.baseline_frac * spec.altitude_m, rel=1e-6)


def test_oblique_pair_geometry():
    dem = synth_dem_for_band("oblique", 1, seed=7)
    spec, rig = sample_pair("oblique", 9, 1, dem)
    assert 20 <= spec.tilt_deg <= 35
    tilt_a = np.degrees(np.arccos(-view_dir(rig.pose_a)[2]))
    assert 15 < tilt_a < 40  # close to the nominal tilt
    assert spec.altitude_delta_frac in (0.0, 0.05, 0.15)
    alt_ratio = 1 + spec.altitude_delta_frac
    ground = dem.mean_height()
    got_ratio = (rig.pose_b.translation[2] - ground) / (rig.pose_a.translation[2] - ground)
    assert got_ratio == pytest.approx(alt_ratio, rel=0.02)


def test_dynamic_bounds_over_seeds():
    dem = synth_dem_for_band("dynamic", 3, seed=7)
    for seed in range(12):
        spec, rig = sample_pair("dynamic", seed, 3, dem)
        assert abs(spec.altitude_delta_frac) <= 0.30
        assert abs(spec.roll_deg) <= 10.0
        assert 0.05 <= spec.baseline_frac <= 0.18
        ground = dem.mean_height()
        alt_a = rig.pose_a.translation[2] - ground
        alt_b = rig.pose_b.translation[2] - ground
        assert abs(alt_b / alt_a - 1) <= 0.30 + 0.02


def test_altitude_bands_with_jitter():
    dem = synth_dem_for_band("nadir", 9, seed=7)
    for band in (0, 4, 9):
        dem_b = synth_dem_for_band("nadir", band, seed=7)
        spec, _ = sample_pair("nadir", 2, band, dem_b)
        assert abs(spec.altitude_m / ALTITUDE_BANDS_M[band] - 1) <= 0.05


def test_determinism():
    dem = synth_dem_for_band("dynamic", 2, seed=7)
    s1, r1 = sample_pair("dynamic", 17, 2, dem)
    s2, r2 = sample_pair("dynamic", 17, 2, dem)
    assert s1 == s2
    assert r1.pose_a.rotation.tobytes() == r2.pose_a.rotation.tobytes()
    assert r1.pose_b.translation.tobytes() == r2.pose_b.translation.tobytes()
    s3, _ = sample_pair("dynamic", 18, 2, dem)
    assert s3 != s1


def test_rotations_orthonormal_all_kinds():
    for kind in ("nadir", "oblique", "dynamic"):
        dem = synth_dem_for_band(kind, 2, seed=7)
        for seed in range(6):
            _, rig = sample_pair(kind, seed, 2, dem)
            for pose in (rig.pose_a, rig.pose_b):
                assert np.allclose(pose.rotation.T @ pose.rotation, np.eye(3), atol=1e-9)


def test_footprints_overlap_all_kinds():
    for kind in ("nadir", "oblique", "dynamic"):
        dem = synth_dem_for_band(kind, 1, seed=7)
        for seed in range(8):
            _, rig = sample_pair(kind, seed, 1, dem)
            overlap = footprint_overlap(rig.intrinsics, rig.pose_a, rig.pose_b, dem.mean_height())
            assert overlap > 0.30


def test_allow_disjoint_produces_no_overlap():
    dem = synth_dem_for_band("nadir", 0, seed=7, allow_disjoint=True)
    _, rig = sample_pair("nadir", 4, 0, dem, allow_disjoint=True)
    overlap = footprint_overlap(rig.intrinsics, rig.pose_a, rig.pose_b, dem.mean_height())
    assert overlap == 0.0


def test_footprint_too_small():
    import lunarforge as lf

    tiny = lf.DemGrid(cell_size=10.0, origin_x=0.0, origin_y=0.0, elevations=np.zeros((16, 16)))
    with pytest.raises(FootprintTooSmallError):
        sample_pair("nadir", 1, 9, tiny)


def test_invalid_band():
    dem = synth_dem_for_band("nadir", 0, seed=7)
    with pytest.raises(ValueError):
        sample_pair("nadir", 1, 10, dem)
    with pytest.raises(ValueError):
        sample_pair("circular", 1, 0, dem)


def test_spec_json_round_trip():
    dem = synth_dem_for_band("dynamic", 1, seed=7)
    spec, _ = sample_pair("dynamic", 3, 1, dem)
    d = spec.to_json_dict()
    assert set(d) == {"kind", "altitude_m", "baseline_frac", "tilt_deg", "roll_deg",
                      "altitude_delta_frac", "heading_deg", "seed"}
    assert TrajectorySpec.from_json_dict(d) == spec


def test_spec_from_json_ignores_the_lighting_of_a_record():
    dem = synth_dem_for_band("oblique", 1, seed=7)
    spec, _ = sample_pair("oblique", 3, 1, dem)
    assert TrajectorySpec.from_json_dict({**spec.to_json_dict(), "lighting": "polar"}) == spec
