import math

import numpy as np
import pytest

import oracles
from lunarforge import DemGrid, HapkeParams, SunConfig, hapke_brdf, sun_direction, synth_crater_dem
from lunarforge._heightfield import shadow_mask, sun_ceiling
from lunarforge.radiometry import opposition_surge, shade_points
from lunarforge.terrain import surface_normal

# Frozen from the standalone transcription in oracles.hapke_reference at
# mu0 = mu = cos 30 deg, g = 30 deg, w=0.25, B0=1, h_opp=0.05, xi=-0.25.
GOLDEN_BRDF = 0.027182375121551475
DEFAULTS = HapkeParams(w=0.25, B0=1.0, h_opp=0.05, xi=-0.25)


def test_params_validation():
    with pytest.raises(ValueError):
        HapkeParams(w=0.0)
    with pytest.raises(ValueError):
        HapkeParams(w=1.5)
    with pytest.raises(ValueError):
        HapkeParams(B0=-0.1)
    with pytest.raises(ValueError):
        HapkeParams(h_opp=0.0)
    with pytest.raises(ValueError):
        HapkeParams(xi=1.0)
    with pytest.raises(ValueError):
        SunConfig(azimuth=360.0, elevation=20.0)
    with pytest.raises(ValueError):
        SunConfig(azimuth=0.0, elevation=0.0)
    for value in (math.inf, math.nan):
        for field in ("B0", "h_opp"):
            with pytest.raises(ValueError, match=field):
                HapkeParams(**{field: value})
    for irradiance in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="irradiance"):
            SunConfig(azimuth=150.0, elevation=20.0, irradiance=irradiance)
    SunConfig(azimuth=150.0, elevation=20.0, irradiance=0.0)  # a dark sun is allowed


def test_golden_scalar():
    mu = math.cos(math.radians(30.0))
    g = math.radians(30.0)
    assert oracles.hapke_reference(mu, mu, g, 0.25, 1.0, 0.05, -0.25) == GOLDEN_BRDF
    assert hapke_brdf(mu, mu, g, DEFAULTS) == pytest.approx(GOLDEN_BRDF, rel=0, abs=1e-16)


def test_brdf_vanishes_with_albedo():
    mu = math.cos(math.radians(40.0))
    for g_deg in (0.0, 30.0, 90.0):
        r = hapke_brdf(mu, 0.9, math.radians(g_deg), HapkeParams(w=1e-12))
        assert 0 <= r < 1e-12


def test_opposition_limit_exact():
    assert opposition_surge(0.0, 1.0, 0.05) == 1.0
    assert opposition_surge(0.0, 0.37, 0.02) == 0.37


def test_reciprocity_exact():
    rng = np.random.default_rng(11)
    for _ in range(200):
        mu0 = rng.uniform(0.05, 1.0)
        mu = rng.uniform(0.05, 1.0)
        g = rng.uniform(0.0, math.pi)
        assert hapke_brdf(mu0, mu, g, DEFAULTS) == hapke_brdf(mu, mu0, g, DEFAULTS)


def test_monotone_in_phase_for_backscatter():
    gs = np.radians(np.linspace(0.0, 90.0, 91))
    for xi in (-0.4, -0.25, 0.0):
        params = HapkeParams(w=0.3, B0=1.0, h_opp=0.05, xi=xi)
        vals = hapke_brdf(0.7, 0.8, gs, params)
        assert np.all(np.diff(vals) <= 1e-15)


def test_brdf_domain_errors():
    with pytest.raises(ValueError):
        hapke_brdf(0.0, 0.5, 0.1, DEFAULTS)
    with pytest.raises(ValueError):
        hapke_brdf(0.5, 1.1, 0.1, DEFAULTS)
    with pytest.raises(ValueError):
        hapke_brdf(0.5, 0.5, -0.1, DEFAULTS)


def test_brdf_finite_nonnegative_grid():
    mus = np.linspace(0.02, 1.0, 15)
    gs = np.radians(np.linspace(0, 180, 19))
    for mu0 in mus:
        vals = hapke_brdf(mu0, mus[:, None], gs[None, :], DEFAULTS)
        assert np.isfinite(vals).all()
        assert (vals >= 0).all()


def test_sun_direction_vertical():
    assert np.allclose(sun_direction(SunConfig(azimuth=123.0, elevation=90.0)), [0, 0, 1], atol=1e-12)


def test_sun_direction_north_grazing():
    s = sun_direction(SunConfig(azimuth=0.0, elevation=1e-6))
    assert np.allclose(s, [0, 1, 0], atol=1e-6)


def test_sun_direction_unit_norm_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        cfg = SunConfig(azimuth=rng.uniform(0, 360), elevation=rng.uniform(1, 90))
        assert abs(np.linalg.norm(sun_direction(cfg)) - 1) < 1e-12


# ---------------------------------------------------------------------------
# Shadows
# ---------------------------------------------------------------------------


def shadowed(dem, points, sun_dir):
    """shadow_mask of (N, 3) points, or of one point, under the sun's own
    ceiling."""
    return shadow_mask(dem, np.reshape(points, (-1, 3)), sun_dir, sun_ceiling(dem, sun_dir))


def shade(dem, points, view_dirs, sun):
    """shade_points of (N, 3) points, or of one point, under the sun's own
    ceiling, with the cosines of the points' surface normals."""
    points = np.reshape(points, (-1, 3))
    view_dirs = np.reshape(view_dirs, (-1, 3))
    normals = surface_normal(dem, points[:, 0], points[:, 1])
    s = sun_direction(sun)
    return shade_points(dem, points, normals @ s, np.einsum("ij,ij->i", normals, view_dirs), view_dirs,
                        sun, DEFAULTS, sun_ceiling(dem, s))


def test_flat_terrain_always_lit(flat_dem):
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = np.array([rng.uniform(-200, 200), rng.uniform(-200, 200), 0.0])
        s = sun_direction(SunConfig(azimuth=rng.uniform(0, 360), elevation=rng.uniform(2, 88)))
        assert not shadowed(flat_dem, p, s).any()


def test_crater_floor_shadowed_grazing_sun():
    dem = synth_crater_dem(5, 64, 64, 1.0, crater_count=1, fractal_octaves=0)
    z = dem.elevations
    iy, ix = np.unravel_index(np.argmin(z), z.shape)
    floor = np.array([dem.origin_x + ix * dem.cell_size, dem.origin_y + iy * dem.cell_size, z[iy, ix]])
    sun = sun_direction(SunConfig(azimuth=90.0, elevation=2.0))
    bias = 0.5 * dem.cell_size
    assert shadowed(dem, floor, sun).all()
    assert oracles.brute_force_shadowed(dem, floor, sun, bias) is True


def test_rim_crest_lit_grazing_sun():
    dem = synth_crater_dem(5, 64, 64, 1.0, crater_count=1, fractal_octaves=0)
    z = dem.elevations
    iy, ix = np.unravel_index(np.argmax(z), z.shape)  # highest rim point
    crest = np.array([dem.origin_x + ix * dem.cell_size, dem.origin_y + iy * dem.cell_size, z[iy, ix]])
    sun = sun_direction(SunConfig(azimuth=90.0, elevation=2.0))
    bias = 0.5 * dem.cell_size
    (cast,) = shadowed(dem, crest, sun)
    assert cast == oracles.brute_force_shadowed(dem, crest, sun, bias)
    assert not cast


def test_shadow_agreement_random_points():
    dem = synth_crater_dem(8, 48, 48, 2.0, 3, 2)
    sun = sun_direction(SunConfig(azimuth=210.0, elevation=6.0))
    rng = np.random.default_rng(9)
    bias = 0.5 * dem.cell_size
    from lunarforge.terrain import sample_height

    points = []
    for _ in range(40):
        x = rng.uniform(dem.x_min + 2, dem.x_max - 2)
        y = rng.uniform(dem.y_min + 2, dem.y_max - 2)
        points.append([x, y, sample_height(dem, x, y)])
    cast = shadowed(dem, np.array(points), sun)
    assert cast.tolist() == [oracles.brute_force_shadowed(dem, np.array(p), sun, bias) for p in points]


# ---------------------------------------------------------------------------
# Shading
# ---------------------------------------------------------------------------


def test_shade_zero_when_shadowed():
    dem = synth_crater_dem(5, 64, 64, 1.0, crater_count=1, fractal_octaves=0)
    z = dem.elevations
    iy, ix = np.unravel_index(np.argmin(z), z.shape)
    floor = np.array([dem.origin_x + ix * dem.cell_size, dem.origin_y + iy * dem.cell_size, z[iy, ix]])
    sun = SunConfig(azimuth=90.0, elevation=2.0)
    assert shade(dem, floor, [0.0, 0.0, 1.0], sun).tolist() == [0.0]


def test_shade_zero_when_sun_below_facet():
    # A plane rising 70 deg toward an eastern 30 deg sun: its facet normal
    # tips 40 deg past the sun's horizon, so mu0 < 0.
    n = np.array([-math.sin(math.radians(70)), 0.0, math.cos(math.radians(70))])
    xs = np.arange(16) - 7.5
    dem = DemGrid(cell_size=1.0, origin_x=-7.5, origin_y=-7.5,
                  elevations=np.tile(math.tan(math.radians(70)) * xs, (16, 1)))
    assert np.allclose(surface_normal(dem, 0.0, 0.0), n, rtol=0, atol=1e-12)
    sun = SunConfig(azimuth=90.0, elevation=30.0)
    assert shade(dem, np.zeros(3), [0.0, 0.0, 1.0], sun).tolist() == [0.0]


def test_shade_composes_golden(flat_dem):
    # Flat terrain, nadir view, sun elevation 60 deg: g = 30, mu0 = sin 60, mu = 1.
    sun = SunConfig(azimuth=0.0, elevation=60.0, irradiance=2.0)
    mu0 = math.sin(math.radians(60.0))
    expect = 2.0 * mu0 * hapke_brdf(mu0, 1.0, math.radians(30.0), DEFAULTS)
    (got,) = shade(flat_dem, np.zeros(3), [0, 0, 1.0], sun)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got > 0


def test_shade_clamps_an_incidence_cosine_that_rounds_above_one(flat_dem):
    # A unit normal dotted with the sun direction can come out at 1 + 2**-52
    # on a facet that faces the sun; it shades as the facet it is, mu0 = 1.
    sun = SunConfig(azimuth=0.0, elevation=90.0)
    points, views = np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]])
    ceiling = sun_ceiling(flat_dem, sun_direction(sun))

    def radiance(mu0):
        return shade_points(flat_dem, points, np.array([mu0]), np.ones(1), views, sun, DEFAULTS, ceiling)

    assert radiance(1.0 + 2.0**-52).tolist() == radiance(1.0).tolist()
    assert radiance(1.0)[0] > 0


def test_shade_nonnegative_random():
    dem = synth_crater_dem(4, 48, 48, 2.0, 3, 3)
    sun = SunConfig(azimuth=150.0, elevation=20.0)
    rng = np.random.default_rng(6)
    xs = rng.uniform(dem.x_min + 3, dem.x_max - 3, 100)
    ys = rng.uniform(dem.y_min + 3, dem.y_max - 3, 100)
    from lunarforge.terrain import sample_height

    zs = sample_height(dem, xs, ys)
    views = np.tile([0.0, 0.0, 1.0], (100, 1))
    vals = shade(dem, np.column_stack([xs, ys, zs]), views, sun)
    assert (vals >= 0).all()


def test_json_round_trip():
    p = HapkeParams(w=0.3, B0=0.7, h_opp=0.06, xi=-0.1)
    assert HapkeParams.from_json_dict(p.to_json_dict()) == p
    s = SunConfig(azimuth=150.0, elevation=20.0, irradiance=3.0)
    assert SunConfig.from_json_dict(s.to_json_dict()) == s
    assert set(s.to_json_dict()) == {"azimuth", "elevation", "irradiance"}
    assert set(p.to_json_dict()) == {"w", "B0", "h_opp", "xi"}
