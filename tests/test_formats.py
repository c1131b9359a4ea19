import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lunarforge import formats

# tmp_path is shared by a test's examples; each one overwrites the same file.
ROUND_TRIPS = settings(max_examples=60, deadline=None, derandomize=True,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_pgm16_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = [rng.random((20, 30))]
    # A first sample of 0x0A0A or 0x2020 puts newline or space bytes right
    # after the header, where the reader must not take them for header.
    for first in (0x0A0A, 0x2020):
        images += [np.array([[first / 65535]]), rng.random((3, 5))]
        images[-1][0, 0] = first / 65535
    path = tmp_path / "img.pgm"
    for img in images:
        formats.write_pgm16(path, img)
        back = formats.read_pgm16(path)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 0.5 / 65535 + 1e-12  # quantization only
        formats.write_pgm16(tmp_path / "b.pgm", back)
        assert (tmp_path / "b.pgm").read_bytes() == path.read_bytes()
    # The reader takes only write_pgm16's layout: an 8-bit PGM is refused.
    formats.write_pgm8(path, images[0])
    with pytest.raises(ValueError):
        formats.read_pgm16(path)


@ROUND_TRIPS
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=9),
              elements=st.floats(0.0, 1.0)))
def test_pgm16_round_trip_is_within_half_a_level(tmp_path, img):
    path = tmp_path / "img.pgm"
    formats.write_pgm16(path, img)
    back = formats.read_pgm16(path)
    assert back.shape == img.shape
    # Half a level, plus the rounding of img * 65535 and of the division back
    # (each at most half an ulp of 1 in the result).
    assert np.max(np.abs(back - img)) <= 0.5 / 65535 + np.finfo(np.float64).eps


def test_pgm16_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        formats.write_pgm16(tmp_path / "x.pgm", np.full((4, 4), 1.5))
    # A non-finite pixel is out of range too, NaN included.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            formats.write_pgm16(tmp_path / "x.pgm", np.array([[0.5, bad], [1.0, 0.0]]))
    assert not (tmp_path / "x.pgm").exists()


def test_pgm16_header_is_big_endian_p5(tmp_path):
    img = np.zeros((2, 3))
    img[0, 0] = 1.0
    path = tmp_path / "h.pgm"
    formats.write_pgm16(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n65535\n")
    assert data[13:15] == b"\xff\xff"  # 65535 big-endian first sample


def test_f32_raster_round_trip_with_nan(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.normal(0, 10, (7, 5, 3))
    arr[2, 3] = np.nan
    path = tmp_path / "r.f32"
    formats.write_f32_raster(path, arr, {"frame": "world"})
    back, meta = formats.read_f32_raster(path)
    assert back.shape == arr.shape
    assert meta["frame"] == "world"
    assert np.array_equal(np.isnan(back), np.isnan(arr))
    assert np.allclose(back[~np.isnan(arr)], arr[~np.isnan(arr)], atol=1e-5)


@ROUND_TRIPS
@given(st.sampled_from([(), (3,)]).flatmap(lambda tail: arrays(
    np.float64, array_shapes(min_dims=2, max_dims=2, max_side=9).map(lambda hw: hw + tail),
    # float32 values, NaN and inf among them, and values the cast rounds.
    elements=st.one_of(st.floats(width=32), st.floats(-1e6, 1e6)))))
def test_f32_raster_round_trip_is_the_float32_cast(tmp_path, arr):
    path = tmp_path / "r.f32"
    formats.write_f32_raster(path, arr, {"kind": "pointmap" if arr.ndim == 3 else "ray_depth"})
    back, meta = formats.read_f32_raster(path)
    assert back.dtype == np.float32 and back.shape == arr.shape
    assert back.tobytes() == arr.astype(np.float32).tobytes()
    assert meta == {"kind": "pointmap" if arr.ndim == 3 else "ray_depth", "shape": list(arr.shape)}


def test_correspondences_csv_round_trip(tmp_path):
    pairs = np.array([[1.0, 2.0, 3.25, 4.5], [0.0, 0.0, 31.0, 31.0]])
    path = tmp_path / "c.csv"
    formats.write_correspondences_csv(path, pairs)
    back = formats.read_correspondences_csv(path)
    assert np.allclose(back, pairs, atol=1e-6)
    formats.write_correspondences_csv(tmp_path / "e.csv", np.zeros((0, 4)))
    empty = formats.read_correspondences_csv(tmp_path / "e.csv")
    assert empty.shape == (0, 4)


def test_correspondences_csv_bytes_match_per_row_numpy_formatting(tmp_path):
    """The file is byte for byte what formatting each row's np.float64
    values with a ".6f" f-string gives."""
    edges = [-0.0, -1e-9, 0.0, 0.0000005, 0.0000015, 2.5e-7, 1.0000005, 0.1234565,
             127.0, 127.4999995, 191.0, 511.0, 511.9999995, 1e6, 1e6 + 0.5e-6]
    rng = np.random.default_rng(3)
    pairs = np.concatenate([np.resize(edges, (len(edges), 4)),
                            np.array(edges).reshape(-1, 1).repeat(4, axis=1),
                            rng.uniform(0, 512, (200, 4))])
    expected = "u1,v1,u2,v2\n" + "".join(f"{a:.6f},{b:.6f},{c:.6f},{d:.6f}\n" for a, b, c, d in pairs)
    path = tmp_path / "c.csv"
    formats.write_correspondences_csv(path, pairs)
    assert path.read_bytes() == expected.encode()


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        formats.write_json(tmp_path / "x.json", {"v": float("nan")})
