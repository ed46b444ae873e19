"""Tensor types, padding, resampling, mask reduction, and file formats."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from outpainter.video import (FormatError, MaskVideo, PadSpec, ShapeError,
                              VideoTensor, _resize_matrix, downsample_mask, pad_video,
                              read_mask, read_ppm, read_raw, resize_bicubic, write_ppm,
                              write_raw)


def _video(shape, seed=0, scale=0.8):
    rng = np.random.default_rng(seed)
    return VideoTensor(rng.uniform(-scale, scale, shape).astype(np.float32))


class TestTypes:
    def test_video_shape_properties(self):
        v = _video((2, 4, 6, 3))
        assert (v.frames, v.height, v.width, v.channels) == (2, 4, 6, 3)

    def test_video_rejects_nan(self):
        bad = np.zeros((1, 2, 2, 3), np.float32)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ShapeError):
            VideoTensor(bad)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.bool_])
    def test_non_float_data_becomes_float32(self, dtype):
        data = np.arange(12).reshape(1, 2, 2, 3).astype(dtype) % 2
        v = VideoTensor(data)
        assert v.data.dtype == np.float32
        np.testing.assert_array_equal(v.data, data.astype(np.float32))

    def test_video_rejects_bad_channels(self):
        with pytest.raises(ShapeError):
            VideoTensor(np.zeros((1, 2, 2, 2), np.float32))

    def test_mask_rejects_fractional_values(self):
        with pytest.raises(ShapeError):
            MaskVideo(np.full((1, 2, 2, 1), 0.5, np.float32))

    def test_mask_matches(self):
        m = MaskVideo(np.zeros((2, 4, 6, 1), np.float32))
        assert m.matches(_video((2, 4, 6, 3)))
        assert not m.matches(_video((2, 4, 7, 3)))


class TestPad:
    def test_centered_512_into_1280x720(self):
        spec = PadSpec(720, 1280, 104, 384)
        v = _video((1, 512, 512, 3))
        padded, mask = pad_video(v, spec)
        assert padded.shape == (1, 720, 1280, 3)
        assert int((mask.data[0] == 0).sum()) == 512 * 512

    def test_identity_pad(self):
        v = _video((2, 4, 4, 3))
        padded, mask = pad_video(v, PadSpec(4, 4, 0, 0))
        np.testing.assert_array_equal(padded.data, v.data)
        assert not mask.data.any()

    def test_offset_rows(self):
        v = VideoTensor(np.full((1, 2, 2, 3), 0.25, np.float32))
        padded, mask = pad_video(v, PadSpec(4, 2, 1, 0))
        np.testing.assert_array_equal(padded.data[0, 1:3], v.data[0])
        assert (padded.data[0, 0] == 0).all() and (padded.data[0, 3] == 0).all()
        assert (mask.data[0, 0] == 1).all() and (mask.data[0, 3] == 1).all()
        assert (mask.data[0, 1:3] == 0).all()

    def test_overflow_rejected(self):
        with pytest.raises(ShapeError):
            pad_video(_video((1, 4, 4, 3)), PadSpec(4, 4, 1, 0))


def _cubic(x):
    # independently written Catmull-Rom kernel (a = -0.5)
    x = abs(x)
    if x <= 1.0:
        return 1.5 * x ** 3 - 2.5 * x ** 2 + 1.0
    if x < 2.0:
        return -0.5 * x ** 3 + 2.5 * x ** 2 - 4.0 * x + 2.0
    return 0.0


def _bicubic_oracle(frame, h_out, w_out):
    h_in, w_in = frame.shape[:2]
    out = np.zeros((h_out, w_out, frame.shape[2]))
    for i in range(h_out):
        cy = (i + 0.5) * h_in / h_out - 0.5
        by = int(np.floor(cy))
        for j in range(w_out):
            cx = (j + 0.5) * w_in / w_out - 0.5
            bx = int(np.floor(cx))
            acc = np.zeros(frame.shape[2])
            for dy in range(-1, 3):
                wy = _cubic(by + dy - cy)
                yy = min(max(by + dy, 0), h_in - 1)
                for dx in range(-1, 3):
                    wx = _cubic(bx + dx - cx)
                    xx = min(max(bx + dx, 0), w_in - 1)
                    acc += wy * wx * frame[yy, xx]
            out[i, j] = acc
    return np.clip(out, -1.0, 1.0)


class TestResize:
    def test_constant_preserved(self):
        v = VideoTensor(np.full((2, 5, 7, 3), -0.3, np.float32))
        out = resize_bicubic(v, 11, 3)
        np.testing.assert_allclose(out.data, -0.3, atol=1e-6)

    def test_identity_size(self):
        v = _video((2, 6, 6, 3))
        out = resize_bicubic(v, 6, 6)
        np.testing.assert_allclose(out.data, v.data, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_size_is_the_clamped_input(self, dtype):
        data = np.random.default_rng(4).uniform(-1.5, 1.5, (2, 5, 7, 3)).astype(dtype)
        out = resize_bicubic(VideoTensor(data.copy()), 5, 7)
        assert out.data.tobytes() == np.clip(data, -1.0, 1.0).astype(np.float32).tobytes()
        # the bytes the resampling matrices give, -0.0 summed to 0.0 included
        data[0, 0, :3, 0] = -0.0
        data[0, 0, 3:, 0] = -0.5
        tmp = np.einsum("ih,fhwc->fiwc", _resize_matrix(5, 5), data.astype(np.float64))
        want = np.einsum("jw,fiwc->fijc", _resize_matrix(7, 7), tmp)
        want = np.clip(want, -1.0, 1.0).astype(np.float32)
        assert resize_bicubic(VideoTensor(data.copy()), 5, 7).data.tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float32, np.float64]),
           sizes=st.tuples(*[st.integers(1, 12)] * 4).filter(lambda s: s[:2] != s[2:]))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_dense_matrix_products(self, seed, dtype, sizes):
        """Each output row sums only its band of input rows, yet the bytes
        are those of the two `_resize_matrix` products that `einsum` sums
        over every input row, +-0.0 inputs and 1-pixel sides included."""
        h_in, w_in, h, w = sizes
        g = np.random.default_rng(seed)
        data = g.uniform(-1.5, 1.5, (2, h_in, w_in, 3)).astype(dtype)
        data[g.random(data.shape) < 0.2] = -0.0
        data[g.random(data.shape) < 0.1] = 0.0
        tmp = np.einsum("ih,fhwc->fiwc", _resize_matrix(h_in, h), data.astype(np.float64))
        want = np.einsum("jw,fiwc->fijc", _resize_matrix(w_in, w), tmp)
        want = np.clip(want, -1.0, 1.0).astype(np.float32)
        assert resize_bicubic(VideoTensor(data), h, w).data.tobytes() == want.tobytes()

    def test_ramp_upscale_matches_oracle(self):
        ramp = np.linspace(-0.9, 0.9, 16).reshape(4, 4)
        frame = np.stack([ramp, ramp * 0.5, -ramp], axis=2).astype(np.float32)
        v = VideoTensor(frame[None])
        out = resize_bicubic(v, 8, 8)
        np.testing.assert_allclose(out.data[0], _bicubic_oracle(frame, 8, 8), atol=1e-6)

    def test_random_resize_matches_oracle(self):
        v = _video((1, 6, 5, 3), seed=9)
        out = resize_bicubic(v, 4, 9)
        np.testing.assert_allclose(out.data[0], _bicubic_oracle(v.data[0], 4, 9),
                                   atol=1e-6)


class TestMaskDownsample:
    def test_all_ones(self):
        m = MaskVideo(np.ones((2, 8, 8, 1), np.float32))
        assert (downsample_mask(m, 3, 5).data == 1).all()

    def test_all_zeros(self):
        m = MaskVideo(np.zeros((2, 8, 8, 1), np.float32))
        assert (downsample_mask(m, 3, 5).data == 0).all()

    def test_single_zero_pixel(self):
        data = np.ones((1, 4, 4, 1), np.float32)
        data[0, 1, 0, 0] = 0.0
        out = downsample_mask(MaskVideo(data), 2, 2)
        assert out.data[0, 0, 0, 0] == 0.0
        assert out.data[0, 0, 1, 0] == 1.0
        assert out.data[0, 1, 0, 0] == 1.0
        assert out.data[0, 1, 1, 0] == 1.0

    def test_same_size_is_the_input(self):
        m = MaskVideo((np.random.default_rng(2).uniform(size=(2, 3, 5, 1)) < 0.5)
                      .astype(np.float32))
        assert downsample_mask(m, 3, 5) is m

    def test_cannot_enlarge(self):
        with pytest.raises(ShapeError):
            downsample_mask(MaskVideo(np.zeros((1, 4, 4, 1), np.float32)), 8, 4)


class TestRawFormat:
    def test_round_trip(self, tmp_path):
        v = _video((3, 5, 4, 3), seed=3)
        path = tmp_path / "clip.hlvd"
        write_raw(path, v)
        np.testing.assert_array_equal(read_raw(path).data, v.data)

    def test_mask_round_trip(self, tmp_path):
        m = MaskVideo((np.arange(16).reshape(1, 4, 4, 1) % 2).astype(np.float32))
        path = tmp_path / "mask.hlvd"
        write_raw(path, m)
        np.testing.assert_array_equal(read_mask(path).data, m.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hlvd"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            read_raw(path)

    def test_truncated_payload(self, tmp_path):
        v = _video((2, 4, 4, 3))
        path = tmp_path / "trunc.hlvd"
        write_raw(path, v)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_raw(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.hlvd"
        write_raw(path, _video((2, 4, 4, 3)))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="payload"):
            read_raw(path)


class TestPpm:
    def test_byte_mapping(self, tmp_path):
        frame = np.zeros((1, 1, 3, 3), np.float32)
        frame[0, 0, 0] = -1.0
        frame[0, 0, 1] = 1.0
        frame[0, 0, 2] = 0.0
        path = tmp_path / "f.ppm"
        write_ppm(path, VideoTensor(frame), 0)
        payload = path.read_bytes().split(b"\n", 3)[3]
        assert list(payload[:3]) == [0, 0, 0]
        assert list(payload[3:6]) == [255, 255, 255]
        assert list(payload[6:9]) == [128, 128, 128]

    def test_round_trip_quantization(self, tmp_path):
        v = _video((1, 6, 7, 3), seed=5, scale=1.0)
        path = tmp_path / "q.ppm"
        write_ppm(path, v, 0)
        back = read_ppm(path)
        assert np.abs(back.data - v.data).max() <= 1.0 / 127.5

    def test_rejects_non_p6(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(FormatError):
            read_ppm(path)

    @pytest.mark.parametrize("header", [b"P6\n1 x\n255\n", b"P6\n1\n255\n",
                                        b"P6\n1 1 1\n255\n", b"P6\n1 1\nff\n"])
    def test_rejects_bad_header(self, tmp_path, header):
        path = tmp_path / "x.ppm"
        path.write_bytes(header + bytes(3))
        with pytest.raises(FormatError, match="bad PPM header"):
            read_ppm(path)

    def test_one_channel_exports_gray(self, tmp_path):
        v = _video((1, 4, 5, 1), seed=6, scale=1.0)
        path = tmp_path / "g.ppm"
        write_ppm(path, v, 0)
        back = read_ppm(path).data
        assert back.shape == (1, 4, 5, 3)
        assert (back == back[..., :1]).all()
        assert np.abs(back[..., :1] - v.data).max() <= 1.0 / 127.5
