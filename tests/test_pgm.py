import numpy as np
import pytest

from respectra import (ImageGray, InputError, ParseError, central_block,
                       read_pgm, standardize)


def write(tmp_path, payload, name="img.pgm"):
    p = tmp_path / name
    p.write_bytes(payload if isinstance(payload, bytes)
                  else payload.encode("ascii"))
    return p


class TestReadPgm:
    def test_ascii_literal(self, tmp_path):
        img = read_pgm(write(tmp_path, "P2 2 2 255 0 128 255 64"))
        assert img.width == img.height == 2
        assert np.array_equal(img.pixels, [[0, 128], [255, 64]])
        assert img.bit_depth == 8

    def test_comments_skipped(self, tmp_path):
        img = read_pgm(write(
            tmp_path, "P2 # magic\n# a comment line\n2 1\n# more\n10\n3 7\n"))
        assert np.array_equal(img.pixels, [[3, 7]])

    def test_binary_8bit(self, tmp_path):
        img = read_pgm(write(tmp_path,
                             b"P5 3 2 255\n" + bytes([1, 2, 3, 4, 5, 6])))
        assert np.array_equal(img.pixels, [[1, 2, 3], [4, 5, 6]])

    def test_binary_16bit_big_endian(self, tmp_path):
        samples = np.array([[256, 513]], dtype=">u2")
        img = read_pgm(write(tmp_path, b"P5 2 1 65535\n" + samples.tobytes()))
        assert np.array_equal(img.pixels, [[256, 513]])
        assert img.bit_depth == 16

    def test_rejects_color_ppm(self, tmp_path):
        with pytest.raises(ParseError):
            read_pgm(write(tmp_path, "P6 1 1 255 0"))

    def test_parse_error_carries_offset(self, tmp_path):
        with pytest.raises(ParseError) as err:
            read_pgm(write(tmp_path, "P2 two 2 255 0 0 0 0"))
        assert err.value.offset == 3

    def test_truncated_binary(self, tmp_path):
        with pytest.raises(InputError, match="holds 7 bytes, need 16"):
            read_pgm(write(tmp_path, b"P5 4 4 255\n" + bytes(7)))

    def test_truncated_ascii(self, tmp_path):
        with pytest.raises(InputError, match="holds 3 samples, need 4"):
            read_pgm(write(tmp_path, "P2 2 2 255 0 1 2"))

    def test_trailing_comment_is_not_a_sample(self, tmp_path):
        with pytest.raises(InputError, match="holds 3 samples, need 4"):
            read_pgm(write(tmp_path, "P2 2 2 255 0 1 2 # 7\n"))

    def test_comment_between_samples(self, tmp_path):
        img = read_pgm(write(tmp_path, "P2 3 1 10\n1 # one\n2\n#x y\n 3"))
        assert np.array_equal(img.pixels, [[1, 2, 3]])

    def test_sample_glued_to_comment(self, tmp_path):
        img = read_pgm(write(tmp_path, "P2 2 1 10\n5#c\n6"))
        assert np.array_equal(img.pixels, [[5, 6]])

    @pytest.mark.parametrize("sep", ["\r", "\r\n", "\t"])
    def test_cr_crlf_and_tab_separators(self, tmp_path, sep):
        text = sep.join(["P2", "2", "2", "255", "0", "128", "255", "64"])
        img = read_pgm(write(tmp_path, text + sep))
        assert np.array_equal(img.pixels, [[0, 128], [255, 64]])

    def test_bad_sample_carries_offset(self, tmp_path):
        with pytest.raises(ParseError, match="got b'7x'") as err:
            read_pgm(write(tmp_path, "P2 3 1 10 1 # c\n7x 2"))
        assert err.value.offset == 16

    def test_signed_sample_rejected(self, tmp_path):
        with pytest.raises(ParseError) as err:
            read_pgm(write(tmp_path, "P2 1 1 10 -5"))
        assert err.value.offset == 10

    @pytest.mark.parametrize("text,offset", [("P2 2 1 10 +5 1_0", 10),
                                             ("P2 2 1 10 5 1_0", 12)])
    def test_plus_and_underscore_samples_rejected(self, tmp_path, text,
                                                  offset):
        with pytest.raises(ParseError) as err:
            read_pgm(write(tmp_path, text))
        assert err.value.offset == offset

    def test_signed_header_integer_rejected(self, tmp_path):
        with pytest.raises(ParseError) as err:
            read_pgm(write(tmp_path, "P2 +2 1 10 5 6"))
        assert err.value.offset == 3

    def test_sample_above_maxval(self, tmp_path):
        with pytest.raises(ParseError):
            read_pgm(write(tmp_path, "P2 1 1 10 200"))

    def test_maxval_out_of_range(self, tmp_path):
        with pytest.raises(ParseError):
            read_pgm(write(tmp_path, "P2 1 1 70000 1"))


class TestCentralBlock:
    def make(self, h, w):
        return ImageGray(width=w, height=h, maxval=255,
                         pixels=np.arange(h * w).reshape(h, w))

    def test_tie_toward_top_left(self):
        img = self.make(4, 4)
        block = central_block(img, 2)
        assert np.array_equal(block, img.pixels[1:3, 1:3].astype(float))

    def test_full_size_is_identity(self):
        img = self.make(3, 3)
        assert np.array_equal(central_block(img, 3),
                              img.pixels.astype(float))

    def test_too_large(self):
        with pytest.raises(InputError, match="block size 5 exceeds"):
            central_block(self.make(4, 4), 5)

    def test_standardization(self):
        block = standardize(central_block(self.make(6, 6), 4))
        assert block.mean() == pytest.approx(0.0, abs=1e-12)
        assert block.std() == pytest.approx(1.0)

    def test_constant_raises(self):
        img = ImageGray(width=4, height=4, maxval=255,
                        pixels=np.full((4, 4), 9))
        with pytest.raises(InputError, match="constant"):
            standardize(central_block(img, 2))
