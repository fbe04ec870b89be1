"""PGM (portable graymap) ingestion and block extraction.

Supports the ASCII (P2) and binary (P5) variants with maxval up to 65535;
binary 16-bit samples are big-endian per the format. Comments (# to end of
line) are skipped wherever whitespace may stand. Header integers and ASCII
samples must be plain ASCII digits; a malformed token raises ParseError
with its byte offset, and a short payload raises InputError.
"""

import re
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import InputError, ParseError


@dataclass(frozen=True)
class ImageGray:
    """Grayscale image with integer samples in [0, maxval]."""

    width: int
    height: int
    maxval: int
    pixels: np.ndarray

    @property
    def bit_depth(self):
        return 8 if self.maxval < 256 else 16


# Separators (whitespace, and # comments to end of line), then one token:
# group 1 when it is plain ASCII digits, else group 2, which is empty at
# the end of the data. Every match succeeds without backtracking over the
# separators, so finditer walks the payload token by token.
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(?:([0-9]+)(?![^\s#])|([^\s#]*))")


def _reject(m, what, truncated):
    """Raise for a token match whose token is not plain ASCII digits."""
    if not m[2]:
        raise InputError(truncated)
    raise ParseError(f"expected {what}, got {m[2]!r}", offset=m.start(2))


def _header_int(data, pos, what, upper):
    m = _TOKEN.match(data, pos)
    if m[1] is None:
        _reject(m, f"integer {what}", "unexpected end of file inside header")
    value = int(m[1])
    if not 1 <= value <= upper:
        raise ParseError(f"{what} {value} out of range 1..{upper}",
                         offset=m.start(1))
    return value, m.end()


def _ascii_samples(data, pos, count):
    """The first count P2 sample values from pos on, converted as the
    regex walks the payload, so no list of tokens is ever built."""
    tokens = _TOKEN.finditer(data, pos)
    try:
        return np.fromiter(map(int, map(itemgetter(1), tokens)),
                           dtype=np.int64, count=count)
    except TypeError:  # int(None): the first token that is not digits
        found, m = next((i, m) for i, m in enumerate(
            _TOKEN.finditer(data, pos)) if m[1] is None)
        _reject(m, "integer sample",
                f"ASCII payload holds {found} samples, need {count}")
    except OverflowError:
        raise ParseError("sample value exceeds 64 bits") from None


def read_pgm(path):
    """Read a P2 or P5 PGM file into an ImageGray."""
    with open(path, "rb") as fh:
        data = fh.read()
    m = _TOKEN.match(data)
    magic = m[m.lastindex]
    if not magic:
        raise InputError("unexpected end of file inside header")
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"unsupported magic {magic!r} (want P2 or P5)",
                         offset=m.start(m.lastindex))
    width, pos = _header_int(data, m.end(), "width", 2 ** 31)
    height, pos = _header_int(data, pos, "height", 2 ** 31)
    maxval, pos = _header_int(data, pos, "maxval", 65535)
    count = width * height

    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        itemsize = 1 if maxval < 256 else 2
        need = count * itemsize
        payload = data[pos:pos + need]
        if len(payload) < need:
            raise InputError(
                f"binary payload holds {len(payload)} bytes, need {need}")
        dtype = np.uint8 if itemsize == 1 else np.dtype(">u2")
        pixels = np.frombuffer(payload, dtype=dtype).astype(np.int64)
    else:
        pixels = _ascii_samples(data, pos, count)
    if pixels.max(initial=0) > maxval:
        raise ParseError(f"sample value {pixels.max()} exceeds maxval {maxval}")
    return ImageGray(width=width, height=height, maxval=maxval,
                     pixels=pixels.reshape(height, width))


def central_block(img, size):
    """Centered size x size crop as float values, ties broken toward the
    top-left."""
    if size > min(img.width, img.height):
        raise InputError(
            f"block size {size} exceeds image extent "
            f"{img.width}x{img.height}")
    r0 = (img.height - size) // 2
    c0 = (img.width - size) // 2
    return img.pixels[r0:r0 + size, c0:c0 + size].astype(float)
