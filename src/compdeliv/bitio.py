"""MSB-first bit packing for the codeword file formats.

Fields are nonnegative integers of a given bit width.  `pack_fields` and
`read_fields` pack and read whole arrays of fields, and
`fields_at_every_offset` reads a narrow field at every bit offset (a
table to frame variable-length words with); `BitWriter` and `BitReader`
go one field at a time.  `write_bits` and `read_bits` are
thin adapters for fields held as '0'/'1' text; the codecs do not use them.
"""

from __future__ import annotations

import numpy as np

from .types_core import RowError

# Array fields hold int64 values: at most this many bits, at any width.
FIELD_BITS = 63


class TruncatedStreamError(RowError):
    """Fewer bits available than the format requires."""


def pack_fields(values: np.ndarray, widths: np.ndarray) -> bytes:
    """Fields `values[i]` of `widths[i]` bits, MSB first and back to back,
    zero-padded to a whole byte.

    Values are nonnegative int64 and must fit their widths; a width may
    exceed FIELD_BITS, the bits above the value then being zeros.
    """
    values = np.asarray(values, np.int64).ravel()
    widths = np.asarray(widths, np.int64).ravel()
    if (values < 0).any() or (widths < 0).any():
        raise ValueError("values and widths must be nonnegative")
    if (values >> np.minimum(widths, FIELD_BITS)).any():
        raise ValueError("a value does not fit in its field width")
    ends = np.cumsum(widths)
    total = int(ends[-1]) if len(ends) else 0
    bits = np.zeros(-(-total // 8) * 8, np.uint8)
    for b in range(int(values.max(initial=0)).bit_length()):
        hit = np.flatnonzero((values >> b) & 1)  # bit b of a value lies inside its own field
        bits[ends[hit] - 1 - b] = 1
    return np.packbits(bits).tobytes()


def fields_at_every_offset(data: bytes, width: int) -> np.ndarray:
    """The `width`-bit field (at most 32 bits) at every bit offset of `data`
    where one fits, as uint32: entry p is the field that starts at bit p."""
    if not 0 <= width <= 32:
        raise ValueError(f"width {width} outside 0..32")
    bits = np.unpackbits(np.frombuffer(data, np.uint8))
    count = max(len(bits) - width + 1, 0)
    fields = np.zeros(count, np.uint32)
    for b in range(width):
        fields <<= 1
        fields |= bits[b:b + count]
    return fields


def read_fields(data: bytes, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The fields of `widths[i]` bits at bit offsets `starts[i]` of `data`,
    MSB first, as int64.

    A field whose value needs more than FIELD_BITS bits reads as -1, which
    no field holds, so a range check rejects it; it is never cut down to
    its low bits.  Raises TruncatedStreamError, at the first such field, for
    a field that ends past the data.
    """
    starts = np.asarray(starts, np.int64).ravel()
    widths = np.asarray(widths, np.int64).ravel()
    ends = starts + widths
    past = ends > 8 * len(data)
    if past.any():
        raise TruncatedStreamError("bit stream exhausted", int(np.argmax(past)))
    bits = np.unpackbits(np.frombuffer(data, np.uint8))
    values = np.zeros(len(starts), np.int64)
    low = np.minimum(widths, FIELD_BITS)
    for b in range(int(low.max(initial=0))):
        at = np.flatnonzero(low > b)
        values[at] |= bits[ends[at] - 1 - b].astype(np.int64) << b
    wide = np.flatnonzero(widths > FIELD_BITS)
    for b in range(int(widths.max(initial=0)) - FIELD_BITS):  # the bits above the low 63
        at = wide[widths[wide] - FIELD_BITS > b]
        values[at[bits[starts[at] + b] == 1]] = -1
    return values


class BitWriter:
    def __init__(self):
        self._bytes = bytearray()
        self._tail = 0  # the last bits written, fewer than 8, not yet a whole byte
        self._tail_bits = 0

    def write(self, value: int, width: int) -> None:
        if value < 0 or width < 0:
            raise ValueError("value and width must be nonnegative")
        if value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc, bits = (self._tail << width) | value, self._tail_bits + width
        whole, bits = divmod(bits, 8)
        if whole:
            self._bytes += (acc >> bits).to_bytes(whole, "big")
            acc &= (1 << bits) - 1
        self._tail, self._tail_bits = acc, bits

    def write_bits(self, bits: str) -> None:
        self.write(int(bits, 2) if bits else 0, len(bits))

    def getvalue(self) -> bytes:
        """Packed bytes, zero-padded to a byte boundary."""
        if not self._tail_bits:
            return bytes(self._bytes)
        return bytes(self._bytes) + bytes([self._tail << (8 - self._tail_bits)])

    def bit_length(self) -> int:
        return 8 * len(self._bytes) + self._tail_bits


class BitReader:
    """Reads fields from `data`, or from its first `nbits` bits when given."""

    def __init__(self, data: bytes, nbits: int | None = None):
        self._data = bytes(data)
        self._end = 8 * len(self._data) if nbits is None else min(nbits, 8 * len(self._data))
        self._pos = 0

    def read(self, width: int) -> int:
        """The next `width` bits, from the bytes they span only."""
        start, end = self._pos, self._pos + width
        if end > self._end:
            raise TruncatedStreamError("bit stream exhausted")
        last = (end + 7) >> 3
        self._pos = end
        return (int.from_bytes(self._data[start >> 3:last], "big") >> ((last << 3) - end)) & ((1 << width) - 1)

    def read_bits(self, width: int) -> str:
        return format(self.read(width), f"0{width}b") if width else ""

    @property
    def remaining(self) -> int:
        return self._end - self._pos
