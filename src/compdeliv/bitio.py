"""MSB-first bit packing for the codeword file formats.

Fields are nonnegative integers of a given bit width.  `write_bits` and
`read_bits` are thin adapters for fields held as '0'/'1' text; the codecs
do not use them.
"""

from __future__ import annotations


class TruncatedStreamError(ValueError):
    """Fewer bits available than the format requires."""


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
