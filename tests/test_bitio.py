"""MSB-first bit packing round trips."""

import random

import pytest

from compdeliv.bitio import BitReader, BitWriter, TruncatedStreamError


def test_round_trip_mixed_widths():
    w = BitWriter()
    fields = [(1, 1), (5, 3), (0, 4), (1023, 10), (0, 0)]
    for value, width in fields:
        w.write(value, width)
    r = BitReader(w.getvalue())
    for value, width in fields:
        assert r.read(width) == value


def test_msb_first_layout():
    w = BitWriter()
    w.write(1, 1)
    w.write(0b0110, 4)
    assert w.getvalue() == bytes([0b10110000])


def test_bit_length_tracks_written_bits():
    w = BitWriter()
    w.write(3, 2)
    w.write_bits("10101")
    assert w.bit_length() == 7
    assert len(w.getvalue()) == 1  # padded to one byte


def test_value_too_wide_rejected():
    with pytest.raises(ValueError):
        BitWriter().write(4, 2)


def test_nonzero_value_in_zero_width_field_rejected():
    with pytest.raises(ValueError):
        BitWriter().write(1, 0)


def test_reader_exhaustion():
    r = BitReader(bytes([0xFF]))
    r.read(8)
    with pytest.raises(TruncatedStreamError):
        r.read(1)


def test_reader_remaining():
    r = BitReader(bytes([0xAA, 0x55]))
    r.read(3)
    assert r.remaining == 13


def test_wide_fields_at_every_bit_offset():
    # Fields up to 70 bits wide, starting at every offset within a byte,
    # against the same fields formatted as text.
    rng = random.Random(6)
    fields = [(rng.getrandbits(w), w) for w in [rng.randrange(71) for _ in range(400)]]
    w = BitWriter()
    for value, width in fields:
        w.write(value, width)
    text = "".join(format(v, f"0{width}b") if width else "" for v, width in fields)
    assert w.bit_length() == len(text)
    assert w.getvalue() == int(text + "0" * (-len(text) % 8), 2).to_bytes(-(-len(text) // 8), "big")
    r = BitReader(w.getvalue())
    for value, width in fields:
        assert r.read(width) == value
    assert r.remaining == -len(text) % 8


def test_text_adapters_round_trip():
    w = BitWriter()
    w.write_bits("")
    w.write_bits("1011")
    w.write(0b01, 2)
    r = BitReader(w.getvalue())
    assert r.read_bits(0) == ""
    assert r.read_bits(6) == "101101"
    assert r.read_bits(2) == "00"


def test_reader_bounded_by_nbits():
    r = BitReader(bytes([0b10110000]), 3)
    assert r.remaining == 3
    assert r.read(3) == 0b101
    with pytest.raises(TruncatedStreamError):
        r.read(1)
