"""MSB-first bit packing round trips."""

import random

import numpy as np
import pytest

from compdeliv.bitio import (
    FIELD_BITS,
    BitReader,
    BitWriter,
    TruncatedStreamError,
    fields_at_every_offset,
    pack_fields,
    read_fields,
)


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


def random_fields(seed, count, max_width):
    """(values, widths): seeded fields of 0 to max_width bits whose values fit 63 bits."""
    rng = random.Random(seed)
    widths = [rng.randrange(max_width + 1) for _ in range(count)]
    return [rng.getrandbits(min(w, FIELD_BITS)) for w in widths], widths


def test_pack_fields_writes_what_bit_writer_writes():
    values, widths = random_fields(7, 500, 80)
    w = BitWriter()
    for value, width in zip(values, widths):
        w.write(value, width)
    assert pack_fields(values, widths) == w.getvalue()
    assert pack_fields([], []) == b""


def test_read_fields_round_trip():
    values, widths = random_fields(8, 500, 80)
    starts = np.cumsum([0] + widths[:-1])
    assert read_fields(pack_fields(values, widths), starts, widths).tolist() == values


def test_pack_fields_rejects_values_outside_their_widths():
    for values, widths in (([4], [2]), ([1], [0]), ([-1], [3]), ([1], [-1])):
        with pytest.raises(ValueError):
            pack_fields(values, widths)


def test_wide_field_with_high_bits_reads_as_minus_one():
    w = BitWriter()
    w.write(1 << 69 | 5, 70)  # a bit above the low 63
    w.write(5, 70)
    data = w.getvalue()
    assert read_fields(data, [0, 70, 7], [70, 70, 63]).tolist() == [-1, 5, 5]


def test_read_fields_past_the_data_names_the_field():
    with pytest.raises(TruncatedStreamError) as err:
        read_fields(bytes(2), [0, 8, 9], [8, 8, 8])
    assert err.value.row == 2


@pytest.mark.parametrize("width", [0, 1, 7, 8, 13, 32])
def test_fields_at_every_offset(width):
    data = bytes(random.Random(width).getrandbits(8) for _ in range(9))
    fields = fields_at_every_offset(data, width)
    assert len(fields) == 8 * len(data) - width + 1
    for start, field in enumerate(fields.tolist()):
        reader = BitReader(data)
        reader.read(start)
        assert field == reader.read(width)
    with pytest.raises(ValueError):
        fields_at_every_offset(data, 33)
