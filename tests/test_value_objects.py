"""Alphabets, sequences, codewords and configurations as values.

Alphabets and FF configurations are interned (one live object per value),
so equal ones are the same object, through pickling and copying as well;
sequences and codewords are slotted records compared by value.
"""

import copy
import dataclasses
import pickle

import pytest

from compdeliv import ff_codec, types_core
from compdeliv.ff_codec import FFCodeConfig, FFCodeword, ff_decode_x, ff_decode_y, ff_encode, make_code
from compdeliv.fv_codec import FVCodeword, fv_decode_x, fv_decode_y, fv_encode
from compdeliv.types_core import BINARY, Alphabet, Sequence, rank_in_type_class

ROUND_TRIPS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS)
def test_interned_values_round_trip_to_the_live_object(round_trip):
    again = ROUND_TRIPS[round_trip]
    assert again(Alphabet(3)) is Alphabet(3) is types_core._ALPHABETS[3]
    assert again(BINARY) is BINARY
    cfg = FFCodeConfig(6, 0.9, Alphabet(3), BINARY)
    assert again(cfg) is cfg
    code = make_code(cfg)
    assert again(cfg) is cfg and make_code(again(cfg)) is code


@pytest.mark.parametrize("round_trip", ROUND_TRIPS)
def test_records_round_trip_to_equal_values(round_trip):
    again = ROUND_TRIPS[round_trip]
    x = Sequence((0, 2, 1, 0), Alphabet(3))
    for record in (x, FFCodeword(3, 1, False), FFCodeword(0, 0, True), FVCodeword(5, 4), FVCodeword(0, 0)):
        back = again(record)
        assert back == record and hash(back) == hash(record) and type(back) is type(record)
    assert again(x).alphabet is Alphabet(3)


def test_equal_values_are_one_object():
    assert Alphabet(4) is Alphabet(4) and Alphabet(4) is not Alphabet(5)
    cfg = FFCodeConfig(8, 0.8)
    assert FFCodeConfig(n=8, rate=0.8, ax=Alphabet(2), ay=Alphabet(2)) is cfg
    assert FFCodeConfig(8, 0.9) is not cfg and FFCodeConfig(8, 0.8) == cfg != FFCodeConfig(8, 0.9)
    assert repr(cfg) == "FFCodeConfig(n=8, rate=0.8, ax=Alphabet(size=2), ay=Alphabet(size=2))"


@pytest.mark.parametrize("size", [0, -1])
def test_an_empty_alphabet_is_refused_and_not_interned(size):
    with pytest.raises(ValueError, match="alphabet size must be >= 1"):
        Alphabet(size)
    assert size not in types_core._ALPHABETS


@pytest.mark.parametrize("n, rate", [(0, 0.8), (8, 0.0), (8, float("nan"))])
def test_a_bad_config_is_refused_and_not_interned(n, rate):
    live = dict(ff_codec._LIVE_CONFIGS)
    with pytest.raises(ValueError):
        FFCodeConfig(n, rate)
    assert dict(ff_codec._LIVE_CONFIGS) == live


def test_records_are_frozen_and_hold_no_instance_dict():
    for record in (Sequence((0, 1), BINARY), FFCodeword(0, 1, False), FVCodeword(1, 1)):
        assert not hasattr(record, "__dict__")
        field = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))


def test_letters_given_as_a_list_are_kept_as_a_tuple():
    as_list, as_tuple = Sequence([0, 1, 1, 0], BINARY), Sequence((0, 1, 1, 0), BINARY)
    other = Sequence([1, 0, 0, 1], BINARY)
    assert type(as_list.letters) is tuple
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple) and {as_list: 1}[as_tuple] == 1
    assert rank_in_type_class(as_list) == rank_in_type_class(as_tuple)
    cfg = FFCodeConfig(4, 2.0)
    ff_cw, fv_cw = ff_encode(cfg, as_list, other), fv_encode(4, as_list, other)
    assert ff_cw == ff_encode(cfg, as_tuple, Sequence((1, 0, 0, 1), BINARY)) and not ff_cw.error_flag
    assert fv_cw == fv_encode(4, as_tuple, Sequence((1, 0, 0, 1), BINARY))
    assert ff_decode_x(cfg, ff_cw, other) == as_list and ff_decode_y(cfg, ff_cw, as_list) == other
    assert fv_decode_x(fv_cw, other) == as_tuple and fv_decode_y(fv_cw, as_list) == other
    with pytest.raises(ValueError, match="letter 2 outside alphabet of size 2"):
        Sequence([0, 2], BINARY)
