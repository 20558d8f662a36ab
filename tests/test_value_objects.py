"""Alphabets, types, sources, sequences, codewords and configurations as values.

Alphabets, type vectors, joint types, FF configurations and sources are
interned (one live object per value), so equal ones are the same object,
through pickling and copying as well, and compare and hash by identity;
sequences and codewords are slotted records compared by value.
"""

import copy
import dataclasses
import gc
import importlib
import pickle
import pkgutil
import typing

import numpy as np
import pytest

import compdeliv
from compdeliv import types_core
from compdeliv.ff_codec import FFCodeConfig, FFCodeword, ff_decode_x, ff_decode_y, ff_encode, make_code
from compdeliv.fv_codec import FVCodeword, fv_decode_x, fv_decode_y, fv_encode
from compdeliv.info_measures import SourceSpec, dsbs
from compdeliv.types_core import (
    BINARY,
    Alphabet,
    JointType,
    Sequence,
    TypeVector,
    enumerate_joint_types,
    joint_type_of,
    rank_in_type_class,
    type_of,
)

from conftest import joint_type_groups

ROUND_TRIPS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS)
def test_interned_values_round_trip_to_the_live_object(round_trip):
    again = ROUND_TRIPS[round_trip]
    assert again(Alphabet(3)) is Alphabet(3) is types_core._LIVE[Alphabet, (3,)]
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
    assert (Alphabet, (size,)) not in types_core._LIVE


@pytest.mark.parametrize("n, rate", [(0, 0.8), (8, 0.0), (8, float("nan"))])
def test_a_bad_config_is_refused_and_not_interned(n, rate):
    live = dict(types_core._LIVE)
    with pytest.raises(ValueError):
        FFCodeConfig(n, rate)
    assert dict(types_core._LIVE) == live


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


def test_every_construction_path_returns_the_live_object():
    # A joint type built directly, before any cache has seen it, is the one
    # the counting, enumerating and grouping paths return, and so on.
    jt = JointType(((3, 1), (2, 5)), 11)
    x, y = Sequence((0,) * 4 + (1,) * 7, BINARY), Sequence((0, 0, 0, 1, 0, 0) + (1,) * 5, BINARY)
    assert joint_type_of(x, y) is jt and JointType(counts=jt.counts, n=11) is jt
    assert jt in enumerate_joint_types(11, BINARY, BINARY)
    assert all(JointType(t.counts, t.n) is t for t in enumerate_joint_types(6, BINARY, BINARY))
    letters = np.random.default_rng(6).integers(0, 2, (2, 40, 6))
    for t, _ in joint_type_groups(letters[0], letters[1], 2, 2):
        assert JointType(t.counts, 6) is t
    assert TypeVector((4, 7), 11) is type_of(x) is jt.x_marginal()
    assert dsbs(0.11) is dsbs(0.11) and SourceSpec(p_xy=dsbs(0.11).p_xy) is dsbs(0.11)
    assert FFCodeConfig(n=8, rate=0.8, ax=BINARY, ay=BINARY) is FFCodeConfig(8, 0.8)


VALUES = {
    "Alphabet": lambda: Alphabet(3),
    "TypeVector": lambda: TypeVector((2, 1, 3), 6),
    "JointType": lambda: JointType(((2, 0), (1, 3)), 6),
    "FFCodeConfig": lambda: FFCodeConfig(6, 0.9, Alphabet(3), BINARY),
    "SourceSpec": lambda: dsbs(0.11),
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS)
@pytest.mark.parametrize("kind", VALUES)
def test_each_value_class_round_trips_to_the_live_object(kind, round_trip):
    value = VALUES[kind]()
    assert ROUND_TRIPS[round_trip](value) is value is VALUES[kind]()


REFUSED = {
    "negative count": (lambda: TypeVector((3, -1), 2), "negative count"),
    "negative joint count": (lambda: JointType(((3, -1), (0, 0)), 2), "negative count"),
    "counts off their sum": (lambda: TypeVector((1, 1), 3), "counts must sum to n"),
    "joint counts off their sum": (lambda: JointType(((1, 1), (0, 0)), 3), "joint counts must sum to n"),
    "ragged counts": (lambda: JointType(((1, 0), (1,)), 2), "nonempty rectangular matrix"),
    "n < 1": (lambda: TypeVector((0, 0), 0), "a type needs n >= 1"),
    "alphabet size 0": (lambda: Alphabet(0), "alphabet size must be >= 1"),
    "bad rate": (lambda: FFCodeConfig(8, -1.0), "rate is -1.0"),
    "NaN probability": (lambda: SourceSpec(((float("nan"), 0.5), (0.25, 0.25))), "probabilities must be finite"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_a_refused_value_leaves_the_registry_unchanged(case):
    make, message = REFUSED[case]
    live = dict(types_core._LIVE)
    with pytest.raises(ValueError, match=message):
        make()
    assert dict(types_core._LIVE) == live


UNHELD = {  # values no cache or module holds
    "Alphabet": lambda: Alphabet(1009),
    "TypeVector": lambda: TypeVector((5, 6, 0), 11),
    "JointType": lambda: JointType(((5, 1), (0, 2), (1, 2)), 11),
    "FFCodeConfig": lambda: FFCodeConfig(7, 0.123),
    "SourceSpec": lambda: SourceSpec(((0.125, 0.375), (0.0625, 0.4375))),
}


@pytest.mark.parametrize("kind", UNHELD)
def test_a_value_nothing_holds_leaves_the_registry(kind):
    value = UNHELD[kind]()
    key = (type(value), value.__reduce__()[1])
    assert types_core._LIVE[key] is value
    del value
    gc.collect()
    assert key not in types_core._LIVE


def _cached_functions():
    """Every cache_clear-able function of every compdeliv module."""
    for info in pkgutil.iter_modules(compdeliv.__path__):
        module = importlib.import_module(f"compdeliv.{info.name}")
        yield from (obj for obj in vars(module).values() if callable(getattr(obj, "cache_clear", None)))


def test_every_cache_key_of_a_compdeliv_class_hashes_by_identity():
    # A cache keyed by a compdeliv class must hash and compare its keys in C:
    # the class is interned and inherits object's __hash__ and __eq__.
    keyed = {}
    for fn in _cached_functions():
        for name, hint in typing.get_type_hints(fn.__wrapped__).items():
            for cls in typing.get_args(hint) or (hint,):
                if name != "return" and isinstance(cls, type) and cls.__module__.startswith("compdeliv"):
                    keyed.setdefault(cls, []).append(fn.__name__)
    assert {Alphabet, JointType, FFCodeConfig, SourceSpec} <= keyed.keys()
    for cls, users in keyed.items():
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__, (cls, users)
