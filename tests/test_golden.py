"""Golden fixtures: tables and codewords must match the pinned bits.

The fixtures under tests/golden/ were written by tests/golden/generate.py;
a change that moves any of these bits must regenerate them on purpose.
"""

import json
from pathlib import Path

import pytest

from compdeliv.cli import EXIT_OK, main
from compdeliv.ff_codec import FFCodeConfig
from compdeliv.fv_codec import wrap_ff_as_fv
from compdeliv.types_core import (
    _CODE_TABLE_LIMIT,
    _COUNT_CODE_LIMIT,
    _RANK_MAP_LIMIT,
    Alphabet,
    enumerate_joint_types,
    multinomial,
)
from conftest import bit_text
from golden.generate import (
    ANALYTICS_SOURCES,
    BUFFER_SETS,
    CLASS_N17,
    CODES_N17,
    REGION_TIES,
    SWEEP_PLANS,
    TABLE_ALPHABETS,
    analytics_entries,
    buffer_digest,
    codec_3x2_fixture,
    codec_n17_fixture,
    padded_blocks,
    region_digests,
    sweep_digest,
    table_digest,
    table_key,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def load(name):
    return json.loads((GOLDEN / name).read_text())


@pytest.mark.parametrize("kx, ky, n_max", TABLE_ALPHABETS)
def test_table_hashes(kx, ky, n_max):
    pinned = load("tables.json")
    checked = 0
    for n in range(1, n_max + 1):
        for jt in enumerate_joint_types(n, Alphabet(kx), Alphabet(ky)):
            key = table_key(kx, ky, jt)
            assert table_digest(jt) == pinned[key], key
            checked += 1
    assert checked == sum(key.startswith(f"{kx}x{ky} ") for key in pinned)


@pytest.mark.parametrize("name", BUFFER_SETS)
def test_table_buffer_digests(name):
    """Binary n=9, 3x3 n <= 3 and the largest binary n=10 tables, where
    the recoloring chains run longer than in the tables above."""
    assert buffer_digest(BUFFER_SETS[name]()) == load("tables.json")[name]


@pytest.fixture(scope="module")
def codec():
    return load("codec.json")


@pytest.fixture
def letter_files(tmp_path, codec):
    (tmp_path / "x.bin").write_bytes(bytes.fromhex(codec["x"]))
    (tmp_path / "y.bin").write_bytes(bytes.fromhex(codec["y"]))
    return tmp_path


@pytest.mark.parametrize("mode", ["ff", "fv"])
def test_cli_codewords_and_decoded_output(mode, codec, letter_files):
    d = letter_files
    rate = ["--rate", str(codec["rate"])] if mode == "ff" else []
    assert main(["encode", "--mode", mode, "--n", str(codec["n"]), *rate,
                 "--input-x", str(d / "x.bin"), "--input-y", str(d / "y.bin"),
                 "--out", str(d / "code.cdlv")]) == EXIT_OK
    assert (d / "code.cdlv").read_bytes().hex() == codec[mode]
    for side, side_info in (("x", "y.bin"), ("y", "x.bin")):
        assert main(["decode", "--side", side, "--codeword", str(d / "code.cdlv"),
                     "--side-info", str(d / side_info), "--out", str(d / "out.bin")]) == EXIT_OK
        assert (d / "out.bin").read_bytes().hex() == codec[f"{mode}_decoded_{side}"]


def test_3x2_cli_codewords_and_decoded_output():
    """FF (n=5) and FV (n=6) files of a 3x2 letter pair and all four
    decodes, flagged FF blocks' fallbacks included."""
    assert codec_3x2_fixture() == load("codec_3x2.json")


def test_n17_cli_codewords_decoded_output_and_scalar_ranks():
    """FF and FV files of binary n=17 blocks and all four decodes, past the
    code table and the count code, and scalar ranks and unranks past the
    rank maps: the class searches the fixtures above never reach."""
    for n, _ in CODES_N17.values():
        assert 2 ** n > _CODE_TABLE_LIMIT and (n + 1) ** 4 > _COUNT_CODE_LIMIT
    assert multinomial(CLASS_N17) > _RANK_MAP_LIMIT
    assert codec_n17_fixture() == load("codec_n17.json")


def test_wrapped_codewords(codec):
    n = codec["n"]
    wrapped = wrap_ff_as_fv(FFCodeConfig(n, codec["rate"]))
    blocks = zip(padded_blocks(bytes.fromhex(codec["x"]), n),
                 padded_blocks(bytes.fromhex(codec["y"]), n))
    for (x, y), bits in zip(blocks, codec["wrapped"], strict=True):
        cw = wrapped.encode(x, y)
        assert bit_text(cw) == bits
        assert wrapped.decode(cw, y, "x") == x
        assert wrapped.decode(cw, x, "y") == y


def test_mc_sweep_csv():
    """The benchmark's sweep plan; criterion 6's is checked in test_acceptance.py."""
    text, plan = SWEEP_PLANS["mc_sweep"]
    pinned = load("sweep.json")["mc_sweep"]
    assert pinned["plan"] == text
    assert sweep_digest(plan) == pinned["csv_sha256"]


@pytest.mark.parametrize("name", ANALYTICS_SOURCES)
def test_analytics(name):
    """Exponent scans, the seven bounds and the exact FF and FV
    probabilities, bit for bit (`float.hex`)."""
    pinned = {key: value for key, value in load("analytics.json").items() if key == name or key.startswith(f"{name} ")}
    entries = analytics_entries(name)
    assert entries.keys() == pinned.keys()
    for key, value in entries.items():
        assert value == pinned[key], key


@pytest.mark.parametrize("name", REGION_TIES)
def test_region_at_exact_ties(name):
    """Every code's region where types tie the rate exactly, bit for bit."""
    pinned = {key: value for key, value in load("analytics.json").items() if key.startswith(f"region {name} ")}
    assert region_digests(name) == pinned
