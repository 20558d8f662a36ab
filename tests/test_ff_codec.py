"""Fixed-to-fixed codec: encoding, decoding, sizing, exact error probability."""

import math

import numpy as np
import pytest

from compdeliv import ff_codec, types_core
from compdeliv.bitio import BitWriter, TruncatedStreamError
from compdeliv.ff_codec import (
    CodewordRangeError,
    FFCodeConfig,
    FFCodeword,
    SideInfoMismatchError,
    bit_width,
    codebook_size,
    exact_error_probability,
    ff_decode_batch,
    ff_decode_x,
    ff_decode_y,
    ff_encode,
    ff_encode_batch,
    make_code,
    rate_bound_check,
)
from compdeliv.info_measures import SourceSpec, dsbs, in_decodable_region, uniform_independent
from compdeliv.types_core import (
    BINARY,
    Alphabet,
    JointType,
    Sequence,
    enumerate_joint_types,
    joint_type_count,
    joint_type_index,
    joint_type_of,
    joint_types_at,
)
from conftest import all_binary_pairs, seq
from golden.generate import REGION_TIES

RATES = (0.25, 0.5, 0.75, 1.0)


class TestBitWidth:
    def test_small_counts(self):
        assert bit_width(0) == 0
        assert bit_width(1) == 0
        assert bit_width(2) == 1
        assert bit_width(3) == 2
        assert bit_width(4) == 2
        assert bit_width(5) == 3

    def test_num_symbols_balanced(self):
        assert JointType(((1, 1), (1, 1)), 4).num_symbols == 4


class TestEncode:
    def test_identity_pair_always_encodable(self):
        cfg = FFCodeConfig(4, 0.25)
        cw = ff_encode(cfg, seq("0101"), seq("0101"))
        assert not cw.error_flag
        assert ff_decode_x(cfg, cw, seq("0101")) == seq("0101")

    def test_balanced_type_escapes_below_one(self):
        cfg = FFCodeConfig(4, 0.9)
        cw = ff_encode(cfg, seq("0011"), seq("0101"))
        assert cw.error_flag
        assert cw.type_index == 0 and cw.symbol == 0

    def test_balanced_type_included_at_one(self):
        cfg = FFCodeConfig(4, 1.0)
        x, y = seq("0011"), seq("0101")
        cw = ff_encode(cfg, x, y)
        assert not cw.error_flag
        assert ff_decode_x(cfg, cw, y) == x
        assert ff_decode_y(cfg, cw, x) == y

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ff_encode(FFCodeConfig(4, 0.5), seq("001"), seq("010"))

    @pytest.mark.parametrize("letters", [(0, 2, 0, 1), (0, 1, 0, 1)])
    def test_pair_over_other_alphabets_rejected(self, letters):
        # Refused as ff_encode_batch refuses letters outside the code's
        # alphabets, not flagged as a region escape; so is a sequence whose
        # letters fit but whose alphabet is not the code's.
        cfg = FFCodeConfig(4, 0.8)
        ternary = Sequence(letters, Alphabet(3))
        for x, y in ((seq("0101"), ternary), (ternary, seq("0101"))):
            with pytest.raises(ValueError, match="the code is over 2 x 2"):
                ff_encode(cfg, x, y)
        with pytest.raises(ValueError):
            ff_encode_batch(cfg, np.array([(0, 2, 0, 1)]), np.array([(0, 1, 0, 1)]))

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="finite and positive"):
            FFCodeConfig(8, rate)


class TestDecode:
    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_error_inside_region(self, n, rate):
        cfg = FFCodeConfig(n, rate)
        for x, y in all_binary_pairs(n):
            cw = ff_encode(cfg, x, y)
            if in_decodable_region(joint_type_of(x, y), rate):
                assert not cw.error_flag
                assert ff_decode_x(cfg, cw, y) == x
                assert ff_decode_y(cfg, cw, x) == y
            else:
                assert cw.error_flag

    def test_flagged_codeword_decodes_totally(self):
        cfg = FFCodeConfig(4, 0.5)
        cw = FFCodeword(0, 0, True)
        assert ff_decode_x(cfg, cw, seq("0101")) == seq("0000")
        assert ff_decode_y(cfg, cw, seq("0101")) == seq("0000")

    def test_type_index_out_of_range(self):
        cfg = FFCodeConfig(2, 0.5)
        with pytest.raises(CodewordRangeError):
            ff_decode_x(cfg, FFCodeword(10 ** 6, 0, False), seq("01"))

    def test_side_info_of_wrong_type(self):
        cfg = FFCodeConfig(4, 1.0)
        cw = ff_encode(cfg, seq("0011"), seq("0101"))
        with pytest.raises(SideInfoMismatchError):
            ff_decode_x(cfg, cw, seq("1111"))

    def test_a_decode_builds_only_the_type_it_reads(self, monkeypatch):
        # Binary n=114 at rate 1.0 has 260,130 region types; with every
        # enumeration refusing, both decoders of one block build its type alone.
        def refuse(*args):
            raise AssertionError("joint types listed")

        for module in (types_core, ff_codec):
            monkeypatch.setattr(module, "enumerate_joint_types", refuse, raising=False)
        cfg = FFCodeConfig(114, 1.0)
        code = make_code(cfg)
        code.region.clear()
        x, y = seq("1" + "0" * 113), seq("0" * 113 + "1")
        cw = ff_encode(cfg, x, y)
        assert not cw.error_flag and len(code.region_types) == 260130
        assert ff_decode_x(cfg, cw, y) == x and ff_decode_y(cfg, cw, x) == y
        assert list(code.region) == [cw.type_index] and code.region[cw.type_index] == joint_type_of(x, y)


def _blocks(seed: int, m: int, n: int, k: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, k, size=(m, n), dtype=np.uint8)


class TestBatch:
    """The array codec against the per-block one, codeword for codeword."""

    @staticmethod
    def check_matches_scalar(cfg: FFCodeConfig, seed: int) -> np.ndarray:
        x = _blocks(seed, 300, cfg.n, cfg.ax.size)
        y = _blocks(seed + 1, 300, cfg.n, cfg.ay.size)
        words = ff_encode_batch(cfg, x, y)
        decoded_x = ff_decode_batch(cfg, words, y, "x")
        decoded_y = ff_decode_batch(cfg, words, x, "y")
        for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
            xs, ys = Sequence(tuple(xi), cfg.ax), Sequence(tuple(yi), cfg.ay)
            cw = ff_encode(cfg, xs, ys)
            assert (words[0][i], words[1][i], words[2][i]) == (cw.error_flag, cw.type_index, cw.symbol)
            assert tuple(decoded_x[i].tolist()) == ff_decode_x(cfg, cw, ys).letters
            assert tuple(decoded_y[i].tolist()) == ff_decode_y(cfg, cw, xs).letters
        return words[0]

    @pytest.mark.parametrize("rate", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("n", [1, 4, 8, 10])
    def test_binary_matches_scalar(self, n, rate):
        flags = self.check_matches_scalar(FFCodeConfig(n, rate), seed=n)
        if n >= 4 and rate < 1.0:  # both branches, the flagged fallback included
            assert flags.any() and not flags.all()

    @pytest.mark.parametrize("rate", [0.5, 0.8, 1.0])
    def test_3x2_alphabet_matches_scalar(self, rate):
        self.check_matches_scalar(FFCodeConfig(5, rate, Alphabet(3), Alphabet(2)), seed=5)

    def test_bad_codewords_and_side_information_rejected(self):
        cfg = FFCodeConfig(4, 1.0)
        x, y = _blocks(1, 20, 4, 2), _blocks(2, 20, 4, 2)
        flags, type_index, symbols = ff_encode_batch(cfg, x, y)
        for shift in (10 ** 6, -1 - type_index.max()):
            with pytest.raises(CodewordRangeError):
                ff_decode_batch(cfg, (flags, type_index + shift, symbols), y, "x")
        wrong = y.copy()
        wrong[0] = 0 if y[0].all() else 1  # a block of another type than y[0]
        with pytest.raises(SideInfoMismatchError):
            ff_decode_batch(cfg, (flags, type_index, symbols), wrong, "x")
        with pytest.raises(ValueError):
            ff_encode_batch(cfg, x[:, :3], y[:, :3])
        for bad_x, bad_y in ((x + 2, y), (x, y + 2)):  # letters outside the alphabet
            with pytest.raises(ValueError):
                ff_encode_batch(cfg, bad_x, bad_y)

    @pytest.mark.parametrize("m", [1, 5, 20])
    def test_arrays_of_other_row_counts_refused(self, m):
        # Ten rows against m, either way round: all-zero rows (one symbol
        # each, which a broadcast y used to code) and random ones.
        cfg = FFCodeConfig(8, 0.8)
        for ten, other in ((np.zeros((10, 8), np.uint8), np.zeros((m, 8), np.uint8)),
                           (_blocks(3, 10, 8, 2), _blocks(4, m, 8, 2))):
            for x, y in ((ten, other), (other, ten)):
                with pytest.raises(ValueError, match=f"y has {len(y)} rows, not {len(x)}"):
                    ff_encode_batch(cfg, x, y)
                words = ff_encode_batch(cfg, x, x)
                for side in ("x", "y"):
                    with pytest.raises(ValueError, match=f"side information has {len(y)} rows, not {len(x)}"):
                        ff_decode_batch(cfg, words, y, side)
        flags, type_index, symbols = ff_encode_batch(cfg, ten, ten)  # fields of one word batch that disagree
        for fields, counts in (((flags, np.resize(type_index, m), symbols), (m, 10)),
                               ((flags, type_index, np.resize(symbols, m)), (10, m))):
            with pytest.raises(ValueError, match="codeword fields of %d and %d rows for 10 blocks" % counts):
                ff_decode_batch(cfg, fields, ten, "x")

    def test_type_index_of_another_row_count_refused(self):
        cfg = FFCodeConfig(4, 1.0)
        x, y = _blocks(1, 3, 4, 2), _blocks(2, 3, 4, 2)
        for type_index in (np.array([0]), np.zeros(4, np.int64), np.zeros((3, 1), np.int64)):
            with pytest.raises(ValueError, match=rf"type_index of shape \({len(type_index)},.*\) for 3 rows"):
                ff_encode_batch(cfg, x, y, type_index)

    def test_type_index_past_the_joint_type_count_refused(self):
        cfg = FFCodeConfig(4, 1.0)  # 35 joint types
        x, y = _blocks(1, 3, 4, 2), _blocks(2, 3, 4, 2)
        index = joint_type_index(x, y, 2, 2)
        assert [w.tolist() for w in ff_encode_batch(cfg, x, y, index)] == [
            w.tolist() for w in ff_encode_batch(cfg, x, y)
        ]
        for bad in (999, 35, -2):
            with pytest.raises(ValueError, match=r"one index in -1\.\.34 per row"):
                ff_encode_batch(cfg, x, y, np.array([index[0], bad, index[2]]))

    def test_decode_error_names_the_first_failing_row(self):
        # Rows decode grouped by type index; the error raised is the lowest
        # failing row's, whichever group fails first.
        cfg = FFCodeConfig(4, 1.0)
        x = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 1], [0, 1, 0, 1]], np.uint8)
        flags, type_index, symbols = ff_encode_batch(cfg, x, x)
        assert type_index[0] > type_index[1]
        wrong = x.copy()
        wrong[[0, 1], 0] ^= 1  # rows 0 and 1 get side information of another type
        for side in ("x", "y"):
            with pytest.raises(SideInfoMismatchError) as err:
                ff_decode_batch(cfg, (flags, type_index, symbols), wrong, side)
            assert err.value.row == 0
        bad_index = type_index.copy()
        bad_index[3] = len(make_code(cfg).region_types)
        with pytest.raises(SideInfoMismatchError) as err:
            ff_decode_batch(cfg, (flags, bad_index, symbols), wrong, "x")
        assert err.value.row == 0
        with pytest.raises(CodewordRangeError) as err:
            ff_decode_batch(cfg, (flags, bad_index, symbols), x, "x")
        assert err.value.row == 3

    @pytest.mark.parametrize("n, rate, k", [(1, 0.5, 2), (4, 0.5, 2), (8, 0.8, 2), (4, 0.9, 3)])
    def test_payload_is_the_packed_words(self, n, rate, k):
        cfg = FFCodeConfig(n, rate, Alphabet(k), Alphabet(k))
        code = make_code(cfg)
        words = ff_encode_batch(cfg, _blocks(n, 50, n, k), _blocks(n + 1, 50, n, k))
        w = BitWriter()
        for flag, idx, symbol in zip(*(part.tolist() for part in words)):
            w.write(code.pack(FFCodeword(idx, symbol, flag)), code.codeword_width)
        payload = code.pack_words(words)
        assert payload == w.getvalue()
        read, end, error = code.read_words(payload, 50)
        assert error is None and end == 50 * code.codeword_width
        for got, want in zip(read, words):
            assert got.tolist() == want.tolist()
        read, end, error = code.read_words(payload[:-1 - code.codeword_width // 8], 50)
        whole = len(read[0])
        assert isinstance(error, TruncatedStreamError) and error.row == whole < 50
        assert end == whole * code.codeword_width
        assert read[2].tolist() == words[2][:whole].tolist()


class TestSizing:
    def test_region_enumeration_is_filtered_and_ordered(self):
        cfg = FFCodeConfig(4, 0.5)
        code = make_code(cfg)
        expected = [
            jt
            for jt in enumerate_joint_types(4, BINARY, BINARY)
            if in_decodable_region(jt, 0.5)
        ]
        assert joint_types_at(code.region_types, 4, 2, 2) == expected

    def test_codebook_size_high_rate_n2(self):
        m = codebook_size(FFCodeConfig(2, 1.0))
        assert m <= 10 * 4 + 1

    def test_rate_zero_limit(self):
        # only deterministic couplings survive a tiny rate, one symbol each
        cfg = FFCodeConfig(3, 1e-9)
        code = make_code(cfg)
        assert all(jt.num_symbols == 1 for jt in joint_types_at(code.region_types, 3, 2, 2))
        assert code.symbol_width == 0
        assert codebook_size(cfg) == len(code.region_types) + 1

    @pytest.mark.parametrize("name", REGION_TIES)
    def test_codebook_size_is_the_per_type_sum(self, name):
        # At rates that types tie exactly, and at a tiny rate (one-symbol types alone).
        (kx, ky), lengths, tie = REGION_TIES[name]
        ax, ay = Alphabet(kx), Alphabet(ky)
        for n in lengths[::max(1, len(lengths) // 5)]:
            types = enumerate_joint_types(n, ax, ay)
            for rate in (tie, 1e-9):
                cfg = FFCodeConfig(n, rate, ax, ay)
                region = [jt for jt in types if in_decodable_region(jt, rate)]
                code = make_code(cfg)
                assert codebook_size(cfg) == sum(jt.num_symbols for jt in region) + 1, (n, rate)
                assert code.symbol_width == bit_width(max(jt.num_symbols for jt in region)), (n, rate)
                assert code.region_types.tolist() == [jt.index for jt in region]
                assert joint_types_at(code.region_types, n, kx, ky) == region

    def test_empty_region(self, monkeypatch):
        # Every positive rate keeps the types of entropy 0; with no type
        # inside, the code holds the error word alone and both fields are empty.
        monkeypatch.setattr(ff_codec, "max_entropy_column", lambda n, kx, ky: np.full(joint_type_count(n, kx, ky), np.inf))
        cfg = FFCodeConfig(5, 0.5)
        make_code.cache_clear()
        try:
            code = make_code(cfg)
            region = joint_types_at(code.region_types, 5, 2, 2)
            assert (code.type_width, code.symbol_width, codebook_size(cfg), region) == (0, 0, 1, [])
        finally:
            make_code.cache_clear()

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_rate_bound(self, n, rate):
        assert rate_bound_check(FFCodeConfig(n, rate))

    def test_codeword_width_layout(self):
        code = make_code(FFCodeConfig(4, 1.0))
        assert code.codeword_width == 1 + code.type_width + code.symbol_width

    def test_pack_layout_and_round_trip(self):
        code = make_code(FFCodeConfig(4, 1.0))
        tw, sw = code.type_width, code.symbol_width
        word = code.pack(FFCodeword(3, 2, False))
        assert format(word, f"0{code.codeword_width}b") == "0" + format(3, f"0{tw}b") + format(2, f"0{sw}b")
        assert code.pack(FFCodeword(0, 0, True)) == 1 << (tw + sw)
        for x, y in all_binary_pairs(4):
            cw = ff_encode(code.cfg, x, y)
            assert code.unpack(code.pack(cw)) == cw

    def test_pack_and_unpack_reject_fields_out_of_range(self):
        code = make_code(FFCodeConfig(4, 1.0))
        for cw in (FFCodeword(1 << code.type_width, 0, False), FFCodeword(0, 1 << code.symbol_width, False),
                   FFCodeword(-1, 0, False), FFCodeword(0, -1, False)):
            with pytest.raises(CodewordRangeError):
                code.pack(cw)
        for word in (-1, 1 << code.codeword_width):
            with pytest.raises(CodewordRangeError):
                code.unpack(word)


class TestExactError:
    def test_zero_at_full_rate(self):
        err = exact_error_probability(FFCodeConfig(5, 1.0), dsbs(0.11))
        assert err.e_x == 0.0 and err.e_y == 0.0

    def test_matches_pair_level_oracle(self):
        # direct summation over all 256 pairs at n=4
        p = uniform_independent()
        cfg = FFCodeConfig(4, 0.4)
        escape = 0.0
        for x, y in all_binary_pairs(4):
            if not in_decodable_region(joint_type_of(x, y), 0.4):
                escape += (0.25) ** 4
        err = exact_error_probability(cfg, p)
        assert err.e_x == pytest.approx(escape, rel=1e-12)
        assert err.e_sum == pytest.approx(2 * escape, rel=1e-12)

    def test_nonincreasing_in_rate(self):
        p = dsbs(0.2)
        values = [
            exact_error_probability(FFCodeConfig(6, r), p).e_sum
            for r in (0.3, 0.5, 0.7, 0.9, 1.0)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_source_over_other_alphabets_rejected(self):
        three_by_two = SourceSpec(((0.2, 0.1), (0.1, 0.2), (0.2, 0.2)))
        with pytest.raises(ValueError, match="source over 3 x 2 letters"):
            exact_error_probability(FFCodeConfig(4, 0.8), three_by_two)

    def test_an_empty_escape_sum_is_a_float(self):
        # Every binary type of n=1 lies inside rate 1.6: nothing is summed.
        err = exact_error_probability(FFCodeConfig(1, 1.6), dsbs(0.11))
        assert (float.hex(err.e_x), float.hex(err.e_y)) == ("0x0.0p+0", "0x0.0p+0")

    def test_both_sides_charged_equally(self):
        err = exact_error_probability(FFCodeConfig(4, 0.5), dsbs(0.11))
        assert err.e_x == err.e_y
        assert err.e_sum == err.e_x + err.e_y
