"""Fixed-to-fixed codec: encoding, decoding, sizing, exact error probability."""

import numpy as np
import pytest

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
    num_symbols_of,
    rate_bound_check,
)
from compdeliv.info_measures import dsbs, in_decodable_region, uniform_independent
from compdeliv.types_core import BINARY, Alphabet, JointType, Sequence, joint_type_of
from conftest import all_binary_pairs

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
        assert num_symbols_of(JointType(((1, 1), (1, 1)), 4)) == 4


class TestEncode:
    def test_identity_pair_always_encodable(self):
        from compdeliv.types_core import seq

        cfg = FFCodeConfig(4, 0.25)
        cw = ff_encode(cfg, seq("0101"), seq("0101"))
        assert not cw.error_flag
        assert ff_decode_x(cfg, cw, seq("0101")) == seq("0101")

    def test_balanced_type_escapes_below_one(self):
        from compdeliv.types_core import seq

        cfg = FFCodeConfig(4, 0.9)
        cw = ff_encode(cfg, seq("0011"), seq("0101"))
        assert cw.error_flag
        assert cw.type_index == 0 and cw.symbol == 0

    def test_balanced_type_included_at_one(self):
        from compdeliv.types_core import seq

        cfg = FFCodeConfig(4, 1.0)
        x, y = seq("0011"), seq("0101")
        cw = ff_encode(cfg, x, y)
        assert not cw.error_flag
        assert ff_decode_x(cfg, cw, y) == x
        assert ff_decode_y(cfg, cw, x) == y

    def test_wrong_length_rejected(self):
        from compdeliv.types_core import seq

        with pytest.raises(ValueError):
            ff_encode(FFCodeConfig(4, 0.5), seq("001"), seq("010"))


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
        from compdeliv.types_core import seq

        cfg = FFCodeConfig(4, 0.5)
        cw = FFCodeword(0, 0, True)
        assert ff_decode_x(cfg, cw, seq("0101")) == seq("0000")
        assert ff_decode_y(cfg, cw, seq("0101")) == seq("0000")

    def test_type_index_out_of_range(self):
        from compdeliv.types_core import seq

        cfg = FFCodeConfig(2, 0.5)
        with pytest.raises(CodewordRangeError):
            ff_decode_x(cfg, FFCodeword(10 ** 6, 0, False), seq("01"))

    def test_side_info_of_wrong_type(self):
        from compdeliv.types_core import seq

        cfg = FFCodeConfig(4, 1.0)
        cw = ff_encode(cfg, seq("0011"), seq("0101"))
        with pytest.raises(SideInfoMismatchError):
            ff_decode_x(cfg, cw, seq("1111"))


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


class TestSizing:
    def test_region_enumeration_is_filtered_and_ordered(self):
        cfg = FFCodeConfig(4, 0.5)
        code = make_code(cfg)
        from compdeliv.types_core import enumerate_joint_types

        expected = [
            jt
            for jt in enumerate_joint_types(4, BINARY, BINARY)
            if in_decodable_region(jt, 0.5)
        ]
        assert list(code.region) == expected

    def test_codebook_size_high_rate_n2(self):
        m = codebook_size(FFCodeConfig(2, 1.0))
        assert m <= 10 * 4 + 1

    def test_rate_zero_limit(self):
        # only deterministic couplings survive a tiny rate, one symbol each
        cfg = FFCodeConfig(3, 1e-9)
        code = make_code(cfg)
        assert all(num_symbols_of(jt) == 1 for jt in code.region)
        assert code.symbol_width == 0

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_rate_bound(self, n, rate):
        assert rate_bound_check(FFCodeConfig(n, rate))

    def test_codeword_width_layout(self):
        code = make_code(FFCodeConfig(4, 1.0))
        assert code.codeword_width == 1 + code.type_width + code.symbol_width


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

    def test_both_sides_charged_equally(self):
        err = exact_error_probability(FFCodeConfig(4, 0.5), dsbs(0.11))
        assert err.e_x == err.e_y
        assert err.e_sum == err.e_x + err.e_y
