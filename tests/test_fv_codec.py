"""Fixed-to-variable codec: zero error, prefix property, lengths, wrapping."""

import math

import numpy as np
import pytest

from compdeliv.bitio import BitReader, BitWriter, TruncatedStreamError
from compdeliv.coding_table import SideInfoMismatchError
from compdeliv.ff_codec import FFCodeConfig, bit_width, exact_error_probability, make_code
from compdeliv import types_core
from compdeliv.fv_codec import (
    MalformedCodewordError,
    FVCode,
    FVCodeword,
    expected_length,
    fv_decode_batch,
    fv_decode_x,
    fv_decode_x_stream,
    fv_decode_y,
    fv_decode_y_stream,
    fv_encode,
    fv_encode_batch,
    make_fv_code,
    overflow_probability,
    raw_pair_width,
    underflow_probability,
    wrap_ff_as_fv,
)
from compdeliv.info_measures import (
    dsbs,
    epsilon_n,
    max_conditional_entropy,
    prob_of_type_class,
    uniform_independent,
)
from compdeliv.types_core import (
    BINARY,
    MAX_JOINT_TYPE_COUNTS,
    Alphabet,
    Sequence,
    enumerate_joint_types,
    joint_type_count,
    joint_type_index,
    joint_type_of,
)
from conftest import PAST_ENUMERATION, all_binary_pairs, bit_text, correlated_blocks, seq


class TestEncode:
    def test_constant_pair_is_header_only(self):
        cw = fv_encode(4, seq("0000"), seq("0000"))
        code = make_fv_code(4, BINARY, BINARY)
        assert len(cw) == code.header_width

    def test_balanced_type_symbol_width(self):
        code = make_fv_code(4, BINARY, BINARY)
        jt = joint_type_of(seq("0011"), seq("0101"))
        assert bit_width(jt.num_symbols) == 2

    def test_length_is_a_function_of_the_type(self):
        code = make_fv_code(5, BINARY, BINARY)
        lengths = {}
        for x, y in all_binary_pairs(5):
            jt = joint_type_of(x, y)
            length = len(fv_encode(5, x, y))
            assert length == code.codeword_length(jt)
            assert lengths.setdefault(jt, length) == length

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            fv_encode(4, seq("001"), seq("010"))

    @pytest.mark.parametrize("n, kx, ky", [(n, 2, 2) for n in range(1, 11)] + [(5, 3, 2), (4, 3, 3), (1, 16, 16)])
    def test_length_table_is_the_per_type_length(self, n, kx, ky):
        code = make_fv_code(n, Alphabet(kx), Alphabet(ky))
        types = enumerate_joint_types(n, Alphabet(kx), Alphabet(ky))
        assert code.codeword_lengths.tolist() == [code.codeword_length(jt) for jt in types]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_per_type_length_bound(self, n):
        # length <= n * maxH + eps_n overhead + 2 ceiling bits
        code = make_fv_code(n, BINARY, BINARY)
        for jt in enumerate_joint_types(n, BINARY, BINARY):
            bound = n * max_conditional_entropy(jt) + 4 * math.log2(n + 1) + 2
            assert code.codeword_length(jt) <= bound + 1e-9


class TestDecode:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_round_trip(self, n):
        for x, y in all_binary_pairs(n):
            cw = fv_encode(n, x, y)
            assert fv_decode_x(cw, y) == x
            assert fv_decode_y(cw, x) == y

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_prefix_free(self, n):
        words = {bit_text(fv_encode(n, x, y)) for x, y in all_binary_pairs(n)}
        for w in words:
            for v in words:
                if w != v:
                    assert not v.startswith(w)

    def test_stream_framing(self):
        n = 4
        pairs = [
            (seq("0011"), seq("0101")),
            (seq("0000"), seq("1111")),
            (seq("0101"), seq("0101")),
        ]
        writer = BitWriter()
        for x, y in pairs:
            cw = fv_encode(n, x, y)
            writer.write(cw.value, cw.length)
        payload, total = writer.getvalue(), writer.bit_length()
        reader = BitReader(payload)
        for x, y in pairs:
            assert fv_decode_x_stream(n, reader, y) == x
        assert reader.remaining == 8 * len(payload) - total
        reader = BitReader(payload, total)
        for x, y in pairs:
            assert fv_decode_y_stream(n, reader, x) == y
        assert reader.remaining == 0
        with pytest.raises(TruncatedStreamError):
            fv_decode_y_stream(n, reader, pairs[0][0])

    def test_truncated_codeword_rejected(self):
        cw = fv_encode(4, seq("0011"), seq("0101"))
        with pytest.raises(MalformedCodewordError, match="codeword ends inside a field"):
            fv_decode_x(FVCodeword(cw.value >> 1, cw.length - 1), seq("0101"))

    def test_trailing_bits_rejected(self):
        cw = fv_encode(4, seq("0011"), seq("0101"))
        with pytest.raises(MalformedCodewordError, match="trailing bits after codeword"):
            fv_decode_x(FVCodeword(cw.value << 1, cw.length + 1), seq("0101"))

    @pytest.mark.parametrize(
        "extra, message",
        [(-1, "codeword ends inside a field"), (0, "out of range"), (3, "out of range")],
    )
    def test_type_index_checked_before_the_symbol_field(self, extra, message):
        code = make_fv_code(4)
        width = code.header_width
        assert code.type_count < 1 << width
        top = (1 << width) - 1  # an index past the last joint type
        with pytest.raises(MalformedCodewordError, match=message):
            fv_decode_y(FVCodeword(top >> -extra if extra < 0 else top << extra, width + extra), seq("0101"))

    @pytest.mark.parametrize("value, length", [(4, 2), (-1, 2), (1, 0)])
    def test_codeword_value_must_fit_its_length(self, value, length):
        with pytest.raises(ValueError):
            FVCodeword(value, length)

    def test_negative_codeword_length_rejected(self):
        with pytest.raises(ValueError, match="codeword length -1 is negative"):
            FVCodeword(0, -1)


class TestBatch:
    """The array codec against the per-block one, bit for bit."""

    @pytest.mark.parametrize("n, kx, ky", [(1, 2, 2), (3, 2, 2), (8, 2, 2), (4, 3, 2)])
    def test_matches_scalar(self, n, kx, ky):
        code = make_fv_code(n, Alphabet(kx), Alphabet(ky))
        rng = np.random.default_rng(n)
        x = rng.integers(0, kx, size=(60, n), dtype=np.uint8)
        y = ((x + (rng.random(x.shape) < 0.2)) % ky).astype(np.uint8)
        words = fv_encode_batch(code, x, y)
        payload = code.pack_words(words)
        w = BitWriter()
        for xi, yi in zip(x.tolist(), y.tolist()):
            cw = fv_encode(n, Sequence(tuple(xi), code.ax), Sequence(tuple(yi), code.ay))
            w.write(cw.value, cw.length)
        assert payload == w.getvalue()
        read, end, error = code.read_words(payload, len(x))
        assert error is None and end == w.bit_length()
        assert read[0].tolist() == words[0].tolist() and read[1].tolist() == words[1].tolist()
        assert (fv_decode_batch(code, read, y, "x") == x).all()
        assert (fv_decode_batch(code, read, x, "y") == y).all()

    @pytest.mark.parametrize("n, k, m", PAST_ENUMERATION)
    def test_round_trip_past_the_enumeration_limit(self, n, k, m):
        # No code could enumerate these joint types; the FV code needs none.
        assert joint_type_count(n, k, k) * k * k > MAX_JOINT_TYPE_COUNTS
        code = make_fv_code(n, Alphabet(k), Alphabet(k))
        assert code.header_width == {8: 19, 12: 17}[n]
        x, y = correlated_blocks(n, m, n, k)
        words = fv_encode_batch(code, x, y)
        payload = code.pack_words(words)
        read, end, error = code.read_words(payload, m)
        assert error is None and end <= 8 * len(payload)
        assert read[0].tolist() == words[0].tolist() and read[1].tolist() == words[1].tolist()
        assert (fv_decode_batch(code, read, y, "x") == x).all()
        assert (fv_decode_batch(code, read, x, "y") == y).all()
        for xi, yi in zip(x.tolist(), y.tolist()):
            xs, ys = Sequence(tuple(xi), code.ax), Sequence(tuple(yi), code.ay)
            cw = fv_encode(n, xs, ys)
            assert fv_decode_x(cw, ys) == xs and fv_decode_y(cw, xs) == ys

    def test_cold_codec_enumerates_no_joint_types(self):
        # Either side of the count code's limit, an FV encode and both
        # decodes with a cold code, slot book and index tables compute every
        # type index and list no joint types (the enumeration's cache counts
        # every call, hit or miss).
        from compdeliv import coding_table

        for cache in (make_fv_code, coding_table.slot_book, types_core._count_code, types_core._rank_table):
            cache.cache_clear()
        before = enumerate_joint_types.cache_info()
        for n, k, counted in ((8, 2, True), (2, 3, True), (4, 3, False)):
            assert ((n + 1) ** (k * k) <= types_core._COUNT_CODE_LIMIT) == counted
            x, y = correlated_blocks(n + k, 300, n, k)
            code = make_fv_code(n, Alphabet(k), Alphabet(k))
            words = fv_encode_batch(code, x, y)
            assert (fv_decode_batch(code, words, y, "x") == x).all()
            assert (fv_decode_batch(code, words, x, "y") == y).all()
        assert enumerate_joint_types.cache_info() == before

    def test_a_code_keeps_at_most_max_joint_type_counts(self, monkeypatch):
        # Three binary joint types hold 12 counts: the memo keeps three, and
        # a fourth distinct one starts it again; a batch of four is refused.
        # An FF code's region is the same memo, under the same bound.
        monkeypatch.setattr(types_core, "MAX_JOINT_TYPE_COUNTS", 12)
        code = FVCode(4, BINARY, BINARY, bit_width(joint_type_count(4, 2, 2)))
        assert code.types.kept == 3
        kept = [code.type_at(i) for i in (0, 7, 34)]
        assert len(code.types) == 3
        assert code.type_at(8).index == 8 and len(code.types) <= 3
        assert [code.type_at(i) for i in (34, 7, 0)] == kept[::-1]
        assert [jt.index for jt in kept] == [0, 7, 34] and len(code.types) <= 3
        with pytest.raises(MalformedCodewordError, match="type index 35 out of range"):
            code.type_at(35)
        with pytest.raises(MalformedCodewordError, match="type index -1 out of range"):
            code.type_at(-1)
        x, y = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 1, 1]]), np.array([[0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 0]])
        met = set(joint_type_index(x, y, 2, 2).tolist())
        assert {0, 34} < met and not met <= {0, 7, 34}  # two kept types and a new one
        words = fv_encode_batch(code, x, y)  # three types fit the 12-count bound
        assert (fv_decode_batch(code, words, y, "x") == x).all() and len(code.types) <= 3
        ff = make_code.__wrapped__(FFCodeConfig(4, 1.0))  # a code of its own, made under the 12-count bound
        assert len(ff.region_types) == 35 and type(ff.region) is type(code.types) and ff.region.kept == 3
        assert [ff.region[i] for i in (0, 7, 34)] == kept and len(ff.region) == 3
        assert ff.region[8].index == 8 and len(ff.region) <= 3
        x4, y4 = np.vstack([x, [[0, 0, 1, 1]]]), np.vstack([y, [[0, 1, 0, 1]]])
        assert len(set(joint_type_index(x4, y4, 2, 2).tolist())) == 4
        with pytest.raises(ValueError, match="MAX_JOINT_TYPE_COUNTS") as caught:
            fv_encode_batch(code, x4, y4)
        assert not isinstance(caught.value, MalformedCodewordError)
        with pytest.raises(ValueError, match="MAX_JOINT_TYPE_COUNTS"):
            fv_decode_batch(code, (joint_type_index(x4, y4, 2, 2), np.zeros(4, np.int64)), y4, "x")

    def test_refusals_do_not_depend_on_what_the_code_coded_before(self):
        # 16 joint types of 256 x 256 letters fill a code's memo; a batch of
        # one new block after them is coded as a fresh code codes it.
        ax = Alphabet(256)
        rng = np.random.default_rng(17)
        x, y = rng.integers(0, 256, (2, 17, 2), dtype=np.uint8)
        assert len(set(joint_type_index(x, y, 256, 256).tolist())) == 17
        code = FVCode(2, ax, ax, make_fv_code(2, ax, ax).header_width)
        assert code.types.kept == 16
        words = fv_encode_batch(code, x[:16], y[:16])
        assert (fv_decode_batch(code, words, y[:16], "x") == x[:16]).all()
        fresh = FVCode(2, ax, ax, code.header_width)
        for c in (code, fresh):
            last = fv_encode_batch(c, x[16:], y[16:])
            assert (fv_decode_batch(c, last, x[16:], "y") == y[16:]).all()
            assert len(c.types) <= 16
        assert [w.tolist() for w in fv_encode_batch(code, x[16:], y[16:])] == [w.tolist() for w in last]
        payload = code.pack_words(words)
        read, _, error = code.read_words(payload, 16)
        assert error is None and read[0].tolist() == words[0].tolist()
        with pytest.raises(ValueError, match="MAX_JOINT_TYPE_COUNTS"):
            fv_encode_batch(code, x, y)

    def test_framing_stops_at_the_first_word_it_cannot_frame(self):
        code = make_fv_code(4)
        x = np.array([[0, 0, 1, 1], [0, 0, 0, 0], [0, 1, 0, 1]], np.uint8)
        y = np.array([[0, 1, 0, 1], [1, 1, 1, 1], [0, 1, 0, 1]], np.uint8)
        words = fv_encode_batch(code, x, y)
        payload = code.pack_words(words)
        lengths = [code.codeword_length(code.type_at(i)) for i in words[0].tolist()]
        read, end, error = code.read_words(payload[:(lengths[0] + lengths[1]) // 8], 3)
        assert isinstance(error, TruncatedStreamError) and error.row == len(read[0])
        assert end == sum(lengths[:len(read[0])])
        bad = BitWriter()
        bad.write(int(words[0][0]) << lengths[0] - code.header_width | int(words[1][0]), lengths[0])
        bad.write(code.type_count, code.header_width)  # one past the last type index
        read, end, error = code.read_words(bad.getvalue() + bytes(4), 3)
        assert isinstance(error, MalformedCodewordError) and error.row == 1
        assert (len(read[0]), end) == (1, lengths[0])

    @pytest.mark.parametrize("m", [1, 5, 20])
    def test_arrays_of_other_row_counts_refused(self, m):
        # Ten rows against m, either way round: all-zero rows (one symbol
        # each, which a broadcast y used to code) and random ones.
        code, rng = make_fv_code(8), np.random.default_rng(m)
        for ten, other in ((np.zeros((10, 8), np.uint8), np.zeros((m, 8), np.uint8)),
                           (rng.integers(0, 2, (10, 8)), rng.integers(0, 2, (m, 8)))):
            for x, y in ((ten, other), (other, ten)):
                with pytest.raises(ValueError, match=f"y has {len(y)} rows, not {len(x)}"):
                    fv_encode_batch(code, x, y)
                words = fv_encode_batch(code, x, x)
                for side in ("x", "y"):
                    with pytest.raises(ValueError, match=f"side information has {len(y)} rows, not {len(x)}"):
                        fv_decode_batch(code, words, y, side)
        type_index, symbols = fv_encode_batch(code, ten, ten)  # fields of one word batch that disagree
        with pytest.raises(ValueError, match=f"codeword fields of 10 and {m} rows for 10 blocks"):
            fv_decode_batch(code, (type_index, np.resize(symbols, m)), ten, "y")

    def test_decode_error_names_the_first_failing_row(self):
        code = make_fv_code(4)
        x = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1]], np.uint8)
        words = fv_encode_batch(code, x, x)
        assert words[0][0] > words[0][1]  # row 0's group decodes after row 1's
        wrong = x.copy()
        wrong[[0, 1], 0] ^= 1
        with pytest.raises(SideInfoMismatchError) as err:
            fv_decode_batch(code, words, wrong, "x")
        assert err.value.row == 0


class TestLengthStatistics:
    def test_expected_length_matches_pair_sum(self):
        p = uniform_independent()
        n = 4
        direct = 0.0
        for x, y in all_binary_pairs(n):
            prob = (0.25) ** n
            direct += prob * len(fv_encode(n, x, y))
        assert expected_length(n, p) == pytest.approx(direct, rel=1e-12)

    def test_overflow_matches_pair_sum(self):
        p = uniform_independent()
        n, rate = 4, 0.5
        threshold = n * (rate + epsilon_n(n, BINARY, BINARY))
        direct = sum(
            (0.25) ** n
            for x, y in all_binary_pairs(n)
            if len(fv_encode(n, x, y)) > threshold
        )
        assert overflow_probability(n, rate, p) == pytest.approx(direct, abs=1e-15)

    def test_overflow_zero_at_high_rate(self):
        assert overflow_probability(6, 1.0, dsbs(0.11)) == 0.0

    def test_underflow_threshold_default(self):
        # constant-pair types always have short codewords at a high rate
        p = dsbs(0.05)
        assert underflow_probability(6, 6.0, p) > 0.0
        assert underflow_probability(6, 1e-9, p) == 0.0

    def test_an_empty_underflow_sum_is_a_float(self):
        # No codeword is shorter than a tiny rate allows: nothing is summed.
        assert float.hex(underflow_probability(6, 1e-9, dsbs(0.11))) == "0x0.0p+0"

    def test_kraft_sum_at_most_one_plus_slack(self):
        # widths are ceilings, so the distinct emitted words satisfy Kraft
        n = 5
        words = {bit_text(fv_encode(n, x, y)) for x, y in all_binary_pairs(n)}
        kraft = sum(2.0 ** -len(w) for w in words)
        assert kraft <= 1.0 + 1e-12

    @pytest.mark.parametrize("crossover", [0.05, 0.11])
    def test_expected_rate_convergence(self, crossover):
        # desk-scale form of the direct coding theorem
        from compdeliv.info_measures import achievable_rate

        p = dsbs(crossover)
        for n in (4, 6, 8, 10):
            slack = epsilon_n(n, BINARY, BINARY) + 2.0 / n
            assert expected_length(n, p) / n <= achievable_rate(p) + slack + 1e-12


class TestWrapping:
    def test_inside_length(self):
        cfg = FFCodeConfig(4, 1.0)
        wrapped = wrap_ff_as_fv(cfg)
        cw = wrapped.encode(seq("0011"), seq("0101"))
        assert len(cw) == 1 + make_code(cfg).codeword_width

    def test_outside_length(self):
        cfg = FFCodeConfig(4, 0.5)
        wrapped = wrap_ff_as_fv(cfg)
        cw = wrapped.encode(seq("0011"), seq("0101"))
        assert len(cw) == 1 + raw_pair_width(4, BINARY, BINARY)

    @pytest.mark.parametrize("rate", [0.25, 0.75])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_zero_error_at_any_rate(self, n, rate):
        wrapped = wrap_ff_as_fv(FFCodeConfig(n, rate))
        for x, y in all_binary_pairs(n):
            cw = wrapped.encode(x, y)
            assert wrapped.decode(cw, y, "x") == x
            assert wrapped.decode(cw, x, "y") == y

    def test_unknown_side_refused(self):
        wrapped = wrap_ff_as_fv(FFCodeConfig(4, 0.5))
        x, y = seq("0011"), seq("0101")
        for cw in (wrapped.encode(x, y), wrapped.encode(x, x)):  # verbatim, then a fixed-length word
            with pytest.raises(ValueError, match="side must be 'x' or 'y', not 'z'"):
                wrapped.decode(cw, x, "z")
        # 2 x 3 letters: side information over either alphabet names the
        # side, not a type mismatch.
        wrapped = wrap_ff_as_fv(FFCodeConfig(4, 0.5, Alphabet(2), Alphabet(3)))
        x, y = seq("0011"), seq("0122", 3)
        for cw in (wrapped.encode(x, seq("0000", 3)), wrapped.encode(x, y)):  # verbatim, then a fixed-length word
            for side_info in (x, y):
                with pytest.raises(ValueError, match="side must be 'x' or 'y', not 'z'"):
                    wrapped.decode(cw, side_info, "z")

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_words_of_another_length_rejected(self, side):
        # The flag bit fixes the length: 1 + codeword_width for a coded
        # word, 1 + raw_pair_width for a verbatim pair.
        cfg = FFCodeConfig(4, 0.8)
        wrapped = wrap_ff_as_fv(cfg)
        x, y = seq("0011"), seq("0101")
        held = y if side == "x" else x
        coded, verbatim = wrapped.encode(x, x), wrapped.encode(x, y)
        assert (coded.value >> (coded.length - 1), verbatim.value >> (verbatim.length - 1)) == (0, 1)
        cases = [
            (FVCodeword(1, 1), "codeword of 1 bits; a verbatim pair has 9"),
            (FVCodeword(0, 0), "codeword of 0 bits; a coded word has 9"),
            (FVCodeword(coded.value << 1, coded.length + 1), "a coded word has 9"),
            (FVCodeword(verbatim.value << 1, verbatim.length + 1), "a verbatim pair has 9"),
            (FVCodeword(verbatim.value >> 1, verbatim.length - 1), "codeword of 8 bits; a verbatim pair has 9"),
        ]
        for cw, message in cases:
            with pytest.raises(MalformedCodewordError, match=message):
                wrapped.decode(cw, held, side)
        assert wrapped.decode(verbatim, held, side) == (x if side == "x" else y)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_side_information_checked_before_the_flag(self, side):
        # Verbatim or coded, a word decodes only from side information of the
        # code's length over the other alphabet, with ff_decode_x/_y's errors.
        wrapped = wrap_ff_as_fv(FFCodeConfig(4, 0.1))
        x, y = seq("0110"), seq("1101")
        verbatim, coded = wrapped.encode(x, y), wrapped.encode(x, x)
        assert (verbatim.value >> (verbatim.length - 1), coded.value >> (coded.length - 1)) == (1, 0)
        for cw in (verbatim, coded):
            with pytest.raises(ValueError, match="side information must have length n=4"):
                wrapped.decode(cw, seq("100"), side)
            with pytest.raises(SideInfoMismatchError, match="side information type does not match codeword"):
                wrapped.decode(cw, seq("2001", 3), side)
        assert wrapped.decode(verbatim, y if side == "x" else x, side) == (x if side == "x" else y)
        assert wrapped.decode(coded, x, side) == x

    def test_expected_rate_matches_type_sum(self):
        cfg = FFCodeConfig(10, 0.8)
        wrapped = wrap_ff_as_fv(cfg)
        direct = sum(
            prob_of_type_class(jt, dsbs(0.11)) * wrapped.codeword_length(jt)
            for jt in enumerate_joint_types(10, BINARY, BINARY)
        ) / 10
        assert wrapped.expected_rate(dsbs(0.11)) == direct  # the same terms, added in the same order

    def test_expected_rate_bound(self):
        cfg = FFCodeConfig(8, 0.8)
        p = dsbs(0.11)
        wrapped = wrap_ff_as_fv(cfg)
        e_sum = exact_error_probability(cfg, p).e_sum
        eps = epsilon_n(8, BINARY, BINARY)
        assert wrapped.expected_rate(p) <= 0.8 + eps + 2 * e_sum + 1e-12


class TestWidths:
    def test_raw_pair_width_binary(self):
        assert raw_pair_width(5, BINARY, BINARY) == 10

    def test_bit_width_agreement(self):
        # header width addresses every joint type
        code = make_fv_code(6, BINARY, BINARY)
        assert code.type_count == len(enumerate_joint_types(6, BINARY, BINARY))
        assert code.header_width == bit_width(code.type_count)
        assert 2 ** code.header_width >= code.type_count
