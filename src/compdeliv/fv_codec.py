"""Fixed-to-variable complementary delivery codec: zero error, prefix-free.

Every joint type gets a coding table, so no rate parameter exists and no
pair is ever rejected.  A codeword is

    [type index: fixed width over all joint types][symbol: per-type width]

where the symbol width is determined by the joint type alone,
`bit_width(jt.num_symbols)` (the ceil-log of the larger shell size, zero
when both shells are singletons).  The fixed header makes the code a
prefix set: a parser always knows the symbol width after reading the
header, so concatenated codewords frame uniquely.

A code enumerates no types (`types_core.joint_type_index` computes the
index), so it reaches any n and alphabets whose index fits
MAX_HEADER_WIDTH bits; a batch may hold joint types of up to
MAX_JOINT_TYPE_COUNTS counts (`FVCode.types.kept`).  Codeword length is a
function of the joint type only, which is what the overflow/underflow
analysis sums over (`FVCode.codeword_lengths`).  `fv_encode` and the
stream decoders code one block; `fv_encode_batch`, `FVCode.pack_words`,
`FVCode.read_words` and `fv_decode_batch` code whole (m, n) arrays of
blocks to and from the same bits, their symbols coded by `SlotBook`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .types_core import (
    BINARY,
    Alphabet,
    JointType,
    RowError,
    Sequence,
    TypesAt,
    _as_blocks,
    _read_only,
    _types_over,
    cached_attribute,
    joint_type_count,
    joint_type_index,
    joint_type_of,
    num_symbols_column,
)
from .bitio import BitReader, TruncatedStreamError, fields_at_every_offset, pack_fields, read_fields
from .info_measures import SourceSpec, epsilon_n, type_columns
from .coding_table import decode_side, encode_pair, held_and_decoded, slot_book
from .ff_codec import FFCodeConfig, _check_side_info, _ff_decode, _source_columns, bit_width, ff_encode, make_code

MAX_HEADER_WIDTH = 32  # widest type index `fields_at_every_offset` frames


class MalformedCodewordError(RowError):
    """Codeword too short or too long, or fields out of range."""


@dataclass(frozen=True, slots=True)
class FVCodeword:
    """`length` bits, most significant first, held as the integer `value`."""

    value: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"codeword length {self.length} is negative")
        if not 0 <= self.value < 1 << self.length:
            raise ValueError(f"codeword value {self.value} does not fit in {self.length} bits")

    def __len__(self) -> int:
        return self.length


@dataclass(frozen=True)
class FVCode:
    """Block length, alphabets and type index width of an FV code.

    `type_at` reads `types`, a `types_core.TypesAt` memo as an FF code's
    region is: it keeps `types.kept` types, MAX_JOINT_TYPE_COUNTS counts
    (kx * ky each: 65,536 of 4 x 4 letters, 16 of 256 x 256), as many as a
    batch may hold; the batch codecs and `read_words` refuse more with a
    ValueError, whatever the code coded before."""

    n: int
    ax: Alphabet
    ay: Alphabet
    header_width: int

    def codeword_length(self, jt: JointType) -> int:
        return self.header_width + bit_width(jt.num_symbols)

    @cached_attribute
    def codeword_lengths(self) -> np.ndarray:
        """`codeword_length` of every type, by type index, read-only: `num_symbols_column`
        (MAX_JOINT_TYPE_COUNTS), no JointType built."""
        symbols = num_symbols_column(self.n, self.ax.size, self.ay.size).tolist()
        return _read_only(np.array([self.header_width + bit_width(delta) for delta in symbols]))

    def __post_init__(self):  # `types`: the joint type of each type index met (`type_at`)
        object.__setattr__(self, "type_count", joint_type_count(self.n, self.ax.size, self.ay.size))
        object.__setattr__(self, "types", TypesAt(self.n, self.ax.size, self.ay.size))

    def check_distinct(self, type_index: np.ndarray) -> None:
        """Raise ValueError if a batch's type indices name more than `types.kept` joint types."""
        if len(type_index) > self.types.kept and len(distinct := np.unique(type_index)) > self.types.kept:
            self._refuse(len(distinct))

    def _refuse(self, distinct: int):
        raise ValueError(
            f"{distinct} distinct joint types of {self.ax.size} x {self.ay.size} letters: "
            f"past MAX_JOINT_TYPE_COUNTS counts ({self.types.kept} types)"
        )

    def type_at(self, index: int) -> JointType:
        """The joint type of a type index: MalformedCodewordError if there is none."""
        try:
            return self.types[index]
        except ValueError:  # `joint_types_at` refuses an index outside the type count
            raise MalformedCodewordError(f"type index {index} out of range") from None

    def pack_words(self, words: FVWords) -> bytes:
        """The codewords of a batch (as `fv_encode_batch` returns it), back
        to back and zero-padded to a whole byte: the bits `fv_encode`'s
        words make, written one after another."""
        type_index, symbols = np.asarray(words[0], np.int64), np.asarray(words[1], np.int64)
        keys, inverse = np.unique(type_index, return_inverse=True)
        symbol_widths = np.array([bit_width(self.type_at(key).num_symbols) for key in keys.tolist()], np.int64)[inverse]
        widths = np.stack([np.full(len(type_index), self.header_width), symbol_widths], 1)
        return pack_fields(np.stack([type_index, symbols], 1), widths)

    def read_words(self, payload: bytes, count: int) -> tuple[FVWords, int, RowError | None]:
        """The first `count` codewords of a concatenated stream.

        Framing is sequential, since a word's length is known only from its
        type index: a loop steps from word to word through a table of the
        type index at every bit offset.  Returns (words, bits read, None),
        or, when word i cannot be framed (the payload ends inside it, or
        its type index is out of range), the i words before it, their bits
        and the error of word i.  A symbol wider than 63 bits whose value
        does not fit in them reads as -1 (see `read_fields`).  Raises
        ValueError once the words framed hold more than `types.kept`
        distinct joint types.
        """
        header, size, total = self.header_width, self.type_count, 8 * len(payload)
        heads = fields_at_every_offset(payload, header)
        head_at = memoryview(heads)
        starts, pos, error, lengths, kept = [], 0, None, {}, self.types.kept  # lengths: type index -> word bits
        for i in range(count):
            if pos >= len(heads):
                error = TruncatedStreamError("the payload ends inside this codeword", i)
                break
            idx = head_at[pos]
            if idx >= size:
                error = MalformedCodewordError(f"type index {idx} out of range", i)
                break
            length = lengths.get(idx)
            if length is None:
                if len(lengths) >= kept:
                    self._refuse(len(lengths) + 1)
                length = lengths[idx] = header + bit_width(self.type_at(idx).num_symbols)
            end = pos + length
            if end > total:
                error = TruncatedStreamError("the payload ends inside this codeword", i)
                break
            starts.append(pos)
            pos = end
        starts = np.array(starts, np.int64)
        widths = np.diff(starts, append=pos) - header  # words lie back to back: a word's bits end where the next starts
        return (heads[starts].astype(np.int64), read_fields(payload, starts + header, widths)), pos, error


@lru_cache(maxsize=None)
def make_fv_code(n: int, ax: Alphabet = BINARY, ay: Alphabet = BINARY) -> FVCode:
    """The FV code of (n, ax, ay); ValueError, before anything is counted
    out, if its type index is wider than MAX_HEADER_WIDTH bits."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if _types_over(n, ax.size * ay.size, 1 << MAX_HEADER_WIDTH):
        raise ValueError(f"n={n} over {ax.size} x {ay.size} letters: a type index takes over {MAX_HEADER_WIDTH} bits")
    return FVCode(n, ax, ay, bit_width(joint_type_count(n, ax.size, ay.size)))


def fv_encode(n: int, x: Sequence, y: Sequence) -> FVCodeword:
    if len(x.letters) != n or len(y.letters) != n:
        raise ValueError(f"sequences must have length n={n}")
    code = make_fv_code(n, x.alphabet, y.alphabet)
    jt = joint_type_of(x, y)
    width = bit_width(jt.num_symbols)
    return FVCodeword(jt.index << width | encode_pair(jt, x, y), code.header_width + width)


# A batch of FV codewords: (type indices, symbols), one per row.
FVWords = tuple[np.ndarray, np.ndarray]


def fv_encode_batch(code: FVCode, x: np.ndarray, y: np.ndarray) -> FVWords:
    """`fv_encode` of every row pair of two (m, n) letter arrays over the
    code's alphabets: the word of row i is `words[0][i]` in the header and
    `words[1][i]` in the symbol field (0 for a type of one symbol).

    The symbols come from `SlotBook.encode` over the slot book the FF
    codes of this n share.  The fields are kept apart because a word can
    be wider than an int64.  ValueError, before any table is built, if
    the rows hold more than `code.types.kept` distinct joint types.
    """
    x, y = _as_blocks(code.n, x, code.ax.size, "x"), _as_blocks(code.n, y, code.ay.size, "y", len(x))
    type_index = joint_type_index(x, y, code.ax.size, code.ay.size)
    code.check_distinct(type_index)
    return type_index, slot_book(code.n, code.ax, code.ay).encode(x, y, type_index)


def fv_decode_batch(code: FVCode, words: FVWords, side_info: np.ndarray, side: str) -> np.ndarray:
    """`fv_decode_x` (side "x") or `fv_decode_y` (side "y") of every row.

    `words` is what `fv_encode_batch` or `FVCode.read_words` returns; row i
    of `side_info` is the side information of codeword i.  A failure
    raises what the scalar path raises for the first failing row, with
    that row as its `row`; a batch of more than `code.types.kept` distinct
    type indices is refused first (ValueError).
    """
    type_index, symbols = words
    code.check_distinct(np.asarray(type_index))
    book = slot_book(code.n, code.ax, code.ay)
    return book.decode(None, type_index, symbols, side_info, side, np.arange(len(type_index)), MalformedCodewordError)


def fv_decode_x_stream(n: int, reader: BitReader, y: Sequence, ax: Alphabet | None = None) -> Sequence:
    """Decode the next codeword of a concatenated stream; returns x.

    The reader is left at the start of the following codeword, and raises
    `TruncatedStreamError` if the stream ends inside this one.  The
    x-alphabet defaults to the side information's alphabet; pass `ax`
    when the two differ.
    """
    return _decode_stream_word(make_fv_code(n, ax or y.alphabet, y.alphabet), reader, y, "x")


def fv_decode_y_stream(n: int, reader: BitReader, x: Sequence, ay: Alphabet | None = None) -> Sequence:
    """Decode the next codeword of a concatenated stream; returns y."""
    return _decode_stream_word(make_fv_code(n, x.alphabet, ay or x.alphabet), reader, x, "y")


def _decode_stream_word(code: FVCode, reader: BitReader, side_info: Sequence, side: str) -> Sequence:
    jt = code.type_at(reader.read(code.header_width))
    return decode_side(jt, side_info, reader.read(bit_width(jt.num_symbols)), side)


def _fv_decode(code: FVCode, cw: FVCodeword, side_info: Sequence, side: str) -> Sequence:
    """Decode one codeword, its two fields read by shifts."""
    rest = cw.length - code.header_width  # bits of the word after the field read
    if rest < 0:
        raise MalformedCodewordError("codeword ends inside a field")
    jt = code.type_at(cw.value >> rest)
    width = bit_width(jt.num_symbols)
    rest -= width
    if rest < 0:
        raise MalformedCodewordError("codeword ends inside a field")
    out = decode_side(jt, side_info, cw.value >> rest & ((1 << width) - 1), side)
    if rest:
        raise MalformedCodewordError("trailing bits after codeword")
    return out


def fv_decode_x(cw: FVCodeword, y: Sequence, ax: Alphabet | None = None) -> Sequence:
    """Exact reproduction of x from the codeword and side information y.

    The x-alphabet defaults to y's alphabet; pass `ax` when the two differ.
    """
    return _fv_decode(make_fv_code(len(y.letters), ax or y.alphabet, y.alphabet), cw, y, "x")


def fv_decode_y(cw: FVCodeword, x: Sequence, ay: Alphabet | None = None) -> Sequence:
    """Exact reproduction of y from the codeword and side information x."""
    return _fv_decode(make_fv_code(len(x.letters), x.alphabet, ay or x.alphabet), cw, x, "y")


def expected_length(n: int, p: SourceSpec) -> float:
    """E[codeword length] in bits, exact sum over joint types."""
    return sum(np.multiply(*_probabilities_and_lengths(n, p)).tolist())


def overflow_probability(n: int, rate: float, p: SourceSpec) -> float:
    """P(length > n(rate + epsilon_n)), exact sum over joint types."""
    q, lengths = _probabilities_and_lengths(n, p)
    return sum(q[lengths > n * (rate + epsilon_n(n, p.ax, p.ay))].tolist())


def underflow_probability(n: int, rate: float, p: SourceSpec) -> float:
    """P(length < n * rate), exact sum over joint types."""
    q, lengths = _probabilities_and_lengths(n, p)
    return float(sum(q[lengths < n * rate].tolist()))


def _probabilities_and_lengths(n: int, p: SourceSpec) -> tuple[np.ndarray, np.ndarray]:
    """The type-class probabilities and codeword lengths of the joint types, by type index."""
    return type_columns(n, p).probability, make_fv_code(n, p.ax, p.ay).codeword_lengths


# --- Wrapping a fixed-length code into a zero-error variable-length one ---


def _letter_width(alphabet: Alphabet) -> int:
    return max(1, bit_width(alphabet.size))


def raw_pair_width(n: int, ax: Alphabet, ay: Alphabet) -> int:
    """Bits to send the pair verbatim: per-symbol ceil-log widths."""
    return n * (_letter_width(ax) + _letter_width(ay))


@dataclass(frozen=True)
class WrappedFVCode:
    """Zero-error variable-length code built around a fixed-length one.

    A leading flag bit selects between the fixed-length codeword (pairs
    the fixed code reproduces exactly) and the verbatim pair (everything
    else), so decoding never fails at any rate.
    """

    cfg: FFCodeConfig

    def encode(self, x: Sequence, y: Sequence) -> FVCodeword:
        cw = ff_encode(self.cfg, x, y)
        if not cw.error_flag:
            code = make_code(self.cfg)
            return FVCodeword(code.pack(cw), 1 + code.codeword_width)
        raw = 1
        for seq, width in ((x, _letter_width(self.cfg.ax)), (y, _letter_width(self.cfg.ay))):
            for c in seq.letters:
                raw = raw << width | c
        return FVCodeword(raw, 1 + raw_pair_width(self.cfg.n, self.cfg.ax, self.cfg.ay))

    def codeword_length(self, jt: JointType) -> int:
        code = make_code(self.cfg)
        if code.region_of[jt.index] >= 0:
            return 1 + code.codeword_width
        return 1 + raw_pair_width(self.cfg.n, self.cfg.ax, self.cfg.ay)

    def decode(self, cw: FVCodeword, side_info: Sequence, side: str) -> Sequence:
        """Reproduce the `side` sequence ("x" or "y") from cw and the other one.

        Side information is checked first, as by `ff_decode_x`/`_y`; a word whose
        length is not the one its flag implies raises MalformedCodewordError."""
        alphabet = _check_side_info(self.cfg, side_info, side)
        n, wx, wy = self.cfg.n, _letter_width(self.cfg.ax), _letter_width(self.cfg.ay)
        # A verbatim pair is [1][x letters][y letters]: each side's letters and their width.
        _, (body, w) = held_and_decoded(side, (cw.value >> n * wy, wx), (cw.value, wy))
        code = make_code(self.cfg)
        verbatim = cw.length > 0 and cw.value >> (cw.length - 1)
        length = 1 + (raw_pair_width(n, self.cfg.ax, self.cfg.ay) if verbatim else code.codeword_width)
        if cw.length != length:
            kind = "verbatim pair" if verbatim else "coded word"
            raise MalformedCodewordError(f"codeword of {cw.length} bits; a {kind} has {length}")
        if verbatim:
            mask = (1 << w) - 1
            return Sequence(tuple(body >> w * (n - 1 - i) & mask for i in range(n)), alphabet)
        return _ff_decode(self.cfg, code.unpack(cw.value), side_info, side)

    def expected_rate(self, p: SourceSpec) -> float:
        """(1/n) E[length], exact sum over joint types."""
        cols = _source_columns(self.cfg, p)
        code, raw = make_code(self.cfg), raw_pair_width(self.cfg.n, self.cfg.ax, self.cfg.ay)
        lengths = 1 + np.where(code.region_index >= 0, code.codeword_width, raw)  # `codeword_length` of each type
        return sum(np.multiply(cols.probability, lengths).tolist()) / self.cfg.n


def wrap_ff_as_fv(cfg: FFCodeConfig) -> WrappedFVCode:
    return WrappedFVCode(cfg)
