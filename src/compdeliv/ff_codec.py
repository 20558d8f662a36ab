"""Fixed-to-fixed complementary delivery codec.

One codeword serves both decoders: the first part indexes the joint type
of the pair within the decodable region for the configured rate, the
second part is the symbol of the cell, which `coding_table.encode_pair`
(one block) and `SlotBook.encode` (a batch) give.  Pairs whose joint
type falls outside the region get a reserved all-zero codeword with an
explicit error flag; both per-decoder error probabilities are charged on
that event, which makes the accounting exact and testable.

Binary layout (most significant bit first), written by `FFCode.pack` and
read by `FFCode.unpack`, and for whole payloads by their array twins
`FFCode.pack_words` and `FFCode.read_words`, the only code that places
these fields:
    [1 flag bit][type_index: type_width bits][symbol: symbol_width bits]
with widths fixed per configuration, as a fixed-length code requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .types_core import BINARY, Alphabet, RowError, Sequence, TypesAt, _as_blocks, _lex_maps, _read_only
from .types_core import interned, joint_type_index, joint_type_of, num_symbols_column
from .bitio import TruncatedStreamError, pack_fields, read_fields
from .info_measures import RATE_TIE_TOL, SourceSpec, TypeColumns, max_entropy_column, type_columns
from .coding_table import SideInfoMismatchError, decode_side, encode_pair, held_and_decoded, slot_book


class CodewordRangeError(RowError):
    """Codeword fields outside the configured widths."""


@interned
class FFCodeConfig:
    """Block length, rate and alphabets of an FF code (`types_core.interned`)."""

    n: int
    rate: float
    ax: Alphabet = BINARY
    ay: Alphabet = BINARY

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        check_rate(self.rate)


def check_rate(rate: float, name: str = "rate") -> None:
    """Raise ValueError, naming the rate `name`, unless it is finite and positive."""
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"{name} is {rate}; it must be finite and positive")


@dataclass(frozen=True, slots=True)
class FFCodeword:
    """`type_index` holds the pair's region index (a position in `FFCode.region_types`), not its type index."""

    type_index: int
    symbol: int
    error_flag: bool


def bit_width(count: int) -> int:
    """Bits needed to address `count` distinct values (0 for count <= 1)."""
    return (count - 1).bit_length() if count > 1 else 0


@dataclass(frozen=True, eq=False)
class FFCode:
    """The region and field widths of one configuration."""

    cfg: FFCodeConfig
    region_types: np.ndarray  # by region index: the type index (`JointType.index`); read-only
    region_index: np.ndarray  # by type index: index in the region, or -1; read-only
    region_of: list[int]  # `region_index` as a list, for one-block lookups
    type_width: int
    symbol_width: int

    def __post_init__(self):  # `region`: the joint type of each region index a scalar decode reads, built at that read
        object.__setattr__(self, "region", TypesAt(self.cfg.n, self.cfg.ax.size, self.cfg.ay.size, self.region_types))

    @property
    def codeword_width(self) -> int:
        return 1 + self.type_width + self.symbol_width

    def pack(self, cw: FFCodeword) -> int:
        """The `codeword_width`-bit word [flag|type index|symbol] of `cw`."""
        if not (0 <= cw.type_index < 1 << self.type_width and 0 <= cw.symbol < 1 << self.symbol_width):
            raise CodewordRangeError(f"codeword {cw} does not fit the field widths")
        return ((cw.error_flag << self.type_width | cw.type_index) << self.symbol_width) | cw.symbol

    def unpack(self, word: int) -> FFCodeword:
        """The codeword that `pack` wrote as `word`."""
        if not 0 <= word < 1 << self.codeword_width:
            raise CodewordRangeError(f"word {word} wider than {self.codeword_width} bits")
        type_index = word >> self.symbol_width
        return FFCodeword(
            type_index & ((1 << self.type_width) - 1),
            word & ((1 << self.symbol_width) - 1),
            bool(type_index >> self.type_width),
        )

    @property
    def _field_widths(self) -> tuple[int, int, int]:
        return 1, self.type_width, self.symbol_width

    def pack_words(self, words: FFWords) -> bytes:
        """The `pack` words of a batch (as `ff_encode_batch` returns it),
        back to back and zero-padded to a whole byte."""
        fields = np.stack([np.asarray(part, np.int64) for part in words], axis=1)
        return pack_fields(fields, np.broadcast_to(self._field_widths, fields.shape))

    def read_words(self, payload: bytes, count: int) -> tuple[FFWords, int, TruncatedStreamError | None]:
        """The first `count` words `pack_words` wrote to `payload`.

        Returns (words, bits read, None), or, when the payload ends inside
        word i, the i whole words before it, their bits and the
        TruncatedStreamError of word i.  A field wider than 63 bits whose
        value does not fit in them reads as -1 (see `read_fields`).
        """
        whole = min(count, 8 * len(payload) // self.codeword_width)
        offsets = np.cumsum((0,) + self._field_widths[:-1])
        starts = np.arange(whole)[:, None] * self.codeword_width + offsets
        fields = read_fields(payload, starts, np.broadcast_to(self._field_widths, starts.shape))
        fields = fields.reshape(whole, 3)
        error = None
        if whole < count:
            error = TruncatedStreamError("the payload ends inside this codeword", whole)
        return (fields[:, 0] == 1, fields[:, 1], fields[:, 2]), whole * self.codeword_width, error


@lru_cache(maxsize=None)
def make_code(cfg: FFCodeConfig) -> FFCode:
    """The code of cfg, read from the source-free type columns: no joint type is built."""
    inside = max_entropy_column(cfg.n, cfg.ax.size, cfg.ay.size) <= cfg.rate + RATE_TIE_TOL
    types = _read_only(np.flatnonzero(inside))
    region_index = _read_only(np.where(inside, np.cumsum(inside) - 1, -1))
    max_symbols = max(num_symbols_column(cfg.n, cfg.ax.size, cfg.ay.size)[types].tolist(), default=1)
    return FFCode(cfg, types, region_index, region_index.tolist(), bit_width(len(types)), bit_width(max_symbols))


def ff_encode(cfg: FFCodeConfig, x: Sequence, y: Sequence) -> FFCodeword:
    """Encode a pair; declares (but does not raise) an encoding error
    when the pair's joint type is outside the decodable region.  A pair of
    another length or over other alphabets than the code's is refused
    (ValueError), as `ff_encode_batch` refuses letters outside them."""
    if len(x.letters) != cfg.n or len(y.letters) != cfg.n:
        raise ValueError(f"sequences must have length n={cfg.n}")
    if x.alphabet.size != cfg.ax.size or y.alphabet.size != cfg.ay.size:
        raise ValueError(
            f"sequences over {x.alphabet.size} x {y.alphabet.size} letters; "
            f"the code is over {cfg.ax.size} x {cfg.ay.size}"
        )
    jt = joint_type_of(x, y)
    idx = make_code(cfg).region_of[jt.index]
    if idx < 0:
        return FFCodeword(0, 0, True)
    return FFCodeword(idx, encode_pair(jt, x, y), False)


def _check_side_info(cfg: FFCodeConfig, side_info: Sequence, side: str) -> Alphabet:
    """The alphabet a decode of `side` reproduces, once side_info passes every decoder's checks."""
    if len(side_info.letters) != cfg.n:
        raise ValueError(f"side information must have length n={cfg.n}")
    held, reproduced = held_and_decoded(side, cfg.ax, cfg.ay)
    if side_info.alphabet is not held:  # flagged or not, as the batch path refuses it
        raise SideInfoMismatchError("side information type does not match codeword")
    return reproduced


def _ff_decode(cfg: FFCodeConfig, cw: FFCodeword, side_info: Sequence, side: str) -> Sequence:
    reproduced = _check_side_info(cfg, side_info, side)
    code = make_code(cfg)
    if cw.error_flag:
        # Total-decoder fallback for flagged codewords: the lexicographically
        # first sequence (row/column 0 of the constant-letter coupling).
        return _lex_maps((cfg.n,) + (0,) * (reproduced.size - 1))[1][0]
    if not 0 <= cw.type_index < len(code.region_types):
        raise CodewordRangeError(f"type index {cw.type_index} out of range")
    return decode_side(code.region[cw.type_index], side_info, cw.symbol, side)


def ff_decode_x(cfg: FFCodeConfig, cw: FFCodeword, y: Sequence) -> Sequence:
    """Reproduce x from the codeword and side information y."""
    return _ff_decode(cfg, cw, y, "x")


def ff_decode_y(cfg: FFCodeConfig, cw: FFCodeword, x: Sequence) -> Sequence:
    """Reproduce y from the codeword and side information x."""
    return _ff_decode(cfg, cw, x, "y")


# A batch of FF codewords: (error flags, type indices, symbols), one per row.
FFWords = tuple[np.ndarray, np.ndarray, np.ndarray]


def ff_encode_batch(cfg: FFCodeConfig, x: np.ndarray, y: np.ndarray, type_index=None) -> FFWords:
    """`ff_encode` of every row pair of two (m, n) letter arrays.

    Returns the codewords as three arrays (error flags, type indices,
    symbols); a flagged row has index and symbol 0, as `ff_encode` gives.
    `type_index` is `joint_type_index` of the rows when the caller has
    it: one per row, each a type index or -1, which flags the row
    (ValueError otherwise, before any row is coded).
    """
    x, y = _as_blocks(cfg.n, x, cfg.ax.size, "x"), _as_blocks(cfg.n, y, cfg.ay.size, "y", len(x))
    code = make_code(cfg)
    if type_index is None:
        type_index = joint_type_index(x, y, cfg.ax.size, cfg.ay.size)
    type_index, count = np.asarray(type_index), len(code.region_index)
    if type_index.shape != (len(x),) or not ((-1 <= type_index) & (type_index < count)).all():
        raise ValueError(f"type_index of shape {type_index.shape} for {len(x)} rows: one index in -1..{count - 1} per row")
    region = np.where(type_index < 0, -1, code.region_index[type_index])
    symbols = slot_book(cfg.n, cfg.ax, cfg.ay).encode(x, y, np.where(region < 0, -1, type_index))
    return region < 0, np.maximum(region, 0), symbols


def ff_decode_batch(cfg: FFCodeConfig, words: FFWords, side_info: np.ndarray, side: str) -> np.ndarray:
    """`ff_decode_x` (side "x") or `ff_decode_y` (side "y") of every row.

    `words` is what `ff_encode_batch` returns; row i of `side_info` is the
    side information of codeword i.  Flagged rows decode to all zeros, as
    in the scalar path; the others decode through `SlotBook.decode`, their
    region indices read as type indices.  A failure raises what the scalar
    path raises for the first failing row, with that row as its `row`.
    """
    flags = np.asarray(words[0], bool)
    if len(flags) != len(side_info):
        raise ValueError(f"side information has {len(side_info)} rows, not {len(flags)}")
    book = slot_book(cfg.n, cfg.ax, cfg.ay)
    return book.decode(make_code(cfg).region_types, *words[1:], side_info, side, np.flatnonzero(~flags), CodewordRangeError)


def codebook_size(cfg: FFCodeConfig) -> int:
    """Exact M_n: per-type symbol counts over the region, plus the error word."""
    return sum(num_symbols_column(cfg.n, cfg.ax.size, cfg.ay.size)[make_code(cfg).region_types].tolist()) + 1


def rate_bound_check(cfg: FFCodeConfig) -> bool:
    """(1/n) log2 M_n <= rate + (|X||Y|/n) log2(n+1), M_n exact."""
    m_n = codebook_size(cfg)
    cells = cfg.ax.size * cfg.ay.size
    bound = cfg.rate + cells / cfg.n * math.log2(cfg.n + 1)
    return math.log2(m_n) / cfg.n <= bound + 1e-12


@dataclass(frozen=True)
class ErrorProbability:
    e_x: float
    e_y: float

    @property
    def e_sum(self) -> float:
        return self.e_x + self.e_y


def exact_error_probability(cfg: FFCodeConfig, p: SourceSpec) -> ErrorProbability:
    """Both decoders fail exactly on region escape, so e_x = e_y = P(escape)."""
    cols = _source_columns(cfg, p)
    escape = float(sum(cols.probability[make_code(cfg).region_index < 0].tolist()))  # the code's escape set, type after type
    return ErrorProbability(e_x=escape, e_y=escape)


def _source_columns(cfg: FFCodeConfig, p: SourceSpec) -> TypeColumns:
    """`type_columns` of the source p at cfg's block length; ValueError
    unless p is over cfg's alphabets."""
    if (p.num_x, p.num_y) != (cfg.ax.size, cfg.ay.size):
        raise ValueError(f"source over {p.num_x} x {p.num_y} letters; the code is over {cfg.ax.size} x {cfg.ay.size}")
    return type_columns(cfg.n, p)
