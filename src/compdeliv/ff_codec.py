"""Fixed-to-fixed complementary delivery codec.

One codeword serves both decoders: the first part indexes the joint type
of the pair within the decodable region for the configured rate, the
second part is the coding-table symbol of the cell.  Pairs whose joint
type falls outside the region get a reserved all-zero codeword with an
explicit error flag; both per-decoder error probabilities are charged on
that event, which makes the accounting exact and testable.

Binary layout (most significant bit first), written by `FFCode.pack` and
read by `FFCode.unpack`, the only code that places these fields:
    [1 flag bit][type_index: type_width bits][symbol: symbol_width bits]
with widths fixed per configuration, as a fixed-length code requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .types_core import (
    Alphabet,
    JointType,
    Sequence,
    _letter_dtype,
    class_ranks,
    group_rows,
    joint_type_groups,
    joint_type_of,
    rank_in_type_class,
    enumerate_joint_types,
    v_shell_size,
    w_shell_size,
)
from .info_measures import SourceSpec, in_decodable_region, prob_of_type_class
from .coding_table import decode_side, decode_side_rows, get_coding_table
from .coding_table import SideInfoMismatchError  # noqa: F401  (re-exported)


class CodewordRangeError(ValueError):
    """Codeword fields outside the configured widths."""


@dataclass(frozen=True)
class FFCodeConfig:
    n: int
    rate: float
    ax: Alphabet = Alphabet(2)
    ay: Alphabet = Alphabet(2)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")


@dataclass(frozen=True)
class FFCodeword:
    type_index: int
    symbol: int
    error_flag: bool


def bit_width(count: int) -> int:
    """Bits needed to address `count` distinct values (0 for count <= 1)."""
    return (count - 1).bit_length() if count > 1 else 0


@lru_cache(maxsize=None)
def num_symbols_of(jt: JointType) -> int:
    """Symbols a table for jt uses: its maximum degree, in closed form."""
    return max(v_shell_size(jt), w_shell_size(jt))


@dataclass(frozen=True)
class FFCode:
    """Precomputed region enumeration and field widths for one configuration."""

    cfg: FFCodeConfig
    region: tuple[JointType, ...]
    index_of: dict
    type_width: int
    symbol_width: int

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


@lru_cache(maxsize=None)
def make_code(cfg: FFCodeConfig) -> FFCode:
    region = tuple(
        jt
        for jt in enumerate_joint_types(cfg.n, cfg.ax, cfg.ay)
        if in_decodable_region(jt, cfg.rate)
    )
    index_of = {jt: i for i, jt in enumerate(region)}
    max_symbols = max((num_symbols_of(jt) for jt in region), default=1)
    return FFCode(
        cfg=cfg,
        region=region,
        index_of=index_of,
        type_width=bit_width(len(region)),
        symbol_width=bit_width(max_symbols),
    )


def ff_encode(cfg: FFCodeConfig, x: Sequence, y: Sequence) -> FFCodeword:
    """Encode a pair; declares (but does not raise) an encoding error
    when the pair's joint type is outside the decodable region."""
    if len(x) != cfg.n or len(y) != cfg.n:
        raise ValueError(f"sequences must have length n={cfg.n}")
    code = make_code(cfg)
    jt = joint_type_of(x, y)
    idx = code.index_of.get(jt)
    if idx is None:
        return FFCodeword(0, 0, True)
    table = get_coding_table(jt)
    symbol = table.symbol_at(rank_in_type_class(x), rank_in_type_class(y))
    return FFCodeword(idx, symbol, False)


def _ff_decode(cfg: FFCodeConfig, cw: FFCodeword, side_info: Sequence, side: str) -> Sequence:
    if len(side_info) != cfg.n:
        raise ValueError(f"side information must have length n={cfg.n}")
    code = make_code(cfg)
    if cw.error_flag:
        # Total-decoder fallback for flagged codewords: the lexicographically
        # first sequence (row/column 0 of the constant-letter coupling).
        return Sequence((0,) * cfg.n, cfg.ax if side == "x" else cfg.ay)
    if not 0 <= cw.type_index < len(code.region):
        raise CodewordRangeError(f"type index {cw.type_index} out of range")
    table = get_coding_table(code.region[cw.type_index])
    return decode_side(table, side_info, cw.symbol, side)


def ff_decode_x(cfg: FFCodeConfig, cw: FFCodeword, y: Sequence) -> Sequence:
    """Reproduce x from the codeword and side information y."""
    return _ff_decode(cfg, cw, y, "x")


def ff_decode_y(cfg: FFCodeConfig, cw: FFCodeword, x: Sequence) -> Sequence:
    """Reproduce y from the codeword and side information x."""
    return _ff_decode(cfg, cw, x, "y")


# A batch of FF codewords: (error flags, type indices, symbols), one per row.
FFWords = tuple[np.ndarray, np.ndarray, np.ndarray]


def ff_encode_batch(cfg: FFCodeConfig, x: np.ndarray, y: np.ndarray) -> FFWords:
    """`ff_encode` of every row pair of two (m, n) letter arrays.

    Returns the codewords as three arrays (error flags, type indices,
    symbols); a flagged row has index and symbol 0, as `ff_encode` gives.
    Rows are grouped by joint type, so each table is searched once.
    """
    x, y = _as_blocks(cfg, x, cfg.ax, "x"), _as_blocks(cfg, y, cfg.ay, "y")
    code = make_code(cfg)
    # Tables first: a build checks its budget before it materializes the
    # type classes that the ranks below then search.
    tables, live = [], np.zeros(len(x), bool)
    for jt, rows in joint_type_groups(x, y, cfg.ax.size, cfg.ay.size):
        if jt in code.index_of:
            tables.append((code.index_of[jt], get_coding_table(jt), rows))
            live[rows] = True
    x_ranks, y_ranks = np.zeros(len(x), np.int64), np.zeros(len(x), np.int64)
    x_ranks[live] = class_ranks(x[live], cfg.ax.size)
    y_ranks[live] = class_ranks(y[live], cfg.ay.size)
    type_index, symbols = np.zeros(len(x), np.int64), np.zeros(len(x), np.int64)
    for idx, table, rows in tables:
        symbols[rows] = table.symbols_at(x_ranks[rows], y_ranks[rows])
        type_index[rows] = idx
    return ~live, type_index, symbols


def ff_decode_batch(cfg: FFCodeConfig, words: FFWords, side_info: np.ndarray, side: str) -> np.ndarray:
    """`ff_decode_x` (side "x") or `ff_decode_y` (side "y") of every row.

    `words` is what `ff_encode_batch` returns; row i of `side_info` is the
    side information of codeword i.  Flagged rows decode to all zeros, as
    in the scalar path.
    """
    flags, type_index, symbols = np.asarray(words[0], bool), np.asarray(words[1]), np.asarray(words[2])
    held, reproduced = (cfg.ay, cfg.ax) if side == "x" else (cfg.ax, cfg.ay)
    side_info = _as_blocks(cfg, side_info, held, "side information")
    code = make_code(cfg)
    out = np.zeros(side_info.shape, _letter_dtype(reproduced.size))
    live = np.flatnonzero(~flags)
    bad = (type_index[live] < 0) | (type_index[live] >= len(code.region))
    if bad.any():
        raise CodewordRangeError(f"type index {type_index[live[np.argmax(bad)]]} out of range")
    for (idx,), rows in group_rows(type_index[live, None]):
        rows = live[rows]
        table = get_coding_table(code.region[idx])
        out[rows] = decode_side_rows(table, side_info[rows], symbols[rows], side)
    return out


def _as_blocks(cfg: FFCodeConfig, letters: np.ndarray, alphabet: Alphabet, what: str) -> np.ndarray:
    """`letters` checked as (m, n) blocks over `alphabet`, in its array letter type."""
    letters = np.asarray(letters)
    if letters.ndim != 2 or letters.shape[1] != cfg.n:
        raise ValueError(f"{what} must be an (m, {cfg.n}) letter array")
    if letters.size and not (0 <= letters.min() and letters.max() < alphabet.size):
        raise ValueError(f"{what} has a letter outside the alphabet of size {alphabet.size}")
    return letters.astype(_letter_dtype(alphabet.size), copy=False)


def codebook_size(cfg: FFCodeConfig) -> int:
    """Exact M_n: per-type symbol counts over the region, plus the error word."""
    code = make_code(cfg)
    return sum(num_symbols_of(jt) for jt in code.region) + 1


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

    @property
    def correct(self) -> float:
        """Probability that both decoders reproduce exactly (no escape)."""
        return 1.0 - self.e_x


def exact_error_probability(cfg: FFCodeConfig, p: SourceSpec) -> ErrorProbability:
    """Both decoders fail exactly on region escape, so e_x = e_y = P(escape)."""
    code = make_code(cfg)
    in_region = set(code.region)
    escape = sum(
        prob_of_type_class(jt, p)
        for jt in enumerate_joint_types(cfg.n, cfg.ax, cfg.ay)
        if jt not in in_region
    )
    return ErrorProbability(e_x=escape, e_y=escape)
