"""Fixed-to-fixed complementary delivery codec.

One codeword serves both decoders: the first part indexes the joint type
of the pair within the decodable region for the configured rate, the
second part is the coding-table symbol of the cell.  Pairs whose joint
type falls outside the region get a reserved all-zero codeword with an
explicit error flag; both per-decoder error probabilities are charged on
that event, which makes the accounting exact and testable.

Binary layout (most significant bit first):
    [1 flag bit][type_index: type_width bits][symbol: symbol_width bits]
with widths fixed per configuration, as a fixed-length code requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .types_core import (
    Alphabet,
    JointType,
    Sequence,
    joint_type_of,
    rank_in_type_class,
    enumerate_joint_types,
    v_shell_size,
    w_shell_size,
)
from .info_measures import SourceSpec, in_decodable_region, prob_of_type_class
from .coding_table import decode_side, get_coding_table
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
