"""Fixed-to-variable complementary delivery codec: zero error, prefix-free.

Every joint type gets a coding table, so no rate parameter exists and no
pair is ever rejected.  A codeword is

    [type index: fixed width over all joint types][symbol: per-type width]

where the symbol width is determined by the joint type alone (ceil-log of
the larger shell size, zero when both shells are singletons).  The fixed
header makes the code a prefix set: a parser always knows the symbol
width after reading the header, so concatenated codewords frame uniquely.

Codeword length is therefore a function of the joint type only, which is
what the overflow/underflow analysis sums over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .types_core import (
    Alphabet,
    JointType,
    Sequence,
    enumerate_joint_types,
    joint_type_of,
    rank_in_type_class,
)
from .info_measures import SourceSpec, epsilon_n, prob_of_type_class
from .coding_table import decode_side, get_coding_table
from .ff_codec import (
    FFCodeConfig,
    bit_width,
    ff_decode_x,
    ff_decode_y,
    ff_encode,
    make_code,
    num_symbols_of,
    FFCodeword,
)


class MalformedCodewordError(ValueError):
    """Bit string too short or fields out of range."""


@dataclass(frozen=True)
class FVCodeword:
    bits: str

    def __post_init__(self):
        if set(self.bits) - {"0", "1"}:
            raise ValueError("codeword must be a string of 0/1")

    def __len__(self) -> int:
        return len(self.bits)


def _to_bits(value: int, width: int) -> str:
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b") if width else ""


@dataclass(frozen=True)
class FVCode:
    """Type enumeration and widths for one block length and alphabet pair."""

    n: int
    ax: Alphabet
    ay: Alphabet
    types: tuple[JointType, ...]
    index_of: dict
    header_width: int

    def symbol_width(self, jt: JointType) -> int:
        return bit_width(num_symbols_of(jt))

    def codeword_length(self, jt: JointType) -> int:
        return self.header_width + self.symbol_width(jt)


@lru_cache(maxsize=None)
def make_fv_code(n: int, ax: Alphabet = Alphabet(2), ay: Alphabet = Alphabet(2)) -> FVCode:
    types = enumerate_joint_types(n, ax, ay)
    return FVCode(
        n=n,
        ax=ax,
        ay=ay,
        types=types,
        index_of={jt: i for i, jt in enumerate(types)},
        header_width=bit_width(len(types)),
    )


def fv_encode(n: int, x: Sequence, y: Sequence) -> FVCodeword:
    if len(x) != n or len(y) != n:
        raise ValueError(f"sequences must have length n={n}")
    code = make_fv_code(n, x.alphabet, y.alphabet)
    jt = joint_type_of(x, y)
    header = _to_bits(code.index_of[jt], code.header_width)
    width = code.symbol_width(jt)
    if width == 0:
        return FVCodeword(header)
    table = get_coding_table(jt)
    symbol = table.symbol_at(rank_in_type_class(x), rank_in_type_class(y))
    return FVCodeword(header + _to_bits(symbol, width))


def _parse(code: FVCode, bits: str, offset: int) -> tuple[JointType, int, int]:
    """Parse one codeword starting at `offset`; returns (jt, symbol, end)."""
    end_header = offset + code.header_width
    if end_header > len(bits):
        raise MalformedCodewordError("truncated type header")
    idx = int(bits[offset:end_header], 2) if code.header_width else 0
    if idx >= len(code.types):
        raise MalformedCodewordError(f"type index {idx} out of range")
    jt = code.types[idx]
    width = code.symbol_width(jt)
    end = end_header + width
    if end > len(bits):
        raise MalformedCodewordError("truncated symbol field")
    symbol = int(bits[end_header:end], 2) if width else 0
    return jt, symbol, end


def _fv_decode_stream(
    n: int, bits: str, offset: int, side_info: Sequence, side: str, other: Alphabet | None
) -> tuple[Sequence, int]:
    held = side_info.alphabet
    ax, ay = (other or held, held) if side == "x" else (held, other or held)
    jt, symbol, end = _parse(make_fv_code(n, ax, ay), bits, offset)
    return decode_side(get_coding_table(jt), side_info, symbol, side), end


def fv_decode_x_stream(
    n: int, bits: str, offset: int, y: Sequence, ax: Alphabet | None = None
) -> tuple[Sequence, int]:
    """Decode one codeword from a concatenated stream; returns (x, next offset).

    The x-alphabet defaults to the side information's alphabet; pass `ax`
    when the two differ.
    """
    return _fv_decode_stream(n, bits, offset, y, "x", ax)


def fv_decode_y_stream(
    n: int, bits: str, offset: int, x: Sequence, ay: Alphabet | None = None
) -> tuple[Sequence, int]:
    """Decode one codeword from a concatenated stream; returns (y, next offset)."""
    return _fv_decode_stream(n, bits, offset, x, "y", ay)


def _fv_decode(decode_stream, cw: FVCodeword, side_info: Sequence) -> Sequence:
    out, end = decode_stream(len(side_info), cw.bits, 0, side_info)
    if end != len(cw.bits):
        raise MalformedCodewordError("trailing bits after codeword")
    return out


def fv_decode_x(cw: FVCodeword, y: Sequence) -> Sequence:
    """Exact reproduction of x from the codeword and side information y."""
    return _fv_decode(fv_decode_x_stream, cw, y)


def fv_decode_y(cw: FVCodeword, x: Sequence) -> Sequence:
    """Exact reproduction of y from the codeword and side information x."""
    return _fv_decode(fv_decode_y_stream, cw, x)


def expected_length(n: int, p: SourceSpec) -> float:
    """E[codeword length] in bits, exact sum over joint types."""
    code = make_fv_code(n, p.ax, p.ay)
    return sum(prob_of_type_class(jt, p) * code.codeword_length(jt) for jt in code.types)


def overflow_probability(n: int, rate: float, p: SourceSpec, threshold: float | None = None) -> float:
    """P(length > threshold), default threshold n(rate + epsilon_n)."""
    if threshold is None:
        threshold = n * (rate + epsilon_n(n, p.ax, p.ay))
    code = make_fv_code(n, p.ax, p.ay)
    return sum(
        prob_of_type_class(jt, p)
        for jt in code.types
        if code.codeword_length(jt) > threshold
    )


def underflow_probability(n: int, rate: float, p: SourceSpec, threshold: float | None = None) -> float:
    """P(length < threshold), default threshold n*rate."""
    if threshold is None:
        threshold = n * rate
    code = make_fv_code(n, p.ax, p.ay)
    return sum(
        prob_of_type_class(jt, p)
        for jt in code.types
        if code.codeword_length(jt) < threshold
    )


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
        code = make_code(self.cfg)
        cw = ff_encode(self.cfg, x, y)
        if not cw.error_flag:
            body = (
                "0"
                + _to_bits(cw.type_index, code.type_width)
                + _to_bits(cw.symbol, code.symbol_width)
            )
            return FVCodeword("0" + body)
        raw = "".join(_to_bits(c, _letter_width(self.cfg.ax)) for c in x.letters) + "".join(
            _to_bits(c, _letter_width(self.cfg.ay)) for c in y.letters
        )
        return FVCodeword("1" + raw)

    def codeword_length(self, jt: JointType) -> int:
        code = make_code(self.cfg)
        if jt in code.index_of:
            return 1 + code.codeword_width
        return 1 + raw_pair_width(self.cfg.n, self.cfg.ax, self.cfg.ay)

    def decode(self, cw: FVCodeword, side_info: Sequence, side: str) -> Sequence:
        """Reproduce the `side` sequence ("x" or "y") from cw and the other one."""
        bits = cw.bits
        if bits[0] == "1":
            wx = _letter_width(self.cfg.ax)
            if side == "x":
                start, w, alphabet = 1, wx, self.cfg.ax
            else:
                start, w, alphabet = 1 + self.cfg.n * wx, _letter_width(self.cfg.ay), self.cfg.ay
            letters = tuple(
                int(bits[start + i * w:start + (i + 1) * w], 2) for i in range(self.cfg.n)
            )
            return Sequence(letters, alphabet)
        code = make_code(self.cfg)
        idx_end = 2 + code.type_width
        idx = int(bits[2:idx_end], 2) if code.type_width else 0
        symbol = int(bits[idx_end:], 2) if code.symbol_width else 0
        decode = ff_decode_x if side == "x" else ff_decode_y
        return decode(self.cfg, FFCodeword(idx, symbol, bits[1] == "1"), side_info)

    def expected_rate(self, p: SourceSpec) -> float:
        """(1/n) E[length], exact sum over joint types."""
        total = sum(
            prob_of_type_class(jt, p) * self.codeword_length(jt)
            for jt in enumerate_joint_types(self.cfg.n, self.cfg.ax, self.cfg.ay)
        )
        return total / self.cfg.n


def wrap_ff_as_fv(cfg: FFCodeConfig) -> WrappedFVCode:
    return WrappedFVCode(cfg)
