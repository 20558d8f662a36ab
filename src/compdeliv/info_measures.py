"""Entropies, divergences, the achievable-rate region and exponent scans.

All logarithms are base 2 and all quantities are in bits.  Exponent
minimizations are exhaustive over the finite set of joint types at the
given block length; there is no continuous optimization.  Infinite
divergence is represented by math.inf, never by a large float, and a
bound over an empty scan is 2^(-inf) = 0.0, as float arithmetic gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .types_core import Alphabet, JointType, interned, joint_type_counts, joint_types_at, multinomial
from .types_core import _by_distinct_row, _is_rectangular, _read_only

# Ties against the rate threshold count as inside the decodable region
# (the region is defined with "<=").
RATE_TIE_TOL = 1e-12


@interned
class SourceSpec:
    """Generic joint distribution of a discrete memoryless source pair (`types_core.interned`)."""

    p_xy: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not _is_rectangular(self.p_xy):
            raise ValueError("probabilities must be a nonempty rectangular matrix")
        if not all(math.isfinite(p) for row in self.p_xy for p in row):
            raise ValueError("probabilities must be finite")
        total = sum(sum(row) for row in self.p_xy)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for row in self.p_xy for p in row):
            raise ValueError("negative probability")
        object.__setattr__(self, "ax", Alphabet(self.num_x))  # plain attributes: read at field speed
        object.__setattr__(self, "ay", Alphabet(self.num_y))

    @property
    def num_x(self) -> int:
        return len(self.p_xy)

    @property
    def num_y(self) -> int:
        return len(self.p_xy[0])

    def x_marginal(self) -> tuple[float, ...]:
        return tuple(sum(row) for row in self.p_xy)

    def y_marginal(self) -> tuple[float, ...]:
        return tuple(sum(row[b] for row in self.p_xy) for b in range(self.num_y))

    def flat(self) -> tuple[float, ...]:
        return tuple(p for row in self.p_xy for p in row)


def dsbs(crossover: float) -> SourceSpec:
    """Doubly symmetric binary source: uniform X, Y = X flipped w.p. `crossover`."""
    q = crossover / 2
    return SourceSpec(((0.5 - q, q), (q, 0.5 - q)))


def uniform_independent() -> SourceSpec:
    return SourceSpec(((0.25, 0.25), (0.25, 0.25)))


def entropy(q) -> float:
    """Shannon entropy in bits with the 0*log0 = 0 convention."""
    return -sum(p * math.log2(p) for p in q if p > 0)


def _joint_probs(arg):
    """The probability matrix of a joint type or a source; anything else as given."""
    if isinstance(arg, JointType):
        return arg.empirical()
    if isinstance(arg, SourceSpec):
        return arg.p_xy
    return arg


def conditional_entropy(joint, direction: str = "y|x") -> float:
    """H(Y|X) ('y|x') or H(X|Y) ('x|y') of a joint type or distribution."""
    probs = _joint_probs(joint)
    if direction == "x|y":
        ky = len(probs[0])
        probs = tuple(tuple(row[b] for row in probs) for b in range(ky))
    elif direction != "y|x":
        raise ValueError(f"unknown direction {direction!r}")
    h = 0.0
    for row in probs:
        mass = sum(row)
        if mass > 0:
            h += mass * entropy(tuple(p / mass for p in row))
    return h


def max_conditional_entropy(joint) -> float:
    """max{H(V|Q_X), H(W|Q_Y)} — the quantity compared against the rate."""
    return max(conditional_entropy(joint, "y|x"), conditional_entropy(joint, "x|y"))


def kl_divergence(q, p) -> float:
    """D(q || p) in bits; +inf when q puts mass outside p's support."""
    qf, pf = (np.ravel(_joint_probs(arg)).tolist() for arg in (q, p))
    if len(qf) != len(pf):
        raise ValueError("dimension mismatch")
    d = 0.0
    for qi, pi in zip(qf, pf):
        if qi == 0:
            continue
        if pi == 0:
            return math.inf
        d += qi * math.log2(qi / pi)
    return d


def achievable_rate(p: SourceSpec) -> float:
    """Infimum achievable rate, fixed- and variable-length alike."""
    return max_conditional_entropy(p)


def in_decodable_region(jt: JointType, rate: float) -> bool:
    """True iff both conditional entropies of jt lie at or below `rate`."""
    return max_conditional_entropy(jt) <= rate + RATE_TIE_TOL


def epsilon_n(n: int, ax: Alphabet, ay: Alphabet) -> float:
    """Per-symbol slack (|X||Y| log(n+1) + 1)/n; vanishes as n grows."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (ax.size * ay.size * math.log2(n + 1) + 1) / n


def prob_of_type_class(jt: JointType, p: SourceSpec) -> float:
    """P_XY(T_jt): point probability times the exact class cardinality; 0.0 off support."""
    lp = 0.0  # log2 P(x, y) of one pair of type jt, summed row-major
    for row, probs in zip(jt.counts, p.p_xy, strict=True):
        for c, q in zip(row, probs, strict=True):
            if c:
                if q == 0:
                    return 0.0
                lp += c * math.log2(q)
    return 2.0 ** (math.log2(multinomial(jt.flat_counts())) + lp)


@lru_cache(maxsize=16)
def max_entropy_column(n: int, kx: int, ky: int) -> np.ndarray:
    """`max_conditional_entropy` of each type of `joint_type_counts(n, kx, ky)`, read-only: the
    scalar `conditional_entropy` of each row alone, a type's rows added in turn from 0.0."""
    counts = joint_type_counts(n, kx, ky).reshape(-1, kx, ky)
    term = lambda row: conditional_entropy([[c / n for c in row]])
    h = [sum(_by_distinct_row(rows, term).T, np.zeros(len(counts))) for rows in (counts, counts.transpose(0, 2, 1))]
    return _read_only(np.maximum(*h))  # H(Y|X) by x rows, H(X|Y) by y columns


@dataclass(frozen=True)
class TypeColumns:
    """Per joint type of block length n over a source's alphabets, in enumeration
    order: counts (`joint_type_counts`) and, as read-only float64 arrays, max
    conditional entropy, probability of the type class and divergence from the source."""

    counts: np.ndarray
    max_entropy: np.ndarray
    probability: np.ndarray
    divergence: np.ndarray


@lru_cache(maxsize=64)
def type_columns(n: int, p: SourceSpec) -> TypeColumns:
    """The `TypeColumns` of (n, p), worked out once: a sweep reads them at
    every rate, for the error sum, the exponents and the overflow sum.

    Array arithmetic over `joint_type_counts` with the scalar functions' bits:
    each log2 is `math.log2` of a distinct argument, gathered (numpy's differs
    in the last bit), of the exact multinomial too; terms add in the scalar
    order, a zero count adds nothing; the final power is Python's `2.0 ** x`.
    """
    counts = joint_type_counts(n, p.num_x, p.num_y)
    lp, d, off = np.zeros(len(counts)), np.zeros(len(counts)), np.zeros(len(counts), bool)
    for c, q in zip(counts.T, p.flat()):  # cell after cell, row-major
        if q == 0:
            off |= c > 0  # mass outside the source's support
            continue
        np.add(lp, c * math.log2(q), out=lp, where=c > 0)
        terms = [0.0] + [k / n * math.log2(k / n / q) for k in range(1, n + 1)]
        np.add(d, np.take(terms, c), out=d, where=c > 0)
    lm = _by_distinct_row(np.sort(counts, axis=1), lambda row: math.log2(multinomial(row)))
    probability = [0.0 if o else 2.0 ** x for x, o in zip((lm + lp).tolist(), off.tolist())]
    d[off] = math.inf
    columns = max_entropy_column(n, p.num_x, p.num_y), np.array(probability), d
    return TypeColumns(counts, *(_read_only(column) for column in columns))


@dataclass(frozen=True)
class ExponentReport:
    """Result of an exhaustive exponent scan at one (rate, n) point."""

    rate: float
    n: int
    value: float
    argmin_type: JointType | None


def _first_min(rate: float, p: SourceSpec, n: int, objective: np.ndarray) -> ExponentReport:
    """The least of `objective`, one value per joint type of (n, p), and the
    first type in enumeration order that takes it (None when it is inf)."""
    i = int(objective.argmin())
    best = float(objective[i])
    return ExponentReport(rate, n, best, joint_types_at([i], n, p.num_x, p.num_y)[0] if best < math.inf else None)


def _min_divergence(rate: float, p: SourceSpec, n: int, inside: bool) -> ExponentReport:
    """min D(Q||P) over the joint types inside (or outside) the decodable
    region; the first minimizer in enumeration order."""
    cols = type_columns(n, p)
    kept = (cols.max_entropy <= rate + RATE_TIE_TOL) == inside
    return _first_min(rate, p, n, np.where(kept, cols.divergence, math.inf))


def error_exponent_outside(rate: float, p: SourceSpec, n: int) -> ExponentReport:
    """min D(Q||P) over joint types outside the decodable region; +inf if empty."""
    return _min_divergence(rate, p, n, inside=False)


def correct_exponent_inside(rate: float, p: SourceSpec, n: int) -> ExponentReport:
    """min D(Q||P) over joint types inside the decodable region."""
    return _min_divergence(rate, p, n, inside=True)


def converse_correct_exponent(rate: float, p: SourceSpec, n: int) -> ExponentReport:
    """min over all joint types of |maxH - (rate + epsilon_n)|+ + D(Q||P).

    The converse bounds carry an unspecified vanishing sequence, pinned
    here to epsilon_n.
    """
    slack = epsilon_n(n, p.ax, p.ay)
    cols = type_columns(n, p)
    return _first_min(rate, p, n, np.maximum(cols.max_entropy - (rate + slack), 0.0) + cols.divergence)


def error_sum_upper_bound(rate: float, p: SourceSpec, n: int, exponent: float | None = None) -> float:
    """Direct bound on e_x + e_y: 2 (n+1)^|XY| 2^(-n minD outside).

    `exponent` is `error_exponent_outside(rate, p, n).value` when the
    caller has it already.  Past float range, 2 (n+1)^|XY| gives inf, or
    0.0 when 2^(-n minD) is 0.0 (no type outside the region).
    """
    if exponent is None:
        exponent = error_exponent_outside(rate, p, n).value
    factor = 2.0 ** (-n * exponent)
    try:
        return 2 * (n + 1) ** (p.num_x * p.num_y) * factor
    except OverflowError:  # int too large to convert to float
        return math.inf if factor else 0.0


def error_sum_lower_bound(rate: float, p: SourceSpec, n: int) -> float:
    """Converse bound: (1/2) (n+1)^-|XY| 2^(-n minD outside at rate+eps_n)."""
    cells = p.num_x * p.num_y
    eps = epsilon_n(n, p.ax, p.ay)
    mind = error_exponent_outside(rate + eps, p, n).value
    return 0.5 * (n + 1) ** (-cells) * 2.0 ** (-n * mind)


def correct_decoding_lower_bound(rate: float, p: SourceSpec, n: int) -> float:
    """Direct bound on the correct-decoding probability: 2^(-n(eps_n + minD inside))."""
    eps = epsilon_n(n, p.ax, p.ay)
    mind = correct_exponent_inside(rate, p, n).value
    return 2.0 ** (-n * (eps + mind))


def correct_decoding_upper_bound(rate: float, p: SourceSpec, n: int) -> float:
    """Converse bound: 2^(-n(-eps_n + min clipped-gap-plus-divergence))."""
    eps = epsilon_n(n, p.ax, p.ay)
    obj = converse_correct_exponent(rate, p, n).value
    return 2.0 ** (-n * (-eps + obj))


def overflow_upper_bound(rate: float, p: SourceSpec, n: int) -> float:
    """Direct bound on the overflow probability, (n+1)^|XY| 2^(-n minD outside): half the error sum's."""
    return error_sum_upper_bound(rate, p, n) / 2


def overflow_lower_bound(rate: float, p: SourceSpec, n: int) -> float:
    """Converse bound, (n+1)^-|XY| 2^(-n minD outside at rate+eps_n): twice the error sum's."""
    return 2 * error_sum_lower_bound(rate, p, n)


def underflow_upper_bound(rate: float, p: SourceSpec, n: int) -> float:
    """Direct bound on P(length < nR): the correct-decoding bound at rate - eps_n."""
    return correct_decoding_lower_bound(rate - epsilon_n(n, p.ax, p.ay), p, n)
