"""Entropies, divergences, the achievable-rate region and exponent scans.

All logarithms are base 2 and all quantities are in bits.  Exponent
minimizations are exhaustive over the finite set of joint types at the
given block length; there is no continuous optimization.  Infinite
divergence is represented by math.inf, never by a large float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .types_core import Alphabet, JointType, enumerate_joint_types, multinomial

# Ties against the rate threshold count as inside the decodable region
# (the region is defined with "<=").
RATE_TIE_TOL = 1e-12


def _exp2(x: float) -> float:
    return 2.0 ** x


@dataclass(frozen=True)
class SourceSpec:
    """Generic joint distribution of a discrete memoryless source pair."""

    p_xy: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        total = sum(sum(row) for row in self.p_xy)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for row in self.p_xy for p in row):
            raise ValueError("negative probability")

    @property
    def num_x(self) -> int:
        return len(self.p_xy)

    @property
    def num_y(self) -> int:
        return len(self.p_xy[0])

    @property
    def ax(self) -> Alphabet:
        return Alphabet(self.num_x)

    @property
    def ay(self) -> Alphabet:
        return Alphabet(self.num_y)

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


def _joint_probs(arg) -> tuple[tuple[float, ...], ...]:
    if isinstance(arg, JointType):
        return arg.empirical()
    if isinstance(arg, SourceSpec):
        return arg.p_xy
    return tuple(tuple(row) for row in arg)


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
    qf = [v for row in _joint_probs(q) for v in row] if not _is_flat(q) else list(q)
    pf = [v for row in _joint_probs(p) for v in row] if not _is_flat(p) else list(p)
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


def _is_flat(arg) -> bool:
    return not isinstance(arg, (JointType, SourceSpec)) and all(
        not hasattr(v, "__len__") for v in arg
    )


def achievable_rate(p: SourceSpec) -> float:
    """Infimum achievable rate, fixed- and variable-length alike."""
    return max(conditional_entropy(p, "y|x"), conditional_entropy(p, "x|y"))


# A sweep row scans every joint type of its n five or six times, at more
# than one rate, so the per-type quantities are worked out once.
_type_max_conditional_entropy = lru_cache(maxsize=None)(max_conditional_entropy)
_type_divergence = lru_cache(maxsize=None)(kl_divergence)


def in_decodable_region(jt: JointType, rate: float) -> bool:
    """True iff both conditional entropies of jt lie at or below `rate`."""
    return _type_max_conditional_entropy(jt) <= rate + RATE_TIE_TOL


def epsilon_n(n: int, ax: Alphabet, ay: Alphabet) -> float:
    """Per-symbol slack (|X||Y| log(n+1) + 1)/n; vanishes as n grows."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (ax.size * ay.size * math.log2(n + 1) + 1) / n


def log2_prob_of_sequence_pair(jt: JointType, p: SourceSpec) -> float:
    """log2 P(x,y) for any single pair of joint type jt; -inf off support."""
    lp = 0.0
    for a in range(jt.num_x):
        for b in range(jt.num_y):
            c = jt.counts[a][b]
            if c == 0:
                continue
            if p.p_xy[a][b] == 0:
                return -math.inf
            lp += c * math.log2(p.p_xy[a][b])
    return lp


def prob_of_type_class(jt: JointType, p: SourceSpec) -> float:
    """P_XY(T_jt): point probability times the exact class cardinality."""
    lp = log2_prob_of_sequence_pair(jt, p)
    if lp == -math.inf:
        return 0.0
    return _exp2(math.log2(multinomial(jt.flat_counts())) + lp)


@dataclass(frozen=True)
class ExponentReport:
    """Result of an exhaustive exponent scan at one (rate, n) point."""

    rate: float
    n: int
    value: float
    argmin_type: JointType | None


def _min_divergence(rate: float, p: SourceSpec, n: int, inside: bool) -> ExponentReport:
    """min D(Q||P) over the joint types inside (or outside) the decodable region."""
    best, arg = math.inf, None
    for jt in enumerate_joint_types(n, p.ax, p.ay):
        if in_decodable_region(jt, rate) != inside:
            continue
        d = _type_divergence(jt, p)
        if d < best:
            best, arg = d, jt
    return ExponentReport(rate, n, best, arg)


def error_exponent_outside(rate: float, p: SourceSpec, n: int) -> ExponentReport:
    """min D(Q||P) over joint types outside the decodable region; +inf if empty."""
    return _min_divergence(rate, p, n, inside=False)


def correct_exponent_inside(rate: float, p: SourceSpec, n: int) -> ExponentReport:
    """min D(Q||P) over joint types inside the decodable region."""
    return _min_divergence(rate, p, n, inside=True)


def converse_rate_slack(n: int, ax: Alphabet, ay: Alphabet) -> float:
    """Slack added to the rate inside the converse objective.

    The converse bounds carry an unspecified vanishing sequence; we pin it
    to epsilon_n.  Override by passing `slack` explicitly to the scans.
    """
    return epsilon_n(n, ax, ay)


def converse_correct_exponent(
    rate: float, p: SourceSpec, n: int, slack: float | None = None
) -> ExponentReport:
    """min over all joint types of |maxH - (rate+slack)|+ + D(Q||P)."""
    if slack is None:
        slack = converse_rate_slack(n, p.ax, p.ay)
    best, arg = math.inf, None
    for jt in enumerate_joint_types(n, p.ax, p.ay):
        gap = max(max_conditional_entropy(jt) - (rate + slack), 0.0)
        d = kl_divergence(jt, p)
        obj = gap + d
        if obj < best:
            best, arg = obj, jt
    return ExponentReport(rate, n, best, arg)


def _exp2_scaled(n: int, exponent: float) -> float:
    """2^(-n * exponent), with the empty-scan convention 2^(-inf) = 0."""
    if exponent == math.inf:
        return 0.0
    return _exp2(-n * exponent)


def error_sum_upper_bound(rate: float, p: SourceSpec, n: int) -> float:
    """Direct bound on e_x + e_y: 2 (n+1)^|XY| 2^(-n minD outside)."""
    cells = p.num_x * p.num_y
    return 2 * (n + 1) ** cells * _exp2_scaled(n, error_exponent_outside(rate, p, n).value)


def error_sum_lower_bound(rate: float, p: SourceSpec, n: int) -> float:
    """Converse bound: (1/2) (n+1)^-|XY| 2^(-n minD outside at rate+eps_n)."""
    cells = p.num_x * p.num_y
    eps = epsilon_n(n, p.ax, p.ay)
    mind = error_exponent_outside(rate + eps, p, n).value
    return 0.5 * (n + 1) ** (-cells) * _exp2_scaled(n, mind)


def correct_decoding_lower_bound(rate: float, p: SourceSpec, n: int) -> float:
    """Direct bound on the correct-decoding probability: 2^(-n(eps_n + minD inside))."""
    eps = epsilon_n(n, p.ax, p.ay)
    mind = correct_exponent_inside(rate, p, n).value
    if mind == math.inf:
        return 0.0
    return _exp2(-n * (eps + mind))


def correct_decoding_upper_bound(rate: float, p: SourceSpec, n: int) -> float:
    """Converse bound: 2^(-n(-eps_n + min clipped-gap-plus-divergence))."""
    eps = epsilon_n(n, p.ax, p.ay)
    obj = converse_correct_exponent(rate, p, n).value
    return _exp2(-n * (-eps + obj))


def overflow_upper_bound(rate: float, p: SourceSpec, n: int) -> float:
    """(n+1)^|XY| 2^(-n minD outside) — direct bound on the overflow probability."""
    cells = p.num_x * p.num_y
    return (n + 1) ** cells * _exp2_scaled(n, error_exponent_outside(rate, p, n).value)


def overflow_lower_bound(rate: float, p: SourceSpec, n: int) -> float:
    """(n+1)^-|XY| 2^(-n minD outside at rate+eps_n) — converse bound."""
    cells = p.num_x * p.num_y
    eps = epsilon_n(n, p.ax, p.ay)
    mind = error_exponent_outside(rate + eps, p, n).value
    return (n + 1) ** (-cells) * _exp2_scaled(n, mind)


def underflow_upper_bound(rate: float, p: SourceSpec, n: int, slack: float | None = None) -> float:
    """Direct bound on P(length < nR): 2^(-n(eps_n + minD inside at rate-slack))."""
    eps = epsilon_n(n, p.ax, p.ay)
    if slack is None:
        slack = eps
    mind = correct_exponent_inside(rate - slack, p, n).value
    if mind == math.inf:
        return 0.0
    return _exp2(-n * (eps + mind))
