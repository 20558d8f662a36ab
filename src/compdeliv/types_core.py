"""Alphabets, sequences, empirical types and exact enumerative ranking.

Everything here is exact integer combinatorics: type-class sizes and ranks
are multinomial-sized and exceed 64 bits quickly, so all counting uses
Python's unbounded integers.  Enumeration and ranking orders are fixed
(lexicographic) because encoder and decoder rebuild the same tables
independently and never exchange them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from math import factorial


class LengthMismatchError(ValueError):
    """Paired sequences must have equal block length."""


class RankRangeError(ValueError):
    """Rank argument outside the class being unranked."""


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet whose letters are the dense integers 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("alphabet size must be >= 1")

    def __contains__(self, letter) -> bool:
        return 0 <= letter < self.size


BINARY = Alphabet(2)


@dataclass(frozen=True)
class Sequence:
    """A block of letters over a fixed alphabet."""

    letters: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self):
        if len(self.letters) < 1:
            raise ValueError("sequence must be nonempty")
        for c in self.letters:
            if c not in self.alphabet:
                raise ValueError(f"letter {c} outside alphabet of size {self.alphabet.size}")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def n(self) -> int:
        return len(self.letters)


def seq(letters, k: int = 2) -> Sequence:
    """Convenience constructor: seq('0011') or seq([0,0,1,1])."""
    if isinstance(letters, str):
        letters = [int(c) for c in letters]
    return Sequence(tuple(letters), Alphabet(k))


@dataclass(frozen=True)
class TypeVector:
    """Empirical letter counts of a single sequence (counts sum to n)."""

    counts: tuple[int, ...]
    n: int

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count")
        if sum(self.counts) != self.n:
            raise ValueError("counts must sum to n")

    @property
    def num_letters(self) -> int:
        return len(self.counts)

    def empirical(self) -> tuple[float, ...]:
        return tuple(c / self.n for c in self.counts)


@dataclass(frozen=True)
class JointType:
    """Empirical joint counts of a sequence pair, indexed (x-letter, y-letter)."""

    counts: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        total = sum(sum(row) for row in self.counts)
        if total != self.n:
            raise ValueError("joint counts must sum to n")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("negative count")

    @property
    def num_x(self) -> int:
        return len(self.counts)

    @property
    def num_y(self) -> int:
        return len(self.counts[0])

    def x_marginal(self) -> TypeVector:
        return TypeVector(tuple(sum(row) for row in self.counts), self.n)

    def y_marginal(self) -> TypeVector:
        cols = tuple(sum(row[b] for row in self.counts) for b in range(self.num_y))
        return TypeVector(cols, self.n)

    def empirical(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(c / self.n for c in row) for row in self.counts)

    def flat_counts(self) -> tuple[int, ...]:
        return tuple(c for row in self.counts for c in row)


def type_of(x: Sequence) -> TypeVector:
    counts = [0] * x.alphabet.size
    for c in x.letters:
        counts[c] += 1
    return TypeVector(tuple(counts), len(x))


def joint_type_of(x: Sequence, y: Sequence) -> JointType:
    """Joint empirical counts of (x, y); both sequences must share length."""
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    counts = [[0] * y.alphabet.size for _ in range(x.alphabet.size)]
    for a, b in zip(x.letters, y.letters):
        counts[a][b] += 1
    return JointType(tuple(tuple(row) for row in counts), len(x))


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def enumerate_joint_types(n: int, ax: Alphabet, ay: Alphabet) -> tuple[JointType, ...]:
    """All joint types of block length n, lexicographic on flattened counts.

    This order fixes every downstream type index, so both codec sides
    agree on indices without exchanging tables.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kx, ky = ax.size, ay.size
    out = []
    for flat in _compositions(n, kx * ky):
        rows = tuple(flat[a * ky:(a + 1) * ky] for a in range(kx))
        out.append(JointType(rows, n))
    return tuple(out)


@lru_cache(maxsize=None)
def _multinomial_cached(counts: tuple[int, ...]) -> int:
    n = sum(counts)
    return reduce(lambda acc, c: acc // factorial(c), counts, factorial(n))


def multinomial(counts) -> int:
    """n! / prod(c_i!) for the multiset with the given letter counts."""
    return _multinomial_cached(tuple(counts))


def type_class_size(q: TypeVector) -> int:
    """Number of sequences with exactly these letter counts."""
    return multinomial(q.counts)


def v_shell_size(jt: JointType) -> int:
    """|T_V(x)| for any x of jt's row-marginal type: product of per-row multinomials."""
    size = 1
    for row in jt.counts:
        size *= multinomial(row)
    return size


def w_shell_size(jt: JointType) -> int:
    """|T_W(y)| for any y of jt's column-marginal type: per-column multinomials."""
    size = 1
    for b in range(jt.num_y):
        size *= multinomial(tuple(row[b] for row in jt.counts))
    return size


def multiset_permutations(counts: list[int]):
    """All arrangements of the multiset `counts`, lexicographic."""
    if sum(counts) == 0:
        yield ()
        return
    for c in range(len(counts)):
        if counts[c] == 0:
            continue
        counts[c] -= 1
        for rest in multiset_permutations(counts):
            yield (c,) + rest
        counts[c] += 1


# Classes up to this size get memoized rank<->letters tables; larger ones
# fall back to pure arithmetic ranking (identical ordering either way).
_RANK_MAP_LIMIT = 1 << 16


@lru_cache(maxsize=None)
def _lex_maps(counts: tuple[int, ...]):
    """(letters -> rank, rank -> letters) of a class up to _RANK_MAP_LIMIT, else None."""
    if multinomial(counts) > _RANK_MAP_LIMIT:
        return None
    seqs = tuple(multiset_permutations(list(counts)))
    return {s: i for i, s in enumerate(seqs)}, seqs


@lru_cache(maxsize=None)
def multiset_ranker(counts: tuple[int, ...]):
    """Lexicographic rank function over all arrangements of `counts`."""
    maps = _lex_maps(counts)
    return maps[0].__getitem__ if maps else partial(_rank_multiset_arith, counts=counts)


def _rank_multiset_arith(letters: tuple[int, ...], counts: tuple[int, ...]) -> int:
    rank = 0
    remaining = list(counts)
    for i, c in enumerate(letters):
        for smaller in range(c):
            if remaining[smaller] > 0:
                remaining[smaller] -= 1
                rank += multinomial(remaining)
                remaining[smaller] += 1
        remaining[c] -= 1
    return rank


def _unrank_multiset(counts: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Inverse of multiset_ranker(counts)."""
    maps = _lex_maps(counts)
    if maps is None:
        return _unrank_multiset_arith(counts, r)
    try:
        return maps[1][r]
    except IndexError:
        raise RankRangeError("rank exceeds class size") from None


def _unrank_multiset_arith(counts: tuple[int, ...], r: int) -> tuple[int, ...]:
    remaining = list(counts)
    n = sum(remaining)
    out = []
    for _ in range(n):
        for c in range(len(remaining)):
            if remaining[c] == 0:
                continue
            remaining[c] -= 1
            block = multinomial(remaining)
            if r < block:
                out.append(c)
                break
            remaining[c] += 1
            r -= block
        else:
            raise RankRangeError("rank exceeds class size")
    return tuple(out)


def rank_in_type_class(x: Sequence) -> int:
    """Lexicographic rank of x within its type class."""
    return multiset_ranker(type_of(x).counts)(x.letters)


def unrank_in_type_class(q: TypeVector, r: int) -> Sequence:
    """Sequence at lexicographic rank r within T_Q; inverse of rank_in_type_class."""
    if not 0 <= r < type_class_size(q):
        raise RankRangeError(f"rank {r} outside type class of size {type_class_size(q)}")
    letters = _unrank_multiset(q.counts, r)
    return Sequence(letters, Alphabet(q.num_letters))


def rank_in_v_shell(y: Sequence, x: Sequence) -> int:
    """Rank of y within the shell of x under their joint type.

    Mixed-radix over x-letters: for each x-letter a (ascending, a=0 most
    significant), the restriction of y to positions where x equals a is
    ranked lexicographically within its own sub-type class.
    """
    jt = joint_type_of(x, y)
    rank = 0
    for a in range(jt.num_x):
        sub_y = tuple(yc for xc, yc in zip(x.letters, y.letters) if xc == a)
        sub_counts = jt.counts[a]
        rank = rank * multinomial(sub_counts) + multiset_ranker(sub_counts)(sub_y)
    return rank


def unrank_in_v_shell(x: Sequence, jt: JointType, r: int) -> Sequence:
    """Inverse of rank_in_v_shell: the y at rank r in the shell of x under jt."""
    if type_of(x) != jt.x_marginal():
        raise ValueError("x is not of jt's row-marginal type")
    size = v_shell_size(jt)
    if not 0 <= r < size:
        raise RankRangeError(f"rank {r} outside shell of size {size}")
    subranks = []
    for a in range(jt.num_x - 1, -1, -1):
        radix = multinomial(jt.counts[a])
        subranks.append(r % radix)
        r //= radix
    subranks.reverse()
    sub_letters = [
        iter(_unrank_multiset(jt.counts[a], subranks[a])) for a in range(jt.num_x)
    ]
    letters = tuple(next(sub_letters[a]) for a in x.letters)
    return Sequence(letters, Alphabet(jt.num_y))
