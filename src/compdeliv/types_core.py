"""Alphabets, sequences, empirical types and exact enumerative ranking.

Type-class sizes are multinomials and exceed 64 bits quickly, so counting
uses Python's unbounded integers.  The order of the sequences inside a
type class is lexicographic (Cover's enumerative order) and has one
definition, `_class_letters`, which lists a class row by row; encoder and
decoder rebuild the same tables independently and never exchange them.
A rank is a position in that list.  The scalar `rank_in_type_class`/
`unrank_in_type_class` read maps memoized from it (small classes);
past the maps and the code table below, a rank is one `_search_ranks`
over the class's sorted keys (`_class_keys`) and an unrank indexes
`_class_letters`.  A class is enumerated only up to MAX_CLASS_SIZE
members, and a small class's members are Sequence objects built once
and shared by every decode.

A block's code is its letters read as a base-k integer, and blocks sort
as their codes do.  For blocks of up to _CODE_TABLE_LIMIT = 2^16 codes
`code_table` lists every block's rank in its class and its class key
(the code of its sorted letters), so a slot book's `_Classes` rank and
type-check a whole batch with one gather and unrank with one; above the
limit they search each class once with `_search_ranks`.  `_shell_columns`
ranks the V-shells of a joint type's x class in its y class the same way:
a coding table's edges (`coding_table.build_graph`).

`type_of` and `joint_type_of` count a block in one pass and return the
validated object of that count vector from a bounded cache, and a joint
type's marginals are memoized, so coding one block builds no new type
objects once its types have been seen.  Alphabets and types are
`interned`: one live object per value, compared and hashed by identity.

A joint type's index, its position in `enumerate_joint_types` order, is
computed (`joint_type_index`, inverse `joint_types_at`), not enumerated:
read by a block's count code from a table, or summed over its sorted letters.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass, field, fields, make_dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations, repeat
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np


class LengthMismatchError(ValueError):
    """Paired sequences must have equal block length."""


class RankRangeError(ValueError):
    """Rank argument outside the class being unranked."""


class ClassSizeError(ValueError):
    """Type class too large to enumerate."""


class RowError(ValueError):
    """A batch call failed; `row` is the first row it failed on (None from a scalar call)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


# Most members of a type class that is enumerated (about 2n bytes each,
# letters and search keys).  Every coding table within its default byte
# budget (`coding_table.DEFAULT_BUILD_BYTES`) has classes within it.
MAX_CLASS_SIZE = 2 ** 26

# Most counts an enumeration of joint types, or a decoder's memo of the types it has
# met (`TypesAt`: `FFCode.region`, `FVCode.types`), holds: joint types x cells.  Binary joint
# types cost about 2.5 us and 75 B per count (the most measured), so this bound is
# about 2.6 s and 80 MB; as the analytic arrays (`info_measures.type_columns`),
# 0.44 us and 14 B (62 B at the peak; binary n = 114, 2 vCPUs, numpy 2.4).  Binary
# block lengths up to n = 114 fit, and 3 x 2 ones up to n = 26.  Bounding the number
# of types alone would admit n = 1 over 256 x 256 letters: 65,536 types of 65,536 counts each.
MAX_JOINT_TYPE_COUNTS = 2 ** 20


class cached_attribute(cached_property):
    """`functools.cached_property` that stores its value with `object.__setattr__`,
    as a frozen dataclass allows: the instance keeps its attributes inline,
    where a write to its `__dict__` makes every later read about 3x slower."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.attrname, value)
        return value


_LIVE = weakref.WeakValueDictionary()  # (class, field values) -> the live interned object


def interned(cls):
    """Make `cls` a frozen dataclass with one live object per value (built, copied or unpickled): equal is identical."""
    cls = dataclass(frozen=True, eq=False)(cls)
    init, names = cls.__init__, tuple(f.name for f in fields(cls))
    del cls.__init__  # construction is __new__ alone; `init` sets a new value's fields and runs __post_init__
    # A plain dataclass of the same fields binds keyword and default arguments (its generated __init__).
    binder = make_dataclass(cls.__name__, [(f.name, f.type, field(default=f.default)) for f in fields(cls)])

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(names):  # the key is the field values
            args = tuple(vars(binder(*args, **kwargs)).values())
        live = _LIVE.get((cls, args))
        if live is None:
            live = object.__new__(cls)
            init(live, *args)  # a refused value is never registered
            live = _LIVE.setdefault((cls, args), live)
        return live

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in names)

    cls.__new__, cls.__reduce__ = staticmethod(__new__), __reduce__
    return cls


@interned
class Alphabet:
    """Finite alphabet whose letters are the dense integers 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("alphabet size must be >= 1")

    def __contains__(self, letter) -> bool:
        return 0 <= letter < self.size


BINARY = Alphabet(2)


@dataclass(frozen=True, slots=True)
class Sequence:
    """A block of letters over a fixed alphabet; `letters` is kept as a tuple."""

    letters: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if len(letters) < 1:
            raise ValueError("sequence must be nonempty")
        if min(letters) < 0 or max(letters) >= self.alphabet.size:
            bad = next(c for c in letters if c not in self.alphabet)
            raise ValueError(f"letter {bad} outside alphabet of size {self.alphabet.size}")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def n(self) -> int:
        return len(self.letters)


@interned
class TypeVector:
    """Empirical letter counts of a single sequence (counts sum to n)."""

    counts: tuple[int, ...]
    n: int

    def __post_init__(self):
        _check_block_length(self.n)
        if min(self.counts, default=0) < 0:
            raise ValueError("negative count")
        if sum(self.counts) != self.n:
            raise ValueError("counts must sum to n")

    @property
    def num_letters(self) -> int:
        return len(self.counts)

    def empirical(self) -> tuple[float, ...]:
        return tuple(c / self.n for c in self.counts)


def _check_block_length(n: int) -> None:
    if n < 1:
        raise ValueError(f"block length n={n}: a type needs n >= 1")


def _is_rectangular(rows) -> bool:
    """True for a nonempty matrix: nonempty rows, all of one length."""
    return bool(rows) and len(set(map(len, rows))) == 1 and len(rows[0]) > 0


@interned
class JointType:
    """Empirical joint counts of a sequence pair, indexed (x-letter, y-letter)."""

    counts: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        _check_block_length(self.n)
        if not _is_rectangular(self.counts):
            raise ValueError("joint counts must be a nonempty rectangular matrix")
        flat = list(chain.from_iterable(self.counts))
        if sum(flat) != self.n:
            raise ValueError("joint counts must sum to n")
        if min(flat) < 0:
            raise ValueError("negative count")

    @property
    def num_x(self) -> int:
        return len(self.counts)

    @property
    def num_y(self) -> int:
        return len(self.counts[0])

    def x_marginal(self) -> TypeVector:
        return _marginals(self)[0]

    def y_marginal(self) -> TypeVector:
        return _marginals(self)[1]

    def empirical(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(c / self.n for c in row) for row in self.counts)

    def flat_counts(self) -> tuple[int, ...]:
        return tuple(c for row in self.counts for c in row)

    @cached_attribute
    def index(self) -> int:
        """This type's position in `enumerate_joint_types` order: `joint_type_index` of a block of it."""
        pairs = np.repeat(np.arange(self.num_x * self.num_y), self.flat_counts())[None]
        return int(joint_type_index(pairs // self.num_y, pairs % self.num_y, self.num_x, self.num_y)[0])

    @cached_attribute
    def num_symbols(self) -> int:
        """Δ, the symbols of this type's coding table: its larger shell size (`num_symbols_column` of every type)."""
        return max(v_shell_size(self), w_shell_size(self))


# Most entries of each type cache below: every joint type of a binary
# block up to n = 9.  An entry holds its counts twice, as key and as
# object, about 16 B per count: 1 MB for one type over 256 x 256 letters.
_TYPE_CACHE_SIZE = 256


@lru_cache(maxsize=_TYPE_CACHE_SIZE)
def _type_vector(counts: tuple[int, ...]) -> TypeVector:
    return TypeVector(counts, sum(counts))


@lru_cache(maxsize=_TYPE_CACHE_SIZE)
def _joint_type(flat: tuple[int, ...], ky: int) -> JointType:
    """The joint type whose counts, row after row of ky, are `flat`."""
    return JointType(tuple(flat[i:i + ky] for i in range(0, len(flat), ky)), sum(flat))


@lru_cache(maxsize=_TYPE_CACHE_SIZE)
def _marginals(jt: JointType) -> tuple[TypeVector, TypeVector]:
    return _type_vector(tuple(map(sum, jt.counts))), _type_vector(tuple(map(sum, zip(*jt.counts))))


def type_of(x: Sequence) -> TypeVector:
    """Letter counts of x: one pass over x, then a cached TypeVector."""
    counts = [0] * x.alphabet.size
    for c in x.letters:
        counts[c] += 1
    return _type_vector(tuple(counts))


def joint_type_of(x: Sequence, y: Sequence) -> JointType:
    """Joint empirical counts of (x, y); both sequences must share length.

    One pass over the pair, then a cached JointType."""
    if len(x.letters) != len(y.letters):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    ky = y.alphabet.size
    counts = [0] * (x.alphabet.size * ky)
    for a, b in zip(x.letters, y.letters):
        counts[a * ky + b] += 1
    return _joint_type(tuple(counts), ky)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All tuples of `parts` nonnegative ints summing to `total`, lexicographic, as
    int64 rows.  Stars and bars: the parts - 1 bar positions among total + parts - 1
    slots, taken in lexicographic order, give the compositions in that order."""
    slots = total + parts - 1
    bars = np.fromiter(chain.from_iterable(combinations(range(slots), parts - 1)), np.int64)
    bars = np.pad(bars.reshape(comb(slots, parts - 1), parts - 1), ((0, 0), (1, 1)), constant_values=(-1, slots))
    return np.diff(bars, axis=1) - 1


def joint_type_count(n: int, kx: int, ky: int) -> int:
    """How many joint types of block length n over kx x ky letters there are."""
    return comb(n + kx * ky - 1, kx * ky - 1)


def _types_over(n: int, cells: int, bound: int) -> bool:
    """Whether the joint types of n letters over `cells` pair letters number over `bound`
    (C(N, k) >= 2^k for k = min(n, cells - 1) <= N / 2 spares a count of thousands of digits)."""
    return min(n, cells - 1) >= bound.bit_length() or comb(n + cells - 1, cells - 1) > bound


def check_joint_type_count(n: int, kx: int, ky: int) -> None:
    """Raise ValueError if enumerating these joint types exceeds MAX_JOINT_TYPE_COUNTS."""
    cells = kx * ky
    if _types_over(n, cells, MAX_JOINT_TYPE_COUNTS // cells):
        raise ValueError(
            f"n={n} over {kx} x {ky} letters: its joint types hold more than "
            f"MAX_JOINT_TYPE_COUNTS = {MAX_JOINT_TYPE_COUNTS} counts ({cells} per type)"
        )


@lru_cache(maxsize=16)
def enumerate_joint_types(n: int, ax: Alphabet, ay: Alphabet) -> tuple[JointType, ...]:
    """All joint types of block length n, lexicographic on flattened counts.

    This order fixes every downstream type index, so both codec sides
    agree on indices without exchanging tables.  Raises ValueError above
    MAX_JOINT_TYPE_COUNTS, before enumerating anything.
    """
    types = tuple(_joint_type(flat, ay.size) for flat in map(tuple, joint_type_counts(n, ax.size, ay.size).tolist()))
    for i, jt in enumerate(types):  # enumeration order is index order: no type need be ranked
        object.__setattr__(jt, "index", i)
    return types


@lru_cache(maxsize=16)
def joint_type_counts(n: int, kx: int, ky: int) -> np.ndarray:
    """The counts of every joint type of block length n over kx x ky letters,
    row-major, one row per type in `enumerate_joint_types` order, as a read-only
    int64 array, with no JointType built.  ValueError above MAX_JOINT_TYPE_COUNTS."""
    _check_block_length(n)
    check_joint_type_count(n, kx, ky)
    return _read_only(_compositions(n, kx * ky))


@lru_cache(maxsize=16)
def num_symbols_column(n: int, kx: int, ky: int) -> np.ndarray:
    """`JointType.num_symbols` of each type of `joint_type_counts(n, kx, ky)`, read-only:
    exact integers (an object array), the larger product of row and of column multinomials."""
    counts = joint_type_counts(n, kx, ky).reshape(-1, kx, ky)
    v, w = (np.prod(_by_distinct_row(rows, multinomial, object), axis=1) for rows in (counts, counts.transpose(0, 2, 1)))
    return _read_only(np.maximum(v, w))


def _by_distinct_row(counts: np.ndarray, f, dtype=float) -> np.ndarray:
    """f(row) of every last-axis row of a count array, the row as a list: one
    call per distinct row, gathered into the array's other axes."""
    rows = np.ascontiguousarray(counts.reshape(-1, counts.shape[-1]))
    _, first, inverse = np.unique(rows.view(np.dtype((np.void, rows[0].nbytes))), return_index=True, return_inverse=True)
    return np.array([f(row) for row in rows[first].tolist()], dtype)[inverse.reshape(counts.shape[:-1])]


@lru_cache(maxsize=1024)  # a 256-letter key takes about 2 KB: a few MB at most
def _multinomial_cached(counts: tuple[int, ...]) -> int:
    n = sum(counts)
    return reduce(lambda acc, c: acc // factorial(c), filter(None, counts), factorial(n))


def multinomial(counts) -> int:
    """n! / prod(c_i!) for the multiset with the given letter counts."""
    return _multinomial_cached(tuple(counts))


def type_class_size(q: TypeVector) -> int:
    """Number of sequences with exactly these letter counts."""
    return multinomial(q.counts)


def v_shell_size(jt: JointType) -> int:
    """|T_V(x)| for any x of jt's row-marginal type: product of per-row multinomials."""
    return prod(map(multinomial, jt.counts))


def w_shell_size(jt: JointType) -> int:
    """|T_W(y)| for any y of jt's column-marginal type: per-column multinomials."""
    return prod(map(multinomial, zip(*jt.counts)))


# Classes up to this size get memoized rank<->sequence maps for the scalar
# calls; larger ones are ranked by searching the class (same order).
_RANK_MAP_LIMIT = 1 << 16


# Most codes (k^n blocks of n letters over k) a code table lists: binary
# blocks up to n = 16, 3 letters up to n = 10, 256 letters up to n = 2.
# A table takes 16 + n B per code (n bytes of letters, more above 256
# letters), 2 MB at the limit for binary n = 16, built in about 5 ms;
# above it, batches are ranked by searching each class.
_CODE_TABLE_LIMIT = 1 << 16


@lru_cache(maxsize=256)  # as many classes as `_class_letters` keeps
def _lex_maps(counts: tuple[int, ...]):
    """(letters -> rank, rank -> Sequence) of a class up to _RANK_MAP_LIMIT, else None.

    The scalar decoders return these Sequences: a decoded sequence is
    immutable and shared, built once per class member, not once per block."""
    if multinomial(counts) > _RANK_MAP_LIMIT:
        return None
    seqs = tuple(map(Sequence, _class_letters(counts).tolist(), repeat(Alphabet(len(counts)))))
    return {s.letters: i for i, s in enumerate(seqs)}, seqs


def rank_in_type_class(x: Sequence) -> int:
    """Lexicographic rank of x within its type class."""
    return _rank_letters(x.letters, type_of(x).counts)


def _rank_letters(letters: tuple[int, ...], counts: tuple[int, ...]) -> int:
    """Rank of `letters`, a member of the class `counts` (not checked)."""
    maps = _lex_maps(counts)
    return maps[0][letters] if maps else int(_search_ranks(np.array([letters]), counts)[0])


def unrank_in_type_class(q: TypeVector, r: int) -> Sequence:
    """Sequence at lexicographic rank r within T_Q; inverse of rank_in_type_class."""
    if not 0 <= r < type_class_size(q):
        raise RankRangeError(f"rank {r} outside type class of size {type_class_size(q)}")
    maps = _lex_maps(q.counts)
    return maps[1][r] if maps else Sequence(_unrank_letters(q.counts, r), Alphabet(q.num_letters))


def _unrank_letters(counts: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The letters at rank r of the class `counts`, read from its list."""
    return tuple(_class_letters(counts)[r].tolist())


# --- batches of sequences as (m, n) integer arrays ------------------------------


def _letter_dtype(k: int) -> type:
    """Array letters are bytes, or words above 256 letters."""
    return np.uint8 if k <= 256 else np.uint32


def _as_blocks(n: int, letters: np.ndarray, k: int, what: str, rows: int | None = None) -> np.ndarray:
    """`letters` checked as (m, n) blocks over k letters (m = `rows` if given), in its array letter type."""
    letters = np.asarray(letters)
    if letters.ndim != 2 or letters.shape[1] != n:
        raise ValueError(f"{what} must be an (m, {n}) letter array")
    if rows is not None and len(letters) != rows:
        raise ValueError(f"{what} has {len(letters)} rows, not {rows}")
    if letters.size and not (0 <= letters.min() and letters.max() < k):
        raise ValueError(f"{what} has a letter outside the alphabet of size {k}")
    return letters.astype(_letter_dtype(k), copy=False)


def _read_only(array: np.ndarray) -> np.ndarray:
    """`array`, made read-only: a cached array is shared by every caller."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=256)
def _class_letters(counts: tuple[int, ...]) -> np.ndarray:
    """Every arrangement of the multiset `counts`, one per row, lexicographic.

    Tables of one block length share few classes, so they are cached
    (read-only).  A class above MAX_CLASS_SIZE members is refused before
    anything is allocated.
    """
    size = multinomial(counts)
    if size > MAX_CLASS_SIZE:
        raise ClassSizeError(f"type class {counts} has {size} members (> {MAX_CLASS_SIZE})")
    dtype = _letter_dtype(len(counts))
    letters = np.zeros((1, 0), dtype)
    remaining = np.array([counts], np.int64)
    for _ in range(sum(counts)):
        parent, letter = np.nonzero(remaining)  # row-major: sorted by prefix, then letter
        letters = np.concatenate([letters[parent], letter[:, None].astype(dtype)], axis=1)
        remaining = remaining[parent]
        remaining[np.arange(len(parent)), letter] -= 1
    return _read_only(letters)


def _as_keys(letters: np.ndarray) -> np.ndarray:
    """Sequences, one per row, as fixed-width byte strings.

    numpy orders equal-width byte strings as if NUL-padded, which is plain
    lexicographic order of the letters, NUL bytes included, once each
    letter's bytes are big-endian.
    """
    width = letters.shape[1] * letters.itemsize
    return np.ascontiguousarray(letters, letters.dtype.newbyteorder(">")).view(f"S{width}").ravel()


@lru_cache(maxsize=256)
def _class_keys(counts: tuple[int, ...]) -> np.ndarray:
    """`_as_keys` of `_class_letters(counts)`: the class's sorted search keys."""
    return _read_only(_as_keys(_class_letters(counts)))


def _search_ranks(letters: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
    """Each row's rank in the class `counts`, of which it is a member (not
    checked): its position among the class's sorted keys, found by one search."""
    return np.searchsorted(_class_keys(counts), _as_keys(np.asarray(letters, _letter_dtype(len(counts)))))


class CodeTable(NamedTuple):
    """Every block of n letters over k, addressed by its code: its letters
    read as a base-k integer.  Same-length blocks sort as their codes do,
    so a class's members in rank order are its codes in increasing order."""

    powers: np.ndarray  # k^(n-1), ..., k, 1: a block's code is its letters dotted with these
    rank: np.ndarray  # by code: the block's rank in its type class
    key: np.ndarray  # by code: its class key, the code of its sorted letters (its class's first member)
    start: np.ndarray  # by class key: where the class begins in `by_class`
    by_class: np.ndarray  # the codes, classes by key, each class in rank order
    members: np.ndarray  # by code: the block's letters

    def unrank(self, keys, ranks) -> np.ndarray:
        """The letters of the member of rank `ranks[i]` of the class of key `keys[i]`."""
        return self.members.take(self.by_class[self.start[keys] + ranks], axis=0)


@lru_cache(maxsize=8)
def code_table(n: int, k: int) -> CodeTable | None:
    """The code table of blocks of n letters over k, None past _CODE_TABLE_LIMIT codes.

    The class keys are built one leading letter at a time, the ranks with
    one stable sort of the codes by key; cached (at most 8 tables, 17 MB)
    and read-only."""
    if k ** n > _CODE_TABLE_LIMIT:
        return None
    size, dtype, powers = k ** n, _letter_dtype(k), k ** np.arange(n - 1, -1, -1)
    members = np.empty((size, n), dtype)
    for i, power in enumerate(powers.tolist()):
        members[:, i] = np.repeat(np.tile(np.arange(k, dtype=dtype), size // (k * power)), power)
    # Letter d put before a block whose sorted letters hold `above[d]`
    # letters past d goes just before those: key = high * k^(above+1) +
    # d * k^above + low.  Blocks are d-major, so the keys come in code order.
    letters, weight = np.arange(k, dtype=np.int32), k ** np.arange(n + 1, dtype=np.int32)
    key, above = np.zeros(1, np.int32), np.zeros((k, 1), np.uint8)
    for t in range(n):
        p = weight[above]
        high, low = np.divmod(key, p)
        key = ((high * k + letters[:, None]) * p + low).ravel()
        if t < n - 1:
            above = (above[:, None, :] + (letters[:, None, None] < letters[None, :, None])).reshape(k, -1)
    order = np.argsort(key.astype(np.uint16), kind="stable").astype(np.int32)  # by class, then code (a radix sort)
    key_order = key[order]
    first = np.flatnonzero(np.diff(key_order, prepend=-1)).astype(np.int32)  # where each class begins
    start = np.zeros(size, np.int32)
    start[key_order[first]] = first
    rank = np.empty(size, np.int32)
    rank[order] = np.arange(size, dtype=np.int32) - start[key_order]
    return CodeTable(*map(_read_only, (powers, rank, key, start, order, members)))


class _Classes:
    """The type classes of n-letter blocks over k letters that a slot book
    has met, by id: counts, letters sorted and, when the code table
    exists, code-table key (the code of the letters sorted)."""

    def __init__(self, n: int, k: int):
        self.n, self.k, self.ids, self.counts = n, k, {}, []
        self.keys, self.first = np.zeros(0, np.int64), np.zeros((0, n), _letter_dtype(k))

    def ids_of(self, classes: list[tuple[int, ...]]) -> list[int]:
        """The ids of these classes (counts), indexing the ones met for the first time."""
        ids = [self.ids.setdefault(counts, len(self.ids)) for counts in classes]
        new = list(self.ids)[len(self.counts):]
        self.counts += new
        first = [np.repeat(np.arange(self.k), counts) for counts in new]
        first = np.array(first, self.first.dtype).reshape(-1, self.n)
        self.first = np.concatenate([self.first, first])
        table = code_table(self.n, self.k)
        if table is not None:
            self.keys = np.concatenate([self.keys, first @ table.powers])
        return ids

    def rank(self, letters: np.ndarray, cls: np.ndarray, ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each block's rank in its class `cls[i]` (the blocks `ranked`
        marks) and a mask of the blocks not of their class: one code-table
        gather, or past its limit a sort and a search of each ranked class."""
        table = code_table(self.n, self.k)
        if table is not None:
            codes = (letters @ table.powers.astype(np.float32)).astype(np.intp)  # exact: codes < 2^24
            return table.rank[codes], table.key[codes] != self.keys[cls]
        ranks = np.zeros(len(letters), np.int64)
        for c in np.flatnonzero(np.bincount(cls[ranked])).tolist():
            at = np.flatnonzero(ranked & (cls == c))
            ranks[at] = _search_ranks(letters.take(at, axis=0), self.counts[c])
        return ranks, (np.sort(letters, axis=1) != self.first.take(cls, axis=0)).any(axis=1)

    def unrank(self, cls: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """The member of rank `ranks[i]` of class `cls[i]`: one code-table
        gather, or past its limit one per class."""
        table = code_table(self.n, self.k)
        if table is not None:
            return table.unrank(self.keys[cls], ranks)
        out = np.empty((len(cls), self.n), self.first.dtype)
        for c in np.flatnonzero(np.bincount(cls)).tolist():
            at = np.flatnonzero(cls == c)
            out[at] = _class_letters(self.counts[c])[ranks[at]]
        return out


def _shell_columns(jt: JointType) -> np.ndarray:
    """Column ranks of every row's V-shell, row-major, ascending in a row.

    Row x's shell is every interleaving of one arrangement of each joint
    count row jt.counts[a], placed where x takes letter a.  Lexicographic
    rank in a type class is the position among the class's sequences in
    sorted order.  Within the code table's limit a shell is its code, the
    sum of its parts' codes, and one gather of the table ranks it; above
    it the shells are built as letters and a searchsorted over byte-string
    keys ranks them, with no integer code to overflow at large n.
    """
    n, y_counts = jt.n, jt.y_marginal().counts
    x_class = _class_letters(jt.x_marginal().counts)
    rows = len(x_class)
    row_idx = np.arange(rows)[:, None, None]
    table, dtype = code_table(n, len(y_counts)), _letter_dtype(len(y_counts))
    shells = np.zeros((rows, 1), np.int64) if table is not None else np.zeros((rows, 1, n), dtype)
    for a, sub_counts in enumerate(jt.counts):
        arrangements = _class_letters(sub_counts)
        positions = np.argsort(x_class != a, axis=1, kind="stable")[:, : sum(sub_counts)]
        if table is not None:  # (rows, arrangements) codes
            part = table.powers[positions] @ arrangements.T
        else:
            part = np.zeros((rows, len(arrangements), n), dtype)
            part[row_idx, np.arange(len(arrangements))[None, :, None], positions[:, None, :]] = arrangements
        shells = (shells[:, :, None] + part[:, None]).reshape(rows, -1, *part.shape[2:])
    if table is not None:
        cols = table.rank[shells]
    else:
        cols = np.searchsorted(_class_keys(y_counts), _as_keys(shells.reshape(-1, n))).reshape(rows, -1)
    cols.sort(axis=1)
    return cols


@lru_cache(maxsize=64)
def _rank_table(n: int, cells: int) -> np.ndarray:
    """T[k, i] = C(n + cells - 2 - k - i, n - k), what a block's k-th smallest
    pair letter, i, adds to its type index: the strings of n stars and
    cells - 1 bars that agree with the block's up to its k-th star and hold
    a bar there (Cover's enumerative rank).  ValueError past int64."""
    _check_block_length(n)
    if _types_over(n, cells, (1 << 63) - 1):
        raise ValueError(f"n={n} over {cells} pair letters: 2^63 joint types or more; type indices are int64")
    table = np.zeros((n, cells), np.int64)
    table[n - 1] = np.arange(cells - 1, -1, -1)
    for k in range(n - 2, -1, -1):
        table[k] = np.cumsum(table[k + 1][::-1])[::-1]
    return _read_only(table)


# Most count codes, (n + 1)^(kx * ky), of a `joint_type_index` table (8 B per
# code): binary blocks up to n = 15, 3 x 2 letters up to n = 5.
_COUNT_CODE_LIMIT = 1 << 16


@lru_cache(maxsize=16)
def _count_code(n: int, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """(weights, index): a block's count code sums weights[c] = (n+1)^c over its
    pair letters c, and index[code] sums `_rank_table` along its sorted block."""
    base, prefix = n + 1, np.zeros((n + 1, cells), np.int64)
    np.cumsum(_rank_table(n, cells), axis=0, out=prefix[1:])
    index, end = np.zeros(base ** cells, np.int64), np.zeros(base ** cells, np.int64)
    for c in range(cells):  # a sorted block's letters c fill positions start to end - 1 (end > n: no block)
        start, end = end, np.minimum(end + np.arange(base ** cells) // base ** c % base, n)
        index += prefix[end, c] - prefix[start, c]
    return _read_only(base ** np.arange(cells, dtype=np.float32)), _read_only(index)


def joint_type_index(x: np.ndarray, y: np.ndarray, kx: int, ky: int) -> np.ndarray:
    """The type index (int64) of every row pair (x[i], y[i]) of two (m, n)
    letter arrays, with nothing enumerated: a gather by the block's count
    code up to _COUNT_CODE_LIMIT codes, else a sum over its sorted pair
    letters.  ValueError for arrays of two shapes or a letter outside its
    alphabet."""
    x, y = np.asarray(x), np.asarray(y)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"x of shape {x.shape} and y of shape {y.shape}: row pairs need (m, n) arrays of one shape")
    n, cells = x.shape[1], kx * ky
    counted = cells <= 16 and (n + 1) ** cells <= _COUNT_CODE_LIMIT  # n >= 1 needs cells <= 16: no huge power
    table = _count_code(n, cells) if counted else _rank_table(n, cells)
    for side, k in ((x, kx), (y, ky)):
        if side.size and not (0 <= side.min() and side.max() < k):
            raise ValueError(f"letter outside alphabet of size {k}")
    if counted:  # the row sums as a float32 product: exact below 2^24
        weights, index = table
        return index.take((weights.take(x * ky + y) @ np.ones(n, np.float32)).astype(np.intp))
    letters = x.astype(np.intp) * ky + y  # the pair's letter in the kx * ky alphabet
    letters.sort(axis=1)
    letters += np.arange(0, table.size, kx * ky)
    return table.ravel().take(letters).sum(axis=1)


@lru_cache(maxsize=64)
def _rank_rows(n: int, cells: int) -> tuple[tuple[int, ...], ...]:
    """The rows of `_rank_table(n, cells)` as Python ints, each reversed to ascend."""
    return tuple(map(tuple, _rank_table(n, cells)[:, ::-1].tolist()))


def joint_types_at(index, n: int, kx: int, ky: int) -> list[JointType]:
    """The joint type of each type index (a list of ints is taken as given),
    inverting `joint_type_index`: each sorted letter is the first whose
    table entry the rest of the index covers.  ValueError for an index
    outside the type count."""
    cells, count = kx * ky, joint_type_count(n, kx, ky)
    index = index if isinstance(index, list) else np.ravel(index).tolist()
    if index and not (0 <= min(index) and max(index) < count):
        raise ValueError(f"type index outside 0..{count - 1}")
    rows, types = _rank_rows(n, cells), []
    for rest in index:  # one index at a time: numpy calls cost more than these few steps
        counts = [0] * cells
        for row in rows:
            covered = bisect_right(row, rest)  # the entries the rest covers, counted from the last letter
            counts[cells - covered] += 1
            rest -= row[covered - 1]
        types.append(_joint_type(tuple(counts), ky))
    return types


class TypesAt(dict):
    """key -> the joint type of n letters over kx x ky of type index `type_index[key]` (the key
    if `type_index` is None), built by `joint_types_at` at its first read.  A hit is one dict
    subscript.  It holds at most `kept` types, MAX_JOINT_TYPE_COUNTS counts: a miss when full
    starts again, so no input can make a memo hold more than an enumeration may."""

    def __init__(self, n: int, kx: int, ky: int, type_index=None):
        self.n, self.kx, self.ky, self.type_index, self.kept = n, kx, ky, type_index, MAX_JOINT_TYPE_COUNTS // (kx * ky)

    def __missing__(self, key) -> JointType:
        jt = joint_types_at([key if self.type_index is None else int(self.type_index[key])], self.n, self.kx, self.ky)[0]
        if len(self) >= self.kept:  # full: start again
            self.clear()
        if self.kept:
            self[key] = jt
        return jt
