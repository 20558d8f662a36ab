"""The package's memo caches: every unbounded one is listed, and every per-code memo is bounded."""

import importlib
import pkgutil

import compdeliv
from compdeliv.ff_codec import FFCodeConfig, make_code
from compdeliv.fv_codec import make_fv_code
from compdeliv.types_core import MAX_JOINT_TYPE_COUNTS, Alphabet, TypesAt, cached_attribute

# The unbounded caches ROADMAP item 2 lists; a new one joins that list in the same change.
UNBOUNDED = {
    "coding_table.get_coding_table",
    "coding_table._side_coders",
    "coding_table.slot_book",
    "ff_codec.make_code",
    "fv_codec.make_fv_code",
}


def _cache_sizes() -> dict:
    """`maxsize` of every `functools.lru_cache` function a package module defines, by module.name."""
    sizes = {}
    for info in pkgutil.iter_modules(compdeliv.__path__):
        module = importlib.import_module(f"compdeliv.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)) and getattr(value, "__module__", None) == module.__name__:
                sizes[f"{info.name}.{name}"] = value.cache_info().maxsize
    return sizes


def test_the_unbounded_caches_are_the_listed_ones():
    sizes = _cache_sizes()
    assert {name for name, size in sizes.items() if size is None} == UNBOUNDED
    # The search is live: it sees the bounded caches too.
    assert sizes["types_core.enumerate_joint_types"] == sizes["types_core.joint_type_counts"] == 16


def test_every_per_code_memo_is_the_bounded_type_memo():
    # A code's dict-valued attributes, set when it is made or cached at a first
    # read, are memos a decode fills: each is a `TypesAt`, which holds at most
    # MAX_JOINT_TYPE_COUNTS counts.
    for kx, ky in ((2, 2), (3, 2)):
        ax, ay = Alphabet(kx), Alphabet(ky)
        memos = {}
        for code in (make_code(FFCodeConfig(3, 1.0, ax, ay)), make_fv_code(3, ax, ay)):
            for name, value in vars(type(code)).items():
                if isinstance(value, cached_attribute):
                    getattr(code, name)
            memos.update((f"{type(code).__name__}.{name}", v) for name, v in vars(code).items() if isinstance(v, dict))
        assert set(memos) == {"FFCode.region", "FVCode.types"}
        for memo in memos.values():
            assert type(memo) is TypesAt and memo.kept == MAX_JOINT_TYPE_COUNTS // (kx * ky)
