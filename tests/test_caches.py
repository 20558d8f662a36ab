"""The package's memo caches: every unbounded one is listed."""

import importlib
import pkgutil

import compdeliv

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
