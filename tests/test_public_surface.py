"""The names the README, the CLI and the benchmark harness rely on.

The benchmark under perfbench/ calls the package through `import quadorders`
with positional arguments, reads `quadorders.atlas.CSV_HEADER` and the
`cache_info()` of six lru-cached functions; renaming or re-ordering any of
these breaks it without failing any other test.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import quadorders

README = Path(__file__).resolve().parent.parent / "README.md"

# name -> positional parameters, in the order the benchmark passes them
CALLED_BY_BENCHMARK = {
    "make_field": ["d"],
    "fundamental_unit": ["F"],
    "class_number": ["F", "U"],
    "min_power": ["F", "U", "n"],
    "l_value": ["n", "d"],
    "is_ideal_preserving": ["spec"],
    "classify_order": ["spec"],
    "OrderSpec": ["d", "n"],
    "record_to_csv_row": ["rec"],
    "record_to_json_obj": ["rec"],
    "report_hfd": ["path"],
    "scan": ["cfg"],
    "brute_locally_associated": ["F", "U", "n"],
    "brute_associated": ["F", "U", "n"],
    "brute_ideal_preserving": ["F", "n"],
}
SCAN_CONFIG_FIELDS = ["d_min", "d_max", "n_max", "out", "n_min", "fmt", "resume", "jobs", "verify"]
CACHED = [
    ("arith", "is_prime"),
    ("arith", "is_squarefree"),
    ("quadfield", "make_field"),
    ("pell", "fundamental_unit"),
    ("classgroup", "class_number"),
    ("unitindex", "min_power_prime_power"),
    ("arith", "window_plan"),  # the scan's one window, shared by its fields
]


def readme_names():
    text = README.read_text()
    library = text[text.index("## Library"):]
    return set(re.findall(r"from quadorders import ([\w, ]+)", library)[0].split(", ")) | set(
        re.findall(r"`([A-Za-z_]\w*)`", library)
    )


def test_all_and_readme_names_resolve():
    names = readme_names()
    assert {"OrderSpec", "classify_order", "scan", "make_field"} <= names
    assert names <= set(quadorders.__all__)
    for name in quadorders.__all__:
        assert getattr(quadorders, name) is not None, name
    assert len(quadorders.__all__) == len(set(quadorders.__all__)) <= 23


def test_benchmark_calls_keep_their_signatures():
    for name, params in CALLED_BY_BENCHMARK.items():
        got = list(inspect.signature(getattr(quadorders, name)).parameters)
        assert got[: len(params)] == params, name
    got = list(inspect.signature(quadorders.ScanConfig).parameters)
    assert got == SCAN_CONFIG_FIELDS
    assert issubclass(quadorders.OracleBoundError, Exception)
    assert quadorders.atlas.CSV_HEADER.split(",")[:2] == ["d", "n"]
    F = quadorders.make_field(2)
    U = quadorders.fundamental_unit(F)
    assert quadorders.class_number(F, U).h == 1
    assert quadorders.min_power(F, U, 5) == 3


def test_benchmark_caches_expose_cache_info():
    for module, fn in CACHED:
        info = getattr(getattr(quadorders, module), fn).cache_info()
        assert info.hits >= 0 and info.misses >= 0


def test_every_cache_is_bounded():
    """Every lru_cache in the package has a finite maxsize, so a long scan's memory is capped."""
    cached = {}
    for info in pkgutil.iter_modules(quadorders.__path__):
        module = importlib.import_module(f"quadorders.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                cached[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
    assert {f"{m}.{f}" for m, f in CACHED} <= set(cached)
    assert all(size is not None for size in cached.values()), cached
