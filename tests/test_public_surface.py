"""The names the README, the CLI and the benchmark harness rely on.

The benchmark under perfbench/ calls the package through `import quadorders`
with positional arguments, reads `quadorders.atlas.CSV_HEADER` and the
`cache_info()` of six lru-cached functions; renaming or re-ordering any of
these breaks it without failing any other test.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quadorders
from quadorders.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"

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


def test_readme_library_example_runs_to_its_commented_result():
    # the `## Library` code block, run as written: its last line is an expression whose
    # value the comment after it states
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S)[1]
    body, _, comment = code.rstrip().rpartition("\n# ")
    *statements, last = ast.parse(body).body
    namespace = {}
    exec(compile(ast.Module(statements, type_ignores=[]), "README.md", "exec"), namespace)
    got = eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace)
    assert got == ast.literal_eval(comment) == (3, 6, True, False, False)


def test_readme_cli_examples_print_their_shown_output(capsys):
    # each `$ quadorders ...` line in the README, run as written: its stdout is the text
    # shown under it, up to the end of its code block
    examples = re.findall(r"^\$ quadorders ([^\n]*)\n(.*?)^```", README.read_text(), re.M | re.S)
    assert [argv for argv, _ in examples] == ["verify -d 2 -n 2"]
    for argv, shown in examples:
        assert main(argv.split()) == 0, argv
        assert capsys.readouterr().out == shown, argv


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


def test_records_are_immutable_named_tuples():
    assert list(quadorders.ScanConfig._fields) == SCAN_CONFIG_FIELDS
    cfg = quadorders.ScanConfig(2, 10, 10, "out.csv")
    with pytest.raises(AttributeError):
        cfg.jobs = 2
    assert cfg._replace(jobs=2).jobs == 2 and cfg.jobs == 1
    with pytest.raises(ValueError):  # a spec is checked however it is built
        quadorders.OrderSpec(2, 3)._replace(n=0)
    F = quadorders.make_field(-3)
    U = quadorders.fundamental_unit(F)
    for record in (F, U):  # lru_cache keys of fundamental_unit and class_number
        assert hash(record) == hash(type(record)(*record))
    assert repr(F) == "FieldContext(d=-3, D=-3, t=-1, half=1)"


def test_import_loads_no_dataclasses_inspect_pickle_or_tempfile():
    # start-up pays for what import quadorders loads: no record is a dataclass, and pickle
    # and tempfile are imported only where a scan forks its workers
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import quadorders; "
        "print(sorted({'dataclasses', 'inspect', 'pickle', 'tempfile'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
    for path in sorted((SRC / "quadorders").glob("*.py")):
        assert "dataclass" not in path.read_text(), path.name


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
