"""Invariants of the package source that no run would show."""

import ast
import typing
from pathlib import Path

import numpy as np
import pytest

from leadshare.features import FeatureTable, read_features
from leadshare.roles import LabelTable, read_training_labels

SRC = Path(__file__).resolve().parent.parent / "src" / "leadshare"
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND"}


def calls(path: Path) -> list[tuple[str, ast.Call]]:
    """Every call in a module with the name of the innermost function
    around it ('' at module level)."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                found.append((function, child))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def opens_for_writing(call: ast.Call) -> bool:
    name = ast.unparse(call.func)
    if name.endswith((".write_text", ".write_bytes")):
        return True
    if name != "open" and not name.endswith(".open"):
        return False
    # the mode, or os.open's flags, follows the path; Path.open takes none
    modes = call.args[1:] if name in ("open", "os.open") else call.args
    modes += [kw.value for kw in call.keywords if kw.arg in ("mode", "flags")]
    return any(
        isinstance(node, ast.Constant) and set(str(node.value)) & set("wax+")
        or getattr(node, "attr", getattr(node, "id", None)) in WRITE_FLAGS
        for mode in modes for node in ast.walk(mode)
    )


def test_only_write_tsv_opens_a_file_for_writing():
    # every artifact is written to a temp file and renamed into place, so
    # a crash never leaves half an artifact
    writers = {
        f"{path.stem}.{function}"
        for path in sorted(SRC.glob("*.py"))
        for function, call in calls(path)
        if opens_for_writing(call)
    }
    assert writers == {"records.write_tsv"}


def test_only_the_engine_makes_directories():
    # cache.run makes output_dir and the directory of each declared
    # output, turning a failure into a ConfigError (exit 2)
    makers = {
        f"{path.stem}.{function}"
        for path in sorted(SRC.glob("*.py"))
        for function, call in calls(path)
        if ast.unparse(call.func).endswith(("mkdir", "makedirs"))
    }
    assert makers == {"cache.run"}


def test_opens_for_writing_reads_modes_and_flags():
    def writes(source: str) -> bool:
        return opens_for_writing(ast.parse(source, mode="eval").body)

    assert writes('open(p, "w")') and writes('open(p, mode="ab")')
    assert writes('p.open("x")') and writes("p.write_text(s)")
    assert writes("os.open(p, os.O_WRONLY | os.O_CREAT)")
    assert not writes('open(p, "rb")') and not writes("open(p, encoding='utf-8')")
    assert not writes("os.open(p, os.O_RDONLY)") and not writes("p.open()")


def decodes_text(call: ast.Call) -> bool:
    """Whether a call decodes bytes as text: .read_text, .decode, or an
    open for reading without "b" in its mode."""
    name = ast.unparse(call.func)
    if name.endswith((".read_text", ".decode")):
        return True
    if name == "os.open" or name != "open" and not name.endswith(".open"):
        return False
    modes = call.args[1:] if name == "open" else call.args
    modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
    return not opens_for_writing(call) and not any(
        isinstance(node, ast.Constant) and "b" in str(node.value)
        for mode in modes for node in ast.walk(mode)
    )


def test_text_is_decoded_only_by_guarded_readers():
    # a byte that is not UTF-8 must name its file and line, not end in a
    # traceback: decode_utf8 serves every artifact, the config and the
    # tables, and the two raw-input readers decode with surrogateescape,
    # which their parser checks for U+DC80-U+DCFF
    decoders = {
        (f"{path.stem}.{function}", any(
            kw.arg == "errors" and getattr(kw.value, "value", None) == "surrogateescape"
            for kw in call.keywords
        ))
        for path in sorted(SRC.glob("*.py"))
        for function, call in calls(path)
        if decodes_text(call)
    }
    assert decoders == {
        ("records.decode_utf8", False),
        ("pipeline._read_corpus_file", True),
        ("pipeline._stage_train_roles", True),
    }


def test_decodes_text_reads_modes():
    def decodes(source: str) -> bool:
        return decodes_text(ast.parse(source, mode="eval").body)

    assert decodes("open(p)") and decodes('open(p, "r", encoding="utf-8")')
    assert decodes("p.open()") and decodes("p.read_text()") and decodes("raw.decode()")
    assert not decodes('open(p, "rb")') and not decodes('p.open(mode="rb")')
    assert not decodes('open(p, "w", encoding="utf-8")') and not decodes("p.read_bytes()")
    assert not decodes("os.open(p, os.O_RDONLY)")


def test_only_run_logs_in_pipeline():
    # each stage returns its counts, and the cache engine's run logs them
    # in one line; no stage code logs
    loggers = {
        f"{path.stem}.{function}"
        for path in (SRC / "pipeline.py", SRC / "cache.py")
        for function, call in calls(path)
        if ast.unparse(call.func).startswith("log.")
    }
    assert loggers == {"cache.run"}


def imported_modules(source: str) -> set[str]:
    """Every module that source imports, a relative import as
    leadshare.<module>."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "leadshare." if node.level else ""
            if node.module:
                found.add(package + node.module)
            else:
                found.update(package + alias.name for alias in node.names)
    return found


# the modules a stage computes with
STAGE_LAYERS = (
    "features", "leadmodel", "metrics", "roles", "forecast", "corpus", "kmeans", "tdist",
)


def test_cache_engine_and_stages_stay_apart():
    # cache.py knows the stages only through the table and readers its
    # caller passes in; pipeline.py leaves hashing, the lock and the
    # collector pause to cache.py
    engine = imported_modules((SRC / "cache.py").read_text(encoding="utf-8"))
    assert engine & {f"leadshare.{name}" for name in STAGE_LAYERS} == set()
    stages = imported_modules((SRC / "pipeline.py").read_text(encoding="utf-8"))
    assert stages & {"hashlib", "fcntl", "gc"} == set()
    assert [
        ast.unparse(call) for _, call in calls(SRC / "pipeline.py")
        if ast.unparse(call.func) == "os.open"
    ] == []


def test_imported_modules_sees_every_form_of_import():
    assert imported_modules(
        "import gc, os.path\nfrom hashlib import sha256\n"
        "from .features import build_profiles\nfrom . import roles\n"
        "from leadshare.metrics import aggregate"
    ) == {
        "gc", "os.path", "hashlib", "leadshare.features", "leadshare.roles",
        "leadshare.metrics",
    }


# parsing, filtering, features, roles and the static tables sit below
# scoring, aggregation, forecasting and the run machinery that uses them
LOWER_LAYERS = ("records", "corpus", "features", "roles", "kmeans", "tables", "tdist")
UPPER_LAYERS = ("metrics", "leadmodel", "forecast", "cache", "pipeline", "config", "cli")


def test_lower_layers_import_no_upper_layer():
    found = {
        f"{name}: {module}"
        for name in LOWER_LAYERS
        for module in imported_modules((SRC / f"{name}.py").read_text(encoding="utf-8"))
        if module in {f"leadshare.{upper}" for upper in UPPER_LAYERS}
    }
    assert found == set()


def plain_unique_calls(source: str) -> list[str]:
    """Each np.unique call without a return_* keyword, as `line: call`."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.unique", "numpy.unique")
        and not any((kw.arg or "").startswith("return_") for kw in node.keywords)
    ]


def test_no_plain_np_unique():
    # numpy 2's np.unique without a return_* argument hashes its input
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := plain_unique_calls(path.read_text(encoding="utf-8")))
    }
    assert found == {}, (
        "count distinct keys with records.sorted_distinct: a plain np.unique hashes, "
        "3.35 ms against 0.19 ms on 29k int64 keys and 767 ms against 12 ms on 1M"
    )


def test_plain_unique_calls_sees_calls_without_return_keywords():
    assert plain_unique_calls("np.unique(k)\nx = numpy.unique(a, axis=0)") == [
        "1: np.unique(k)", "2: numpy.unique(a, axis=0)",
    ]
    assert plain_unique_calls(
        "np.unique(k, return_inverse=True)\nnp.unique(k, return_counts=c)\nsorted_distinct(k)"
    ) == []


RECORD_CLASSES = {"PublicationRecord", "AuthorshipRecord", "ContributionRecord"}


def record_constructions(source: str) -> list[str]:
    """Each call that builds a parsed-record dataclass, as `line: call`."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rsplit(".", 1)[-1] in RECORD_CLASSES
    ]


def test_only_the_parser_builds_records():
    # the validating parser is the one place a record is built; a stage
    # codes what it needs from the parsed records instead of rebuilding them
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "records.py"
        and (lines := record_constructions(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_record_constructions_sees_bare_and_qualified_calls():
    assert record_constructions(
        "ContributionRecord(p, a, v)\nx = records.PublicationRecord(**kw)\n"
        "AuthorshipRecord(*row)\nContributionRecord\nLabelTable(p, a, 1.0)"
    ) == [
        "1: ContributionRecord(p, a, v)", "2: records.PublicationRecord(**kw)",
        "3: AuthorshipRecord(*row)",
    ]


# the underscore names of NamedTuple's public API
NAMEDTUPLE_API = {"_fields", "_replace", "_asdict", "_make"}


def foreign_private_attributes(source: str) -> list[str]:
    """Each `obj._name` that reads or writes an underscore attribute of an
    object other than self or cls, as `line: expression` in line order;
    dunders such as `__init__` are the language's, not private."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in sorted(
            (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)),
            key=lambda n: (n.lineno, n.col_offset),
        )
        if node.attr.startswith("_") and node.attr not in NAMEDTUPLE_API
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]


def test_no_code_reaches_into_another_objects_private_attributes():
    # a class keeps its own state: code outside it goes through its
    # public names, so the class can change without breaking callers
    found = {
        path.name: attrs
        for path in sorted(SRC.glob("*.py"))
        if (attrs := foreign_private_attributes(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_foreign_private_attributes_sees_reads_and_writes():
    assert foreign_private_attributes("index._swept[k] = v\nx = index._years") == [
        "1: index._swept", "2: index._years",
    ]
    assert foreign_private_attributes(
        "self._a = 1\ncls._b\nLeadFeatureVector._fields\nrow._replace(x=1)\n"
        "super().__init__()"
    ) == []


def test_no_module_imports_another_modules_private_names():
    # a module's underscore names are its own to change; other modules
    # import its public names
    found = {
        f"{path.name}: {alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert found == set()


# the readers of the artifacts that more than one stage decodes
SHARED_READERS = {"read_corpus", "read_features", "read_scored", "read_series"}


def test_stages_decode_artifacts_only_through_the_call_table():
    # a stage asks Artifacts.read for each artifact, so one call decodes
    # each artifact once; a reader called from a stage would decode again
    pipeline_calls = [
        (function, ast.unparse(call.func)) for function, call in calls(SRC / "pipeline.py")
    ]
    direct = {
        (function, name) for function, name in pipeline_calls
        if function.startswith("_stage_") and name in SHARED_READERS
    }
    assert direct == set()
    # each reader is still called, from the one table of decoders
    assert SHARED_READERS <= {name for _, name in pipeline_calls}


def names_used(path: Path) -> set[str]:
    """Every name a module reads, imports or takes an attribute by."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_error_class_is_used():
    # a deleted code path takes the errors only it raised along
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            classes -= names_used(path)
    assert classes == set()


@pytest.mark.parametrize("table, read, rel", [
    (FeatureTable, read_features, "features.tsv"),
    (LabelTable, read_training_labels, "labels.tsv"),
], ids=["features", "labels"])
def test_per_authorship_tables_hold_columns_and_pools(fixture_dir, table, read, rel):
    # numpy columns and sorted pools of the distinct ids: no dict, and no
    # Python object per row
    fields = typing.get_type_hints(table)
    assert set(fields.values()) == {np.ndarray, tuple[str, ...]}
    decoded = read(fixture_dir / "out" / rel)
    for name, kind in fields.items():
        value = getattr(decoded, name)
        if kind is np.ndarray:
            assert value.dtype.kind in "if", name
        else:
            assert list(value) == sorted(set(value)) and {type(s) for s in value} == {str}, name
