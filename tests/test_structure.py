"""Invariants of the package source that no run would show."""

import ast
from pathlib import Path

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


def test_opens_for_writing_reads_modes_and_flags():
    def writes(source: str) -> bool:
        return opens_for_writing(ast.parse(source, mode="eval").body)

    assert writes('open(p, "w")') and writes('open(p, mode="ab")')
    assert writes('p.open("x")') and writes("p.write_text(s)")
    assert writes("os.open(p, os.O_WRONLY | os.O_CREAT)")
    assert not writes('open(p, "rb")') and not writes("open(p, encoding='utf-8')")
    assert not writes("os.open(p, os.O_RDONLY)") and not writes("p.open()")


def test_only_run_logs_in_pipeline():
    # each stage returns its counts, and _run logs them in one line
    loggers = {
        function for function, call in calls(SRC / "pipeline.py")
        if ast.unparse(call.func).startswith("log.")
    }
    assert loggers == {"_run"}


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
