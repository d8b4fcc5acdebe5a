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
