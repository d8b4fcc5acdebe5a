"""One benchmark iteration in a fresh interpreter.

Run by run.py as `python3 child.py <spec-json>`; the spec names the
checkout root, the input directory and the CLI commands to time.  The
child times `import leadshare`, then the commands through
`leadshare.cli.main` (optionally traced; skipped when `timed` is false),
then the same commands again `reruns` times with nothing changed.  It prints one JSON object as its
last line of standard output.  `python3 child.py --probe <root>` only
times the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_leadshare(root: Path) -> float:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import leadshare
    setup_s = time.perf_counter() - started
    where = Path(leadshare.__file__).resolve().parent
    if where != src / "leadshare":
        raise RuntimeError(f"imported leadshare from {where}, not from {src}")
    return setup_s


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run(cli, workdir: Path, commands: list[list[str]]) -> list[list[str]]:
    """Run each command; returns its printed (stage, status) pairs."""
    statuses = []
    for config, *args in commands:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["--config", str(workdir / config), *args])
        if code != 0:
            raise RuntimeError(f"leadshare {' '.join(args)} exited with {code}")
        for line in printed.getvalue().splitlines():
            stage, _, status = line.partition(": ")
            statuses.append([stage, status])
    return statuses


def _timed(cli, workdir: Path, spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu_before = _cpu_s()
    started = time.perf_counter()
    statuses = _run(cli, workdir, spec["commands"])
    total_s = time.perf_counter() - started
    cpu_s = _cpu_s() - cpu_before
    result = {"total_s": total_s, "cpu_s": cpu_s, "statuses": statuses}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.report()
        Path(spec["trace_file"]).write_text(json.dumps(
            [vars(s) for s in tracer.spans]
        ), encoding="utf-8")
    return result


def iteration(spec: dict) -> dict:
    setup_s = _import_leadshare(Path(spec["root"]))
    import leadshare.cli as cli

    workdir = Path(spec["workdir"])
    result = {"setup_s": setup_s}
    if spec["timed"]:
        result.update(_timed(cli, workdir, spec))
    reruns, rerun_statuses = [], []
    for _ in range(spec["reruns"]):
        started = time.perf_counter()
        rerun_statuses.append(_run(cli, workdir, spec["commands"]))
        reruns.append(time.perf_counter() - started)
    result["reruns_s"] = reruns
    result["rerun_statuses"] = rerun_statuses
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return result


def main(argv: list[str]) -> int:
    try:
        if argv[0] == "--probe":
            result = {"setup_s": _import_leadshare(Path(argv[1]))}
        else:
            result = iteration(json.loads(argv[0]))
    except Exception:  # reported to the parent, which counts the failure
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
