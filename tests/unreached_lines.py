"""Every executable line of ``src/frsim`` that the tier-1 suite never runs.

Runs the tier-1 suite (pytest over ``tests/``, configured by
``pyproject.toml``) in this process under a line tracer limited to
``src/frsim``, then prints each executable line that never ran as
``path:line  source``, a count per module and the total.  The file name
keeps pytest from collecting it.  From the repository root, with the tier-1
test dependencies installed::

    python3 tests/unreached_lines.py

A line is executable when an instruction of the module's compiled code
carries it (:func:`executable_lines`).  What tier-1 runs only in a
subprocess, such as the CLI's ``__main__`` guard, counts as never run.  The
tracer about doubles the suite's wall time.  The script exits with pytest's
exit code, so 0 unless the suite fails, whatever the count.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frsim"


def executable_lines(path: Path) -> set[int]:
    """The lines an instruction of the module's code carries.  A function's
    first line is left out of its own lines: the enclosing code, which runs
    on import, carries it too."""
    lines: set[int] = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        codes += [const for const in code.co_consts if isinstance(const, CodeType)]
        own = {line for _, _, line in code.co_lines() if line}  # 0 or None: no source line
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
    return lines


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code over ``args`` and the (file, line) pairs of
    ``src/frsim`` that ran, each file its resolved path."""
    ran: set[tuple[str, int]] = set()
    inside: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((inside[frame.f_code.co_filename], frame.f_lineno))
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            resolved = Path(name).resolve()
            inside[name] = str(resolved) if resolved.parent == PACKAGE else None
        return local if inside[name] else None

    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            str(ROOT / "tests")])
    per_module: Counter[str] = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - {l for f, l in ran if f == str(path)}):
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
            per_module[path.stem] += 1
    print(", ".join(f"{stem} {count}" for stem, count in per_module.most_common()) or "none")
    print(f"{sum(per_module.values())} executable lines of src/frsim never ran")
    return code


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
