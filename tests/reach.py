"""Line reach of ``src/pushopt`` under the in-process Tier-1 suite.

Run it with any extra pytest arguments after it:

    python tests/reach.py

It puts ``src`` first on the import path, runs pytest in this process
with a ``sys.settrace`` hook on every function of the package, then prints
each function-body line that no test executed, as ``path:line: source``,
and a one-line summary.  A function
body is every line of a function's code (nested functions, lambdas and
comprehensions included) except its ``def`` line; module and class bodies
run at import and are not counted.  Tests that run the CLI in a child
process are not traced.  The exit status is pytest's.

The file name keeps pytest from collecting it.
"""

import inspect
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pushopt"


def _functions(code):
    """Every function code object nested anywhere inside ``code``."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                yield const
            yield from _functions(const)


def body_lines(path):
    """The function-body line numbers of one source file."""
    module = compile(path.read_text(), str(path), "exec")
    return {
        line
        for fn in _functions(module)
        for _, _, line in fn.co_lines()
        if line is not None and line != fn.co_firstlineno
    }


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    files = {str(p): body_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    seen = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in seen else None

    sys.settrace(tracer)  # the package starts no threads
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)

    missed = 0
    for name, lines in files.items():
        source = Path(name).read_text().splitlines()
        for line in sorted(lines - seen[name]):
            missed += 1
            print(f"{Path(name).relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    total = sum(len(lines) for lines in files.values())
    print(f"{total - missed} of {total} function-body lines reached, {missed} not")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
