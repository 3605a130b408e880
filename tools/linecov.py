"""Print every executable line of src/shqp/ that no Tier-1 test reaches.

    python3 tools/linecov.py [pytest arguments]

A line census with the standard library alone: it runs pytest (by
default the whole of tests/, as Tier-1 runs it) in this process under
``sys.settrace`` and ``threading.settrace``, records each line of
src/shqp/ that runs, and then prints one ``path:line: source`` line for
each executable line that never ran, in file and line order.  The
executable lines of a file are the line starts of every code object
compiled from it (``dis.findlinestarts``), so docstrings, comments and
blank lines never count; a function's ``def`` line counts, and runs at
import.  Frames outside src/shqp/ are not traced line by line.  Lines
that run only in a child process (a test that starts Python anew) are
not seen.

Tracing roughly doubles the time Tier-1 takes, so this is a tool to run
by hand, not a CI step.  pytest's report and the count of unreached
lines go to stderr, and the exit status is pytest's.
"""

import contextlib
import dis
import linecache
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "shqp")


def executable_lines(path: str) -> set:
    """The line numbers of path that can run: every line start of every
    code object compiled from it."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


class Census:
    """Record the lines that run in ``paths`` while the census is entered
    (a context manager), in this thread and in threads started meanwhile.
    ``reached`` maps each real path to its set of line numbers.  The trace
    functions in place before are put back on exit."""

    def __init__(self, paths):
        self.reached = {os.path.realpath(p): set() for p in paths}
        self._files = {}  # co_filename -> its line set, or None if untraced

    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._files:
            self._files[filename] = self.reached.get(os.path.realpath(filename))
        lines = self._files[filename]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        self._before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._trace)
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._before[0])
        threading.settrace(self._before[1])

    def unreached(self):
        """(path, line) for every executable line that did not run, sorted."""
        return sorted(
            (path, line)
            for path, lines in self.reached.items()
            for line in executable_lines(path) - lines
        )


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    paths = sorted(
        os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py")
    )
    os.chdir(ROOT)
    # pytest reports on stderr, so that stdout holds only the census.
    with contextlib.redirect_stdout(sys.stderr), Census(paths) as census:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider", "tests"])
    missed = census.unreached()
    for path, line in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line}: {linecache.getline(path, line).strip()}")
    print(f"{len(missed)} executable lines of src/shqp/ not reached", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
