"""tools/linecov.py's census on a small fixture module: the lines it
counts as executable, the lines a call reaches, and the trace function
it puts back."""

import importlib.util
import os
import sys
import threading

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
_spec = importlib.util.spec_from_file_location("linecov", os.path.join(TOOLS, "linecov.py"))
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

FIXTURE = '''\
"""A fixture module."""


def sign(x):
    """Docstrings and comments are not executable."""
    # a comment
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class Box:
    def __init__(self, v):
        self.v = v

    def twice(self):
        return [
            self.v,
            self.v,
        ]
'''


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture(tmp_path):
    path = tmp_path / "fixture_module.py"
    path.write_text(FIXTURE)
    return str(path)


def test_executable_lines_are_the_code_line_starts(tmp_path):
    lines = linecov.executable_lines(_fixture(tmp_path))
    assert lines >= {4, 7, 8, 9, 10, 11, 14, 15, 16, 18, 19, 20, 21}
    assert not lines & {2, 3, 5, 6, 12, 13, 17}


def test_census_lists_the_lines_no_call_reached(tmp_path):
    path = _fixture(tmp_path)
    with linecov.Census([path]) as census:
        module = _load(path, "fixture_module")
        assert module.sign(2) == 1
        assert module.sign(0) == 0
    module.Box(1)  # after the census: not counted
    missed = [line for p, line in census.unreached()]
    assert missed == [10, 16, 19, 20, 21]
    assert {p for p, _ in census.unreached()} == {os.path.realpath(path)}


def test_census_traces_threads_and_restores_the_trace_functions(tmp_path):
    path = _fixture(tmp_path)
    before = sys.gettrace(), threading.gettrace()
    with linecov.Census([path]) as census:
        module = _load(path, "fixture_module_threads")
        worker = threading.Thread(target=lambda: module.Box(3).twice())
        worker.start()
        worker.join()
    assert (sys.gettrace(), threading.gettrace()) == before
    missed = {line for _, line in census.unreached()}
    assert missed == {7, 8, 9, 10, 11}
