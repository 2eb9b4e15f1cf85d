"""The unrun-statement tool lists statements, not docstrings, defs or imports."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "uncovered.py"
_spec = importlib.util.spec_from_file_location("uncovered", TOOL)
uncovered = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(uncovered)

SOURCE = '''"""Module docstring."""
import math
from os import path


class Box:
    """Class docstring."""

    size: int = 2

    def area(self):
        """Method docstring."""
        return self.size * self.size


def check(x):
    if (
        x < 0
    ):
        raise ValueError(
            "negative"
        )
    elif x == 0:
        return 0
    for i in range(x):
        pass
    return math.sqrt(x)
'''


def test_statements_skip_docstrings_defs_classes_and_imports():
    firsts = [first for first, _ in uncovered.statements(SOURCE)]
    assert firsts == [9, 13, 17, 20, 23, 24, 25, 26, 27]


def test_compound_statements_own_only_their_header():
    lines = dict(uncovered.statements(SOURCE))
    assert lines[17] == range(17, 20)  # the condition spans three lines
    assert lines[20] == range(20, 23)  # the raise spans three lines
    assert lines[25] == range(25, 26)  # the for header, not its body


def test_unrun_lists_statements_none_of_whose_lines_ran():
    ran = {9, 18, 23, 27}
    assert uncovered.unrun(SOURCE, ran) == [13, 20, 24, 25, 26]
    assert uncovered.unrun(SOURCE, set(range(1, 28))) == []


def test_the_allowlist_names_only_the_main_guard():
    assert {name for name, _ in uncovered.ALLOWED} == {"__main__.py"}
