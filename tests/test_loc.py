from helpers import load_tool

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os


class Base:
    """Class docstring."""
    label = """a string that is not a docstring
spans two lines"""


def join(x):
    """Function docstring."""
    return os.path.join(  # a trailing comment
        x,
        "y")
'''


def test_counts_physical_and_code_lines():
    # code lines: import, class, label (two lines), def, and the call's three
    assert load_tool("loc").count(SOURCE) == (18, 8)


def test_blank_and_comment_only_source_has_no_code():
    assert load_tool("loc").count("# one\n\n# two\n") == (3, 0)
