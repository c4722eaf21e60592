"""``count_code_lines.py`` on a small source string and on a small tree."""

import count_code_lines

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment leaves the line code

# a comment line


class Cell:
    """Class docstring."""

    def area(self):
        """Method docstring."""
        text = """a string that is
not a docstring"""
        return (math.pi,
                text)
'''


def test_counts_only_code_lines():
    # import, class, def, the two lines of the string, and the two of the return
    assert count_code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert count_code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     7  a.py", "     1  b.py", "     8  total", ""]
