"""README's examples run as shown: each value commented in the library
quick start, and each `nc` output printed there in full, is what the code
gives today. A change that moves one of them updates README with it."""

import ast
import json
import re
import shlex
from pathlib import Path

from ncdist.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

#: the value a quick-start comment opens with: a tuple, a double-quoted
#: string or a number, before any prose after it
_COMMENTED = re.compile(r'#\s*(\([^)]*\)|"[^"]*"|-?\d[\d.e+-]*)')


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the README line `heading`."""
    text = README.read_text()
    start = text.index(f"\n{heading}\n")
    return re.search(rf"```{lang}\n(.*?)```", text[start:], re.S).group(1)


def test_quick_start_values():
    """Run the quick start statement by statement; each bare expression
    equals, bit for bit, the literal its comment opens with."""
    source = _block("## Library quick start", "python")
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
        comment = _COMMENTED.match(lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip())
        assert comment is not None, ast.unparse(stmt)
        assert value == ast.literal_eval(comment.group(1)), ast.unparse(stmt)
        checked += 1
    assert checked == 5


def test_cli_outputs_shown_in_full(tmp_path, capsys):
    """Each `nc` command whose comment is a whole JSON document prints that
    document, on README's first state file; outputs shown with "..." are
    elided and skipped."""
    state = tmp_path / "state.json"
    state.write_text(_block("### State files", "json"))
    lines = _block("## Command line", "sh").splitlines()
    checked = []
    for command, comment in zip(lines, lines[1:]):
        if not (command.startswith("nc ") and comment.startswith("# {")):
            continue
        try:
            json.loads(comment[2:])
        except ValueError:
            continue
        argv = [str(state) if arg == "state.json" else arg for arg in shlex.split(command)[1:]]
        assert main(argv) == 0
        assert capsys.readouterr().out == comment[2:] + "\n"
        checked.append(argv[0])
    assert checked == ["kernel", "sample-min"]
