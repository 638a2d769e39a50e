"""The README's library example and CLI lines run, and each commented value is what
they return or print."""

import ast
import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pregeom
from pregeom.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_values():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S)
    assert block, "README.md has no python block under '## Library example'"
    source = block.group(1)
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
            continue
        # the value is written as the comment's text before its first ": "
        comment = lines[node.lineno - 1].partition("#")[2]
        expected = eval(comment.strip().split(": ", 1)[0], {**vars(pregeom), **namespace})
        assert eval(code, namespace) == expected, code
        checked.append(code)
    assert checked == ["predim(m)", "check_strong(m, {0, 1, 2})", "closure(m, {0})",
                       "closure(m, {0, 1})", "reduct_of(m).maxcliques"]


def test_cli_lines_print_their_comments(tmp_path, monkeypatch):
    # the CLI lines whose comment is their output, run on the file under "Structure files"
    text = README.read_text(encoding="utf-8")
    five = re.search(r"## Structure files.*?```\n(.*?)```", text, re.S)
    block = re.search(r"## CLI.*?```sh\n(.*?)```", text, re.S)
    assert five and block, "README.md lacks the structure file or the CLI block"
    (tmp_path / "five.txt").write_text(five.group(1), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    checked = []
    for line in block.group(1).splitlines():
        command, _, comment = line.partition("#")
        args = shlex.split(command)[1:]
        if args[0] not in ("predim", "strong", "class", "closure"):
            continue
        # the printed line is the comment, less a trailing note in parentheses
        expected = re.sub(r"\s*\(.*\)$", "", comment.strip())
        out = io.StringIO()
        with redirect_stdout(out):
            main(args)
        assert out.getvalue() == expected + "\n", line
        checked.append(" ".join(args[:2]))
    assert checked == ["predim five.txt", "predim five.txt", "strong five.txt",
                       "class five.txt", "closure five.txt"]
