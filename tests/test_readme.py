"""The README's library example runs, and each commented value is what it returns."""

import ast
import re
from pathlib import Path

import pregeom

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
