"""The README's Python quick start runs and gives the results its comments state."""

import ast
import re
from pathlib import Path

import closureops

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def _stated_result(comment: str):
    """The Python literal a result comment opens with, or None for prose."""
    try:
        return ast.literal_eval(comment.split(" — ")[0].strip())
    except (ValueError, SyntaxError):
        return None


def test_quick_start_blocks_give_their_commented_results():
    blocks = _python_blocks()
    assert len(blocks) == 2
    checked = []
    for block in blocks:
        namespace: dict = {}
        exec(block, namespace)
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            expected = _stated_result(comment) if code.strip() else None
            if expected is not None:
                assert eval(code.strip(), namespace) == expected, line
                checked.append(expected)
    assert checked == ["{a,b,c}", (3, 4), True, 2, (2, 2), 3]


def test_every_exported_name_resolves():
    for name in closureops.__all__:
        assert hasattr(closureops, name), name
