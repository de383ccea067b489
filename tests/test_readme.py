"""The README's Library examples run: its ```python blocks are executed in
order, in one namespace (a later block uses the names an earlier one
binds), so an example that names a deleted API fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2, "the Library section lost its examples"
    namespace: dict = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
