"""The library example in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block opens the Library example section"
    exec(compile(block[1], f"{README.name} (Library example)", "exec"), {})
