"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```$", text, re.S | re.M)
    assert match, "README.md has no python block under '## Library example'"
    exec(compile(match.group(1), f"{README}:library-example", "exec"), {})
