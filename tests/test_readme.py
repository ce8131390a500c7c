"""The ``python`` code blocks of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        # optimize=0 keeps the blocks' asserts under python -O.
        exec(compile(block, str(README), "exec", optimize=0), {})
