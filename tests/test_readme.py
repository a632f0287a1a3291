"""The README's library quick start prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_output():
    # the one python block; each `# ...` comment, inline or on its own
    # line, is the next line it prints, compared word by word since the
    # comments pad columns with spaces
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [line.split("#", 1)[1].split() for line in block.splitlines() if "#" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert [line.split() for line in out.getvalue().splitlines()] == expected
