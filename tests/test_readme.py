"""The README's library quickstart runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_prints_its_comments():
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", README.read_text(), re.S)
    code = block.group(1)
    # Each print line ends in "# <what it prints>".
    expected = [line.rsplit("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
