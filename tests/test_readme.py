"""README's library sketch runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_prints_what_its_comments_say():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [line.partition("#")[2].strip() for line in block.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
