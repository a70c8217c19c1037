"""README's code blocks run as written: the library sketch prints what its
comments say, and every command of the command-line block exits 0."""

import contextlib
import io
import pathlib
import re
import shlex

from mfboundary import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_prints_what_its_comments_say():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [line.partition("#")[2].strip() for line in block.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_every_command_of_the_command_line_block_exits_0(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    lines = iter(block.splitlines())
    ran = []
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:  # the file that the lines up to EOF make
            body = "".join(f"{row}\n" for row in iter(lines.__next__, "EOF"))
            (tmp_path / heredoc.group(1)).write_text(body)
        elif line.startswith("mfboundary "):
            code = cli.main(shlex.split(line)[1:])
            assert code == 0, (line, capsys.readouterr().err)
            ran.append(line)
        else:
            assert not line or line.startswith("#"), line
    assert len(ran) == 10 and (tmp_path / "moves.json").exists()
