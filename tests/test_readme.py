import re
import shlex
from pathlib import Path

from qchain.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_its_comment(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (expected,) = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == expected + "\n"
    assert (tmp_path / "pair.svg").read_text(encoding="utf-8").startswith("<?xml")


def test_readme_error_transcript(tmp_path, monkeypatch, capsys):
    # each "$ qchain ..." line exits 1, prints the line shown under it and writes nothing
    (transcript,) = re.findall(r"```\n(\$ qchain .*?)```", README.read_text(encoding="utf-8"),
                               re.S)
    lines = transcript.splitlines()
    assert len(lines) >= 2 and len(lines) % 2 == 0
    monkeypatch.chdir(tmp_path)
    for command, shown in zip(lines[::2], lines[1::2]):
        assert command.startswith("$ qchain ")
        assert main(shlex.split(command.removeprefix("$ qchain "))) == 1, command
        assert capsys.readouterr() == ("", shown + "\n")
        assert list(tmp_path.iterdir()) == []
