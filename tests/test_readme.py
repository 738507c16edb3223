import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_its_comment(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (expected,) = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == expected + "\n"
    assert (tmp_path / "pair.svg").read_text(encoding="utf-8").startswith("<?xml")
