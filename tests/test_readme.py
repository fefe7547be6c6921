from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_its_comment(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line[2:] for line in snippet.splitlines() if line.startswith("# ")]
    exec(compile(snippet, str(README), "exec"), {})
    assert expected and capsys.readouterr().out.splitlines() == expected
