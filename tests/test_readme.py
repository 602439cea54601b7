import re
from pathlib import Path

import swervefall

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "out" / "ledge.csv").exists()


def test_readme_public_api_names_resolve():
    # Every name the "Library use" paragraph lists is exported from the
    # package root, so a removed entry point cannot stay advertised.
    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"The public API is re-exported.*?(?:\n\n|\Z)", text,
                          flags=re.DOTALL)
    assert paragraph
    names = re.findall(r"`(\w+)`", paragraph.group(0))
    assert len(names) > 10
    assert [name for name in names if not hasattr(swervefall, name)] == []
