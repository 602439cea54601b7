import importlib
import pkgutil
import re
import types
from pathlib import Path

import swervefall

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODEL = ROOT / "docs" / "model.md"
# Dotted names in the docs that belong to numpy or the standard library.
OUTSIDE_ROOTS = {"np", "numpy", "os"}


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


def test_package_all_lists_its_public_names():
    # __all__ names exactly the public names, other than modules, bound in
    # the package root, so a deleted name cannot stay listed and a new one
    # cannot go unlisted.
    public = [name for name, value in vars(swervefall).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(swervefall.__all__) == sorted(public)
    exec("from swervefall import *", {})


def test_model_doc_package_names_resolve():
    # Every backticked dotted name in docs/model.md that is not numpy's or
    # the standard library's names a module, class, function or attribute
    # of the package, so a doc cannot keep naming deleted code.
    text = MODEL.read_text(encoding="utf-8")
    dotted = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text)
    names = [name for name in dotted if name.split(".")[0] not in OUTSIDE_ROOTS]
    assert len(names) > 10
    namespace = {}
    for info in pkgutil.iter_modules(swervefall.__path__):
        module = importlib.import_module(f"swervefall.{info.name}")
        namespace.update(vars(module))
        namespace[info.name] = module
    # A name is missing when a part is absent, not when its value is None
    # (a dataclass field's default, say).
    absent = object()
    missing = []
    for name in names:
        root, *rest = name.split(".")
        obj = namespace.get(root, absent)
        for part in rest:
            obj = getattr(obj, part, absent)
        if obj is absent:
            missing.append(name)
    assert missing == []
