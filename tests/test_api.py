"""The public surface: every exported name resolves and the README snippet runs."""

import contextlib
import io
import re
from pathlib import Path

import twinwalk

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_readme_api_snippet_runs():
    for name in twinwalk.__all__:
        getattr(twinwalk, name)
    text = README.read_text(encoding="utf-8")
    snippet = re.search(r"## Python API\n\n```python\n(.*?)```", text, re.S)
    assert snippet, "README.md has no Python API snippet"
    imported = re.search(r"from twinwalk import \((.*?)\)", snippet.group(1), re.S)
    assert set(re.findall(r"\w+", imported.group(1))) <= set(twinwalk.__all__)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet.group(1), str(README), "exec"), {})
    assert 0.0 < float(out.getvalue()) < 1.0
