"""The public surface: README's library example runs as written, and every
name ``lsc`` exports resolves."""

import pathlib

import lsc

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_every_public_name_resolves():
    assert len(set(lsc.__all__)) == len(lsc.__all__)
    assert [name for name in lsc.__all__ if not hasattr(lsc, name)] == []
    namespace = {}
    exec("from lsc import *", namespace)
    assert set(lsc.__all__) <= namespace.keys()
