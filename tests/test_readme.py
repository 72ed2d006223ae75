"""The public surface: README's library example runs as written, every
name ``lsc`` exports resolves, and every public function that no ``src``
code reads is on a list with its reason."""

import ast
import pathlib

import lsc

README = pathlib.Path(__file__).parent.parent / "README.md"
SRC = pathlib.Path(lsc.__file__).parent

# functions and methods that no src code reads, each with its reason
UNREAD = {
    "ExtFieldElement.frobenius": "perfbench/tracer.py binds it by name (ROADMAP item 14)",
    "ExtFieldElement.inverse": "perfbench/tracer.py binds it by name (ROADMAP item 14)",
    "lifted.reduce_received": "perfbench/tracer.py binds it by name (ROADMAP item 12)",
    "linalg.rref": "perfbench/tracer.py binds it by name (ROADMAP item 12)",
    "linalg.parse_subspace": "the public reader of the dump format (ROADMAP item 15)",
    "SplitMix64.next64": "the one-draw reference stream every batch must equal",
    "harness.run_search_beyond": "the library entry of search-beyond; the CLI runs the search on its verb check's code",
}


def test_readme_names_every_unread_function():
    """The README paragraph on functions with no caller in the package
    counts and names each ``UNREAD`` entry."""
    words = "zero one two three four five six seven eight nine ten".split()
    before, after = README.read_text().split(" public functions have no caller", 1)
    assert before.rsplit("\n", 1)[-1] == words[len(UNREAD)].capitalize()
    paragraph = after.split("\n\n", 1)[0]
    assert [name for name in UNREAD if f"`{name}`" not in paragraph] == []


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


def test_every_unread_public_function_is_accounted_for():
    """An AST scan of ``src/lsc``: a module function or method, public or
    private (dunders aside), that no src code reads is either on ``UNREAD``
    or is dead, such as a helper that a deletion left behind.  A module
    function is read as a name or an attribute, a method only as an
    attribute: a bare name, such as the builtin ``pow``, reads no ``.pow``
    method.  An import or an ``__all__`` string is no read."""
    functions, methods, names, attrs = [], [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((path.stem, node.name))
            elif isinstance(node, ast.ClassDef):
                methods += [(node.name, f.name) for f in node.body if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    unread = {
        f"{owner}.{name}"
        for defined, read in ((functions, names | attrs), (methods, attrs))
        for owner, name in defined
        if not (name.startswith("__") and name.endswith("__")) and name not in read
    }
    assert unread == UNREAD.keys()
