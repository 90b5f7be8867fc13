"""Every public name of the package and its scripts is used somewhere else.

The scan parses ``src/sepball/*.py`` (without ``__init__``) and
``scripts/*.py``.  A public top-level function, class or UPPERCASE
constant, or a public method of a public class, that no other line of
those files names is surface that only tests reach: delete it, or move
it into the tests.  Names starting with ``_`` (dunders included) and the
methods of ``_``-prefixed classes are exempt.  Uses are matched by name
alone, as a bare name or an attribute, so dead code that shares its
name with a live one goes unnoticed.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _sources():
    package = sorted((ROOT / "src" / "sepball").glob("*.py"))
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    return [p for p in package + scripts if p.name != "__init__.py"]


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(qualified name, bare name, node) of each checked definition."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS) and _public(node.name):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            yield node.name, node.name, node
            for item in node.body:
                if isinstance(item, FUNCTIONS) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id.isupper() and _public(t.id):
                    yield t.id, t.id, node


def _uses(node):
    """How often each name occurs in ``node`` as a name or an attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def unreached():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in _sources()}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_uses(tree))
    out = []
    for path, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            if everywhere[name] == _uses(node)[name]:
                out.append(f"{path.stem}.{qualified}")
    return sorted(out)


def test_every_public_name_is_reached():
    assert {"cli.py", "sdp.py", "demo.py"} <= {p.name for p in _sources()}
    missing = unreached()
    assert not missing, (
        "public names that nothing in src/sepball or scripts uses: "
        + ", ".join(missing))
