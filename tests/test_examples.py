"""Every script under ``examples/`` imports against the current API.

Each example keeps its work behind a ``__main__`` guard, so importing
it only resolves its imports and definitions: a renamed or deleted
name that an example still imports fails here instead of at the next
manual run.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent
                   / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(
        "example_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
