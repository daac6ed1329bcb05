"""The timing scripts under ``tools/`` still import: every library name they use exists.

They are not run here (each takes minutes); importing one runs its imports and module-level
code only, which is enough to catch a library name renamed or removed under them.
"""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.mark.parametrize("name", ["time_encoder", "time_wordpiece"])
def test_tool_imports(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
