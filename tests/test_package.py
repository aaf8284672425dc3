"""The package shell: its layers load on first attribute access, and it
re-exports each layer's public names."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import triadops
from triadops import contractions, criteria, filters, generators, reducibility, schmidt_maps, tensor_core

LAYERS = (tensor_core, contractions, schmidt_maps, criteria, filters, reducibility, generators)


def _fresh(code: str):
    """JSON printed by ``code`` in a new interpreter, which inherits the caller's environment."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_concatenates_the_layers_lists():
    expected = ["errors", *(name for layer in LAYERS for name in layer.__all__), "Tolerances", "DEFAULT"]
    assert triadops.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_exported_name_resolves_to_its_layers_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(triadops, name) is getattr(layer, name), name
    assert triadops.errors is sys.modules["triadops.errors"]
    assert set(triadops.__all__) <= set(dir(triadops))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        triadops.no_such_name


def test_import_loads_the_shell_and_a_public_name_loads_every_layer():
    code = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('triadops'))\n"
        "import triadops\n"
        "shell, hook = loaded(), '__getattr__' in vars(triadops)\n"
        "triadops.classify\n"
        "print(json.dumps([shell, hook, loaded(), '__getattr__' in vars(triadops)]))\n"
    )
    shell, hook, after, hook_after = _fresh(code)
    assert shell == ["triadops", "triadops.tolerances"]
    layers = {f"triadops.{layer.__name__.split('.')[-1]}" for layer in LAYERS}
    assert layers <= set(after) and "triadops.selftest" not in after
    # once the layers are bound the hook is gone, so that CPython can
    # specialize attribute reads on the package again
    assert hook and not hook_after


def test_star_import_binds_every_exported_name():
    code = (
        "import json\n"
        "from triadops import *\n"
        "import triadops\n"
        "print(json.dumps([n for n in triadops.__all__ if globals().get(n) is not getattr(triadops, n)]))\n"
    )
    assert _fresh(code) == []


def test_from_import_of_selftest_loads_the_suites():
    code = (
        "import json\n"
        "from triadops import selftest\n"
        "print(json.dumps(list(selftest.SUITES)))\n"
    )
    from triadops import selftest

    assert _fresh(code) == list(selftest.SUITES)


def test_no_module_imports_a_name_it_does_not_use():
    # a name counts as used when the module reads it or spells it out as a
    # string, as a re-export list or a quoted annotation does
    for path in sorted(Path(tensor_core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"
