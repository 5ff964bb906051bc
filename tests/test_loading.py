"""Which package modules `import conseq` and each command load.

Each case runs in a fresh interpreter, so no module another test
imported counts.  `import conseq` loads no submodule: each exported
name is looked up in its home module on first use.  The CLI loads
`operators` only for the lattice commands, and `sampling` and
`scenarios` only for `example`.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conseq

ROOT = Path(__file__).parent.parent

# what the child prints last: the conseq.* modules its body loaded
CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
{body}
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("conseq."))))
"""

CLI_BODY = """
from conseq.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
assert code == 0, code
"""

# what `import conseq.cli` loads, and so every command
CLI = {"cli", "engine", "errors", "fileformat", "language", "propositional", "rules"}
SYSTEM = "systems/branching.system"
SYSTEMS = "systems/branching.system,systems/single-step.system"


def loaded(body):
    """The conseq submodules a fresh interpreter loads running body."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(body=body)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return {name.removeprefix("conseq.") for name in json.loads(done.stdout.splitlines()[-1])}


def test_import_conseq_loads_no_submodule():
    assert loaded("import conseq") == set()


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["saturate", "--system", SYSTEM, "--hyp", "a,b"], set()),
        (["derive", "--system", SYSTEM, "--hyp", "a,b", "--goal", "d"], set()),
        (["bounded", "--system", SYSTEM, "--hyp", "a,b", "--steps", "3"], set()),
        (["pd", "taut", "(P0 -> P0)"], set()),
        (["pd", "search", "--hyp", "P0, (P0 -> P1)", "--goal", "P1"], set()),
        (["check-axioms", "--system", SYSTEM], {"operators"}),
        (["meet", "--systems", SYSTEMS, "--hyp", "a"], {"operators"}),
        (["sup", "--systems", SYSTEMS, "--hyp", "a"], {"operators"}),
        (["csystems", "--system", SYSTEM], {"operators"}),
        (["example", "3.1"], {"operators", "sampling", "scenarios"}),
    ],
    ids=["saturate", "derive", "bounded", "pd-taut", "pd-search", "check-axioms", "meet", "sup", "csystems", "example"],
)
def test_each_command_loads_only_its_modules(argv, extra):
    assert loaded(CLI_BODY.format(argv=argv)) == CLI | extra


def test_every_exported_name_is_its_home_modules_object():
    assert len(set(conseq.__all__)) == len(conseq.__all__)
    for name in conseq.__all__:
        namespace = {}
        exec(f"from conseq import {name}", namespace)
        home = importlib.import_module(f"conseq.{conseq._HOME[name]}")
        assert namespace[name] is getattr(home, name), name


def test_dir_lists_every_exported_name():
    assert set(conseq.__all__) <= set(dir(conseq))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'conseq' has no attribute 'no_such_name'$"):
        conseq.no_such_name
    # a submodule is not an exported name, but `from conseq import` still finds it
    from conseq import csystems

    assert csystems is importlib.import_module("conseq.csystems")
