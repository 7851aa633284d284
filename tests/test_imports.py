"""Each module imports on its own, and the package is only a namespace.

Every check runs in a fresh interpreter, one process at a time, so that no
module another test imported first can hide an import cycle that a
standalone import would hit.
"""

import contextlib
import io
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

MODULES = [
    "superpoly",
    "exactlin",
    "algebra",
    "smodule",
    "sdim",
    "graded",
    "hilbert",
    "hochschild",
    "textio",
    "corpus",
    "cli",
]


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
    )


def test_every_module_is_listed():
    src = os.path.join(ROOT, "src", "superdim")
    found = {n[:-3] for n in os.listdir(src) if n.endswith(".py")}
    assert found - {"__init__", "__main__"} == set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    proc = _fresh("import superdim.%s" % name)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_package_import_loads_no_submodule():
    proc = _fresh(
        "import sys, superdim\n"
        "print(sorted(m for m in sys.modules if m.startswith('superdim.')))\n"
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_submodule_attribute_is_the_module():
    proc = _fresh(
        "import types, superdim.sdim\n"
        "print(isinstance(superdim.sdim, types.ModuleType), superdim.sdim.__name__)\n"
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True superdim.sdim\n")


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "0|3\n[('z1', 'z2', 'z3')]\n"
