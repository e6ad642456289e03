"""Import cost: each layer loads only when a name or subcommand needs it.

The guards run in fresh interpreters, since this test process has already
imported numpy and mpmath.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import cohstates

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# Runs each argv given on the command line through cli.main in one
# interpreter and prints, after each, which of numpy and mpmath are loaded.
_PROBE = """
import contextlib, io, json, sys
from cohstates import cli
print(json.dumps(sorted({"numpy", "mpmath"} & set(sys.modules))))
for argv in map(json.loads, sys.argv[1:]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        rc = cli.main(argv)
        assert rc == 0, (argv, rc)
    print(json.dumps(sorted({"numpy", "mpmath"} & set(sys.modules))))
"""


def _loaded_after(*argvs):
    """Heavy modules loaded after importing the CLI, then after each argv."""
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, *map(json.dumps, argvs)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_cli_import_and_exact_commands_load_neither_numpy_nor_mpmath():
    loaded = _loaded_after(["verify-algebra", "--max-degree", "5"], ["--help"])
    assert loaded == [[], [], []]


def test_float_commands_other_than_closed_form_check_skip_mpmath(tmp_path):
    trace = str(tmp_path / "trace.csv")
    loaded = _loaded_after(
        ["autocorr", "--samples", "65", "-o", trace],
        ["cs-eval", "--family", "pt", "--samples", "5"],
        ["revivals", "--trace", trace, "--t-rev", "3.14159"],
        ["factor", "--n", "1001"],
    )
    assert loaded == [[], ["numpy"], ["numpy"], ["numpy"], ["numpy"]]


def test_closed_form_check_loads_mpmath():
    loaded = _loaded_after(["closed-form-check", "--family", "pt", "--samples", "3"])
    assert loaded == [[], ["mpmath", "numpy"]]


def test_every_public_name_is_its_home_modules_object():
    layers = [
        importlib.import_module(f"cohstates.{m}")
        for m in ("cstates", "dynamics", "gaussfactor", "ladder", "specfun")
    ]
    for name in cohstates.__all__:
        if name == "__version__":
            continue
        (home,) = [m for m in layers if name in m.__all__]
        assert getattr(cohstates, name) is getattr(home, name), name
    namespace = {}
    exec("from cohstates import *", namespace)
    assert set(cohstates.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cohstates.no_such_name
    with pytest.raises(ImportError):
        exec("from cohstates import no_such_name", {})
