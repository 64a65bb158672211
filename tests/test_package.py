"""The public package namespace."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import qgwave


def test_every_public_name_resolves():
    missing = [name for name in qgwave.__all__ if not hasattr(qgwave, name)]
    assert missing == []


def test_plain_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(qgwave.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, qgwave; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_classify_is_the_function_after_its_module_is_imported():
    importlib.import_module("qgwave.classify")
    from qgwave import classify

    assert isinstance(classify, types.FunctionType)


def test_star_import_binds_all():
    namespace = {}
    exec("from qgwave import *", namespace)
    assert set(qgwave.__all__) <= set(namespace)


def test_dir_lists_all():
    assert set(qgwave.__all__) <= set(dir(qgwave))


def test_unknown_name_is_an_import_error():
    with pytest.raises(ImportError):
        from qgwave import nonexistent  # noqa: F401
