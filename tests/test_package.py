"""The public package namespace."""

import importlib
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import qgwave


def test_every_public_name_resolves():
    missing = [name for name in qgwave.__all__ if not hasattr(qgwave, name)]
    assert missing == []
    # the test oracles of tests/_oracles.py are not part of the package
    assert not {"rigidity_predicates", "scaling_check"} & set(qgwave.__all__)


_LOADED_SCIPY = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def _fresh_python(code, cwd=None, **env):
    """Run code in a fresh interpreter that imports this qgwave; return its stdout.
    Keyword arguments set environment variables, and None unsets one."""
    src = os.path.dirname(os.path.dirname(qgwave.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, **env}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={name: value for name, value in env.items() if value is not None},
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_plain_import_loads_no_scipy():
    assert _fresh_python(f"import sys, qgwave; print({_LOADED_SCIPY})").strip() == "[]"


def test_cli_import_loads_no_scipy():
    code = f"import sys, qgwave.cli; print({_LOADED_SCIPY}, 'orjson' in sys.modules)"
    assert _fresh_python(code).strip() == "[] False"


def test_cli_import_loads_no_dataclasses():
    code = "import sys, qgwave.cli; print('dataclasses' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


# this process may have set the first when it imported qgwave
_NO_BLAS_THREADS = dict.fromkeys(["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_solve_runs_on_one_thread():
    code = """
import os
from qgwave import band_extrema, couette, principal_eigenvalue
principal_eigenvalue(band_extrema(couette(), 1.0), 2.0, -1.0)
print(len(os.listdir("/proc/self/task")))
"""
    assert _fresh_python(code, **_NO_BLAS_THREADS).strip() == "1"


def test_callers_blas_thread_count_wins():
    code = "import os, qgwave; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS="3").strip() == "3"


def test_rigidity_bound_lives_with_the_profiles():
    import qgwave.profiles

    assert qgwave.profile_rigidity_bound is qgwave.profiles.profile_rigidity_bound


def test_classify_loads_no_profiles():
    code = "import sys, qgwave.classify; print('qgwave.profiles' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_field_commands_load_no_scipy(tmp_path):
    code = f"""
import contextlib, io, sys
from qgwave.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["example", "--name", "ex32", "--beta-mode", "beta0", "-o", "f.json"]),
        main(["classify", "--field", "f.json", "--json"]),
        main(["verify", "--field", "f.json"]),
    ]
print(codes, {_LOADED_SCIPY})
"""
    assert _fresh_python(code, cwd=tmp_path).strip() == "[0, 0, 0] []"


def test_eigen_command_loads_only_the_lapack_extension():
    code = f"""
import sys
from qgwave.cli import main
print({_LOADED_SCIPY})
main(["eigen", "--profile", "couette", "--d", "1", "--beta", "2", "--c", "min", "--json"])
print({_LOADED_SCIPY})
print(sorted({{"orjson", "fractions", "numpy.polynomial"}} & set(sys.modules)))
"""
    before, *doc, after, unused = _fresh_python(code).splitlines()
    assert before == "[]"
    assert after == "['scipy.linalg._flapack']"
    # a linear band's u0' is constant: no Sturm chain, and no field file to read or write
    assert unused == "[]"
    res = json.loads("\n".join(doc))
    assert abs(res["lambda1"] + 0.25) <= res["est_error"]


def test_scipy_linalg_reuses_the_extension_the_solver_loaded():
    code = """
import sys
import numpy as np
from qgwave import band_extrema, couette, principal_eigenvalue
from qgwave.eigen import _lapack
principal_eigenvalue(band_extrema(couette(), 1.0), 2.0, -1.0)
import scipy.linalg
w = scipy.linalg.eigh_tridiagonal(np.full(3, 2.0), np.full(2, -1.0), eigvals_only=True)
exact = 2.0 - 2.0 * np.cos(np.arange(1, 4) * np.pi / 4.0)
print(sys.modules["scipy.linalg._flapack"] is _lapack(), scipy.linalg.lapack._flapack is _lapack(),
      np.allclose(w, exact, rtol=0, atol=1e-14))
"""
    assert _fresh_python(code).split() == ["True", "True", "True"]


def test_records_are_immutable():
    grid = qgwave.Grid2D(8, 9, qgwave.ChannelGeometry(1.0, -1.0, 1.0))
    wave = qgwave.WaveField(grid, np.ones(grid.shape), np.zeros(grid.shape), 0.0, 0.0)
    band = qgwave.band_extrema(qgwave.couette(), 1.0)
    verdict = qgwave.classify(wave).rigidity
    theorem = verdict.applicable_theorems[0]
    records = [
        grid, grid.geometry, wave, qgwave.diagnostics(wave), qgwave.classify(wave),
        verdict, theorem, theorem.hypotheses[0], band, qgwave.CurvePoint(1.0, None, None),
        qgwave.principal_eigenvalue(band, 2.0, -2.0, want_vector=False),
        qgwave.Example31Params(), qgwave.GrsParams(), qgwave.JUPITER,
    ]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
    with pytest.raises(ValueError):
        wave.u[0, 0] = 0.0


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
