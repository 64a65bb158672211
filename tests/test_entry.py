"""The process entry: `python -m qgwave.cli` and the installed script call
main() with no argv.  It must write the same bytes and exit with the same
code as main(argv) in process, and only it may touch the garbage collector.
"""

import atexit
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgwave
from qgwave.cli import main

from _oracles import CLOSE_ZERO_PAIR

SRC = str(Path(qgwave.__file__).resolve().parent.parent)

# the installed `qgwave` script's body
SCRIPT = "import sys; from qgwave.cli import main; sys.exit(main())"


def _env(**overrides):
    """This environment with this qgwave on the path; an override of None unsets a variable."""
    paths = [SRC, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **overrides)
    return {name: value for name, value in env.items() if value is not None}


def run_process(argv, cwd, entry=("-m", "qgwave.cli"), **env):
    proc = subprocess.run(
        [sys.executable, *entry, *argv], cwd=cwd, env=_env(**env), capture_output=True, timeout=120
    )
    return proc.returncode, proc.stdout.decode("ascii"), proc.stderr.decode("ascii")


def run_in_process(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse: usage errors, --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def field_dir(tmp_path_factory):
    """A directory holding a small ex32 field, f.json."""
    path = tmp_path_factory.mktemp("entry")
    code = main(["example", "--name", "ex32", "--beta-mode", "beta0",
                 "--nx", "64", "--ny", "33", "-o", str(path / "f.json")])
    assert code == 0
    return path


BAND = ("--profile", "couette", "--d", "1")
MATRIX = {
    "eigen-text": ("eigen", *BAND, "--beta", "2", "--c", "min"),
    "eigen-json": ("eigen", *BAND, "--beta", "2", "--c", "min", "--json"),
    "critical-beta-text": ("critical-beta", *BAND),
    "critical-beta-json": ("critical-beta", *BAND, "--json"),
    "curve-text": ("curve", *BAND, "--beta-min", "1", "--beta-max", "3", "--n", "3"),
    "curve-json": ("curve", *BAND, "--beta-min", "1", "--beta-max", "3", "--n", "3", "--json"),
    "classify-json": ("classify", "--field", "f.json", "--json"),
    "verify-text": ("verify", "--field", "f.json"),
    "inf-c-json": ("inf-c", "--profile", "kolmogorov", "--d", "1.2", "--beta", "0.3", "--json"),
    "root-c-json": ("root-c", *BAND, "--beta", "10", "--L", "4", "--json"),
    "science-error": ("root-c", *BAND, "--beta", "1", "--L", "10"),
    "singular-error": ("eigen", "--profile", CLOSE_ZERO_PAIR, "--d", "1", "--beta", "2", "--c", "min"),
    "usage-error": ("eigen", "--nope"),
    "help": ("root-c", "--help"),
    # the process entry reads the family from sys.argv just as main(argv) does
    "example-foreign-flag": ("example", "--name", "ex31", "--a", "0.5"),
    "example-name-equals": ("example", "--name=grs", "--a", "2.1", "--nx", "16", "--ny", "9"),
}


@pytest.mark.parametrize("argv", MATRIX.values(), ids=MATRIX.keys())
def test_process_matches_in_process(capsys, monkeypatch, field_dir, argv):
    monkeypatch.chdir(field_dir)
    assert run_process(argv, field_dir) == run_in_process(argv, capsys)


def test_stdout_does_not_depend_on_the_blas_thread_count(tmp_path):
    # a ladder to N = 2**15, whose dot products OpenBLAS would split across threads
    argv = ["eigen", *BAND, "--beta", "10", "--c", "-1.0001", "--tol", "1e-6", "--json"]
    default = run_process(argv, tmp_path, OPENBLAS_NUM_THREADS=None)
    assert default[0] == 0
    assert default == run_process(argv, tmp_path, OPENBLAS_NUM_THREADS="1")


def test_singular_request_on_a_nonmonotone_band_is_one_json_error(capsys):
    # u0' of this quintic has two zeros 2.5e-4 apart, so the band is not monotone
    code, out, err = run_in_process(MATRIX["singular-error"], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "UnsupportedSingularityError"


@pytest.mark.parametrize(
    "argv",
    [
        ("critical-beta", *BAND, "--json"),
        ("classify", "--field", "f.json"),
        ("example", "--name", "ex33", "--nx", "32", "--ny", "33"),
    ],
    ids=["critical-beta", "classify", "example"],
)
def test_output_file_bytes_match(capsys, monkeypatch, field_dir, argv):
    monkeypatch.chdir(field_dir)
    assert run_process([*argv, "-o", "out_process"], field_dir) == (0, "", "")
    assert run_in_process([*argv, "-o", "out_main"], capsys) == (0, "", "")
    assert (field_dir / "out_process").read_bytes() == (field_dir / "out_main").read_bytes()


def test_example_to_a_pipe_is_the_whole_document(field_dir):
    argv = ["example", "--name", "ex32", "--beta-mode", "beta0", "--nx", "64", "--ny", "33"]
    code, out, err = run_process(argv, field_dir)
    assert (code, err) == (0, "")
    assert out.encode("ascii") == (field_dir / "f.json").read_bytes()
    json.loads(out)


SMALL = ("--nx", "16", "--ny", "9")


@pytest.mark.parametrize(
    "argv",
    [
        ("--name", "ex31", "--A", "inf"),
        ("--name", "ex31", "--A-tilde", "inf"),
        ("--name", "ex31", "--beta", "nan"),
        ("--name", "ex32", "--c", "inf", "--beta-mode", "beta0"),
        ("--name", "ex33", "--eps", "inf"),
        ("--name", "grs", "--a", "inf"),
        ("--name", "grs", "--d", "inf"),
        ("--name", "grs", "--clip-radius", "inf"),
        ("--name", "grs", "--clip-radius", "nan"),
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_non_finite_example_input_is_one_json_error(tmp_path, argv):
    code, out, err = run_process(["example", *argv, *SMALL, "-o", "f.json"], tmp_path)
    assert (code, out) == (1, "")
    assert "Warning" not in err
    detail = json.loads(err)  # exactly one JSON document
    assert detail["error"] == "DomainError"
    assert "must be finite" in detail["message"]
    assert not (tmp_path / "f.json").exists()


EIGEN = ("eigen", *BAND, "--beta", "2", "--c")


@pytest.mark.parametrize(
    "argv, code",
    [
        ((*EIGEN, "-1.5e0"), 0),
        ((*EIGEN, "-1.5e0", "--json"), 0),
        ((*EIGEN, "-1E+0"), 0),
        ((*EIGEN, "-1."), 0),
        ((*EIGEN, "-1_0e-1"), 0),
        ((*EIGEN, "-1e-3"), 1),
        ((*EIGEN, "-inf"), 1),
        ((*EIGEN, "-Infinity"), 1),
        ((*EIGEN, "-nan"), 1),
        ((*EIGEN, "min", "--tol", "-1e-3"), 2),
        (("root-c", *BAND, "--beta", "-1e-3", "--L", "4"), 1),
        (("curve", *BAND, "--beta-min", "-1e-1", "--beta-max", "1", "--n", "2"), 0),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else None,
)
def test_negative_value_after_its_flag(capsys, argv, code):
    # argparse's own pattern takes only plain decimals such as -0.001
    k = next(i for i, a in enumerate(argv) if a[:1] == "-" and a[1:2] != "-")
    glued = [*argv[:k - 1], f"{argv[k - 1]}={argv[k]}", *argv[k + 1:]]
    got = run_in_process(argv, capsys)
    assert got == run_in_process(glued, capsys)
    assert got[0] == code


def test_negative_number_pattern_takes_every_float_literal():
    from qgwave.cli import _NEGATIVE_NUMBER

    numbers = ["-1", "-1.", "-.5", "-1e5", "-1E-5", "-1e+5", "-1.5e0", "-1_000.5", "-inf",
               "-INF", "-Infinity", "-nan", "-NaN", "-1 ", "-\u0661"]
    for text in numbers:
        float(text)
        assert _NEGATIVE_NUMBER.match(text), text
    for text in ["-x", "-o", "-h", "--c", "--json", "-e5", "-.", "-+1", "-_1"]:
        assert not _NEGATIVE_NUMBER.match(text), text


def test_example_has_no_xi_flag(tmp_path):
    code, out, err = run_process(["example", "--name", "ex31", "--xi", "0"], tmp_path)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --xi 0" in err


def test_installed_script_freezes_the_collector_at_exit(tmp_path):
    # a handler registered before main() runs after the ones main() registers
    probe = (
        "import atexit, gc, sys; "
        "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count() > 0}\\n')); "
        + SCRIPT
    )
    argv = ["eigen", *BAND, "--beta", "2", "--c", "min", "--json"]
    code, out, err = run_process(argv, tmp_path, entry=("-c", probe))
    assert (code, err) == (0, "frozen True\n")
    assert run_process(argv, tmp_path)[1] == out


def test_main_with_argv_leaves_the_collector_alone(capsys, monkeypatch):
    registered = []
    monkeypatch.setattr(atexit, "register", registered.append)
    frozen = gc.get_freeze_count()
    for argv in MATRIX["eigen-json"], MATRIX["science-error"], MATRIX["usage-error"]:
        run_in_process(argv, capsys)
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen
    assert gc.freeze not in registered
