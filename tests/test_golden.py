"""Byte-for-byte CLI outputs against the files in tests/golden/.

The pinned outputs are the algebraic ones: the order-2, 3, 4 and 6
resonant coefficients (``compare --observable coefficient``), the inverse
tables of a chi3 medium (``invert``), the two-mode Maxwell residuals of a
chi3, a chi2 and a mixed chi2-chi3 medium (``verify``), the four reports
that ``verify --out`` writes for the mixed medium on a ten-mode basis, and
the coupling theta that ``convert`` writes. Each is a fixed sequence of
float operations in pure Python, so its bytes pin the construction itself:
a refactor that reorders one operation shows here. The time series of
``spdc``, ``convert`` and the dynamical compares are not pinned: they pass
through many ``exp``, ``sin`` and ``cos`` calls whose last bit the
platform's C math library decides, and the tests check them against closed
forms with tolerances instead. Each golden file holds a command's stdout,
except ``convert_interaction.json``, the file ``convert --out`` writes, the
files of ``verify_mixed_m5/``, the files ``verify --out`` writes, and
``verify_routes_units.json``, the reports of
:func:`~dquant.maxwell.verify_routes` on a medium whose units are neither
natural nor SI. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py``, only at a commit whose
outputs are trusted.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from math import pi, sqrt

import pytest

from dquant.cli import main
from dquant.maxwell import verify_routes
from dquant.modes import make_uniform_medium_modes
from dquant.serialize import dumps
from dquant.susceptibility import MediumSpec
from dquant.units import UnitSystem

GOLDEN = Path(__file__).parent / "golden"
CHI3 = {"units": "natural", "dim": 1, "chi": {"1": [0.6], "2": [0.0], "3": [0.2]}}
CHI2 = {"units": "natural", "dim": 1, "chi": {"1": [0.5], "2": [0.3]}}
MIXED = {"units": "natural", "dim": 1, "chi": {"1": [0.6], "2": [0.2], "3": [-0.15]}}

#: golden file -> argv of the command whose stdout it holds ({chi3}: the medium file)
STDOUT_CASES = {
    **{f"compare_coefficient_{n}.txt": ["compare", "--observable", "coefficient",
                                        "--order", str(n)] for n in (2, 3, 4, 6)},
    "invert_chi3.txt": ["invert", "--medium", "{chi3}"],
    "verify_chi3_m2.txt": ["verify", "--medium", "{chi3}", "--modes", "2"],
    "verify_chi2_m2.txt": ["verify", "--medium", "{chi2}", "--modes", "2"],
    "verify_mixed_m2.txt": ["verify", "--medium", "{mixed}", "--modes", "2"],
}
CONVERT = ["convert", "--medium", "{chi2}", "--length", "1.7", "--n-max", "4"]
#: golden directory -> argv of the command whose --out files it holds
OUT_CASES = {
    "verify_mixed_m5": ["verify", "--medium", "{mixed}", "--modes", "5"],
}
#: units with eps0 mu0 = 1 (so c = 1) that differ from the natural ones in every other way
UNITS = UnitSystem(eps0=0.5, mu0=2.0, hbar=2.0)


def _run(argv, workdir: Path) -> tuple[int, str, str]:
    media = {}
    for name, doc in (("chi3", CHI3), ("chi2", CHI2), ("mixed", MIXED)):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        media[name] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(**media) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_is_golden(name, tmp_path):
    code, out, err = _run(STDOUT_CASES[name], tmp_path)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_interaction_json_is_golden(tmp_path):
    code, _, err = _run(CONVERT + ["--out", str(tmp_path / "out")], tmp_path)
    assert (code, err) == (0, "")
    golden = (GOLDEN / "convert_interaction.json").read_bytes()
    assert (tmp_path / "out" / "interaction.json").read_bytes() == golden


def _out_files(argv, workdir: Path) -> dict[str, bytes]:
    out = workdir / "out"
    code, _, err = _run(argv + ["--out", str(out)], workdir)
    if (code, err) != (0, ""):
        raise RuntimeError(f"{argv}: exit {code}, stderr {err!r}")
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(OUT_CASES))
def test_out_files_are_golden(name, tmp_path):
    golden = {path.name: path.read_bytes() for path in sorted((GOLDEN / name).iterdir())}
    assert _out_files(OUT_CASES[name], tmp_path) == golden


def _verify_routes_doc(medium: MediumSpec) -> str:
    ms = make_uniform_medium_modes(sqrt(1.5), 2 * pi, [-2, -1, 1, 2], medium.units)
    reports = verify_routes(ms, medium)
    return dumps({route: [rep.to_dict() for rep in pair] for route, pair in reports.items()})


def test_verify_routes_reads_the_medium_units():
    # the golden reports were written when verify_routes took the medium's
    # units as a separate argument; natural units give other reports
    golden = (GOLDEN / "verify_routes_units.json").read_text()
    assert _verify_routes_doc(MediumSpec([0.5, 0.3], units=UNITS)) == golden
    assert _verify_routes_doc(MediumSpec([0.5, 0.3])) != golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, argv in STDOUT_CASES.items():
            code, out, err = _run(argv, workdir)
            if (code, err) != (0, ""):
                sys.exit(f"{name}: exit {code}, stderr {err!r}")
            (GOLDEN / name).write_bytes(out.encode())
        code, _, err = _run(CONVERT + ["--out", str(workdir / "out")], workdir)
        if (code, err) != (0, ""):
            sys.exit(f"convert: exit {code}, stderr {err!r}")
        (GOLDEN / "convert_interaction.json").write_bytes(
            (workdir / "out" / "interaction.json").read_bytes())
    for name, argv in OUT_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            files = _out_files(argv, Path(tmp))
        (GOLDEN / name).mkdir(exist_ok=True)
        for file, data in files.items():
            (GOLDEN / name / file).write_bytes(data)
    (GOLDEN / "verify_routes_units.json").write_text(
        _verify_routes_doc(MediumSpec([0.5, 0.3], units=UNITS)))
