import ast
import contextlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

import dquant
import dquant.dynamics as dynamics
import dquant.hamiltonian as hamiltonian
import dquant.maxwell as maxwell
from dquant.boson_algebra import BosonicPolynomial
from dquant.cli import COMMANDS, entry_point, main
from dquant.hamiltonian import ComparisonReport
from dquant.serialize import dumps
from dquant.susceptibility import ROUTES
from dquant.units import units_from_name
from test_golden import GOLDEN, STDOUT_CASES, golden_argv


def write_medium(tmp_path, chis, name="medium.json", dim=1):
    doc = {"units": "natural", "dim": dim,
           "chi": {str(n): [c] for n, c in enumerate(chis, start=1)}}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestInvert:
    def test_vacuum(self, tmp_path, capsys):
        medium = write_medium(tmp_path, [0.0])
        assert main(["invert", "--medium", medium]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eta"]["1"] == [1.0]
        assert doc["gamma"]["1"] == [0.0]

    def test_chi_three_half(self, tmp_path, capsys):
        medium = write_medium(tmp_path, [3.0, 0.5])
        assert main(["invert", "--medium", medium]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eta"]["1"][0] == pytest.approx(0.25)
        assert doc["eta"]["2"][0] == pytest.approx(-0.5 * 0.25**3)
        assert doc["gamma"]["2"][0] == pytest.approx(0.5 * 0.25**3)

    def test_singular_medium_exits_2(self, tmp_path, capsys):
        # the error once named no file
        medium = write_medium(tmp_path, [-1.0, 0.1])
        assert main(["invert", "--medium", medium]) == 2
        assert capsys.readouterr().err == (f"error: medium {medium}: non-invertible linear "
                                           "response: 1 + chi1 = 0.0 is (nearly) zero\n")

    def test_overflowing_series_exits_2_naming_the_file_and_the_order(self, tmp_path, capsys):
        # eta3 overflows to inf, which once failed the JSON writer with no cause named
        medium = write_medium(tmp_path, [0.5, 1e200, 1e200])
        out = tmp_path / "out"
        assert main(["invert", "--medium", medium, "--order", "6", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: medium {medium}: eta(3) = inf is not "
                                           "finite: the inverse series overflows a float\n")
        assert not out.exists()

    def test_units_naming_no_preset_exit_2_naming_them(self, tmp_path, capsys):
        path = tmp_path / "cgs.json"
        path.write_text(json.dumps({"units": "cgs", "dim": 1, "chi": {"1": [0.5]}}))
        assert main(["invert", "--medium", str(path)]) == 2
        assert capsys.readouterr().err == (f"error: medium {path}: malformed medium document: "
                                           "unknown unit system 'cgs'; expected 'natural' or 'si'\n")

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["invert", "--medium", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["invert", "--medium", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_undecodable_file_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"chi": {"1": [0.5], "2": [0.3]}, "note": "\xe9\xff"}')
        assert main(["invert", "--medium", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_directory_medium_exits_2_naming_it(self, tmp_path, capsys):
        assert main(["invert", "--medium", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_out_onto_existing_file_exits_2_naming_it(self, tmp_path, capsys):
        medium = write_medium(tmp_path, [0.5, 0.3])
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["invert", "--medium", medium, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err

    @pytest.mark.parametrize("key", ["0", "-3"])
    def test_order_key_below_one_exits_2_naming_it(self, tmp_path, capsys, key):
        # such a key was once dropped in silence and the command exited 0
        path = tmp_path / "low.json"
        path.write_text(json.dumps({"chi": {key: [7.0], "1": [0.5], "2": [0.3]}}))
        assert main(["invert", "--medium", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and str(path) in err

    def test_order_zero_exits_2(self, tmp_path, capsys):
        medium = write_medium(tmp_path, [0.5, 0.3])
        assert main(["invert", "--medium", medium, "--order", "0"]) == 2
        assert capsys.readouterr().err == "error: --order must be at least 1, got 0\n"

    @pytest.mark.parametrize("chi", [{"1": [0.5, 0.1]}, {"1": ["x"]}, {"1": [{"re": 0.5}]},
                                     {"1": [0.5], "2": [[0.1], [0.2]]}],
                             ids=["count", "string", "object", "nested-count"])
    def test_bad_entries_exit_2(self, tmp_path, chi, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"units": "natural", "dim": 1, "chi": chi}))
        assert main(["invert", "--medium", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestVerify:
    def test_linear_medium_both_pass(self, tmp_path):
        medium = write_medium(tmp_path, [0.9])
        assert main(["verify", "--medium", medium, "--modes", "1"]) == 0

    def test_nonlinear_expectation_met(self, tmp_path):
        medium = write_medium(tmp_path, [0.5, 0.3])
        out = tmp_path / "reports"
        assert main(["verify", "--medium", medium, "--modes", "2",
                     "--out", str(out)]) == 0
        wrong = json.loads((out / "verify_faraday_E-linear-wrong.json").read_text())
        assert wrong["degree_lhs"] == 2
        assert wrong["degree_rhs"] == 1
        assert wrong["passed"] is False
        good = json.loads((out / "verify_faraday_D-based.json").read_text())
        assert good["passed"] is True
        assert (out / "verify_ampere_D-based.json").exists()

    def test_chi2_without_coupled_triple_passes(self, tmp_path):
        # a +/-1 basis holds no k-conserving triple, so no nonlinear coupling
        # survives and both routes are expected to pass
        medium = write_medium(tmp_path, [0.9, -0.3])
        out = tmp_path / "reports"
        assert main(["verify", "--medium", medium, "--modes", "1", "--out", str(out)]) == 0
        for scheme in ("D-based", "E-linear-wrong"):
            report = json.loads((out / f"verify_faraday_{scheme}.json").read_text())
            assert (report["degree_lhs"], report["degree_rhs"]) == (1, 1)
            assert report["passed"] is True

    def test_si_medium_fields_pruned_to_zero_exits_2(self, tmp_path, capsys):
        # SI field coefficients lie below the absolute pruning threshold, so
        # every component would vanish and both sides of each law read 0 = 0
        path = tmp_path / "si.json"
        path.write_text(json.dumps({"units": "si", "dim": 1,
                                    "chi": {"1": [1.25], "2": [1e-12]}}))
        out = tmp_path / "reports"
        assert main(["verify", "--medium", str(path), "--modes", "2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: medium {path}: D and B field components fall below PRUNE_TOL = 1e-15 and "
            "prune to zero; run verify in natural units\n")
        assert not out.exists()

    def test_natural_medium_whose_index_prunes_b_exits_2_naming_it(self, tmp_path, capsys):
        # in natural units the index 1e150 scales B's coefficients to ~1e-76:
        # natural units are no remedy, so the message names the index instead
        medium = write_medium(tmp_path, [1e300, 0.3])
        out = tmp_path / "reports"
        assert main(["verify", "--medium", medium, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: medium {medium}: B field components fall below PRUNE_TOL = 1e-15 and "
            "prune to zero; their scale is set by the refractive index 1e+150 and the box "
            "length 6.28319\n")
        assert not out.exists()

    def test_pruned_nonlinearity_exits_2_naming_the_order(self, tmp_path, capsys):
        # every coefficient of (eta2 / 3) D^3 falls below PRUNE_TOL at chi2 = 1e-300:
        # both routes once read degree 1 vs 1 and verify exited 0, as if linear
        medium = write_medium(tmp_path, [0.5, 1e-300])
        out = tmp_path / "reports"
        assert main(["verify", "--medium", medium, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: medium {medium}: every route's order-2 term, its weight times D^3, prunes "
            "to zero: each coefficient is at or below PRUNE_TOL = 1e-15\n")
        assert not out.exists()

    def test_basis_without_a_cubic_term_is_no_pruned_nonlinearity(self, tmp_path):
        # at --modes 1 D^3 has no k = 0 term at all: nothing prunes, and the
        # medium is linear on this basis
        medium = write_medium(tmp_path, [0.5, 1e-300])
        assert main(["verify", "--medium", medium, "--modes", "1"]) == 0

    def test_order_that_one_route_cancels_is_no_pruned_nonlinearity(self, tmp_path):
        # at chi3 = 2 chi2^2 / (1 + chi1) the D route's eta3 cancels to ~1e-18 and
        # its D^4 term prunes, while the E route keeps its weight 0.0178: the
        # order is still in H, and verify runs
        medium = write_medium(tmp_path, [0.5, 0.3, 0.12])
        out = tmp_path / "reports"
        assert main(["verify", "--medium", medium, "--out", str(out)]) == 0
        wrong = json.loads((out / "verify_faraday_E-linear-wrong.json").read_text())
        assert wrong["degree_lhs"] == 3

    @pytest.mark.parametrize("chis", [
        [0.6, 0.2, -0.15],
        [1.1793393271782069, -0.49778809668482216, -0.41704050869234827],
    ])
    def test_chi3_ampere_stays_linear_at_five_modes(self, tmp_path, chis):
        # the top-degree terms of D_m H and H D_m cancel exactly in dD/dt;
        # built and subtracted, their rounding residue exceeded PRUNE_TOL
        # and raised the D route's Ampere degree to 3
        medium = write_medium(tmp_path, chis)
        out = tmp_path / "reports"
        assert main(["verify", "--medium", medium, "--modes", "5", "--out", str(out)]) == 0
        ampere = json.loads((out / "verify_ampere_D-based.json").read_text())
        assert (ampere["degree_lhs"], ampere["degree_rhs"]) == (1, 1)
        assert ampere["passed"] is True

    def test_chi3_linear_e_ampere_holds_and_faraday_fails(self, tmp_path):
        medium = write_medium(tmp_path, [0.6, 0.0, 0.2])
        out = tmp_path / "reports"
        assert main(["verify", "--medium", medium, "--modes", "5", "--out", str(out)]) == 0
        ampere = json.loads((out / "verify_ampere_E-linear-wrong.json").read_text())
        assert ampere["degrees_match"] is True
        assert ampere["passed"] is True
        faraday = json.loads((out / "verify_faraday_E-linear-wrong.json").read_text())
        assert (faraday["degree_lhs"], faraday["degree_rhs"]) == (3, 1)
        assert faraday["passed"] is False

    def test_one_build_and_hermiticity_check_per_scheme(self, tmp_path, monkeypatch):
        # one ladder build yields both schemes' Hamiltonians, each checked for
        # Hermiticity once; Wick's theorem builds the powers of D (D to D^3 whole,
        # D^4 at k = 0), shared by both Hamiltonians and the D route's E, and B^2
        calls = {"build": 0, "powers": 0, "hermitian": 0}
        build, powers = maxwell._route_hamiltonians, maxwell.linear_field_powers
        is_hermitian = BosonicPolynomial.is_hermitian

        def counted_build(*args, **kwargs):
            calls["build"] += 1
            hamiltonians, ladder = build(*args, **kwargs)
            assert list(hamiltonians) == list(ROUTES)
            return hamiltonians, ladder

        def counted_powers(*args, **kwargs):
            calls["powers"] += 1
            return powers(*args, **kwargs)

        def counted_is_hermitian(self, *args, **kwargs):
            calls["hermitian"] += 1
            return is_hermitian(self, *args, **kwargs)

        monkeypatch.setattr(maxwell, "_route_hamiltonians", counted_build)
        monkeypatch.setattr(maxwell, "linear_field_powers", counted_powers)
        monkeypatch.setattr(BosonicPolynomial, "is_hermitian", counted_is_hermitian)
        medium = write_medium(tmp_path, [0.6, 0.2, -0.15])
        assert main(["verify", "--medium", medium, "--modes", "3",
                     "--out", str(tmp_path / "reports")]) == 0
        assert calls == {"build": 1, "powers": 2, "hermitian": 2}


class TestCompare:
    @pytest.mark.parametrize("order,expected", [(2, -2.0), (3, -3.0), (30, -30.0)])
    def test_coefficient(self, tmp_path, order, expected):
        out = tmp_path / "cmp"
        assert main(["compare", "--order", str(order), "--observable", "coefficient",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["ratio"] == pytest.approx(expected, abs=1e-12)
        assert doc["truncation_safe"] is True
        assert doc["passed"] is True

    def test_conversion(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--order", "2", "--observable", "conversion",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["ratio"] == pytest.approx(4.0, abs=1e-3)

    @pytest.mark.parametrize("observable, module, function", [
        ("coefficient", hamiltonian, "compare_coefficients"),
        ("conversion", dynamics, "compare_schemes"),
    ], ids=["coefficient", "conversion"])
    def test_missed_ratio_exits_1_with_a_fail_line(self, tmp_path, capsys, monkeypatch,
                                                   observable, module, function):
        # the built report with its ratio moved by 1e-3, past either tolerance
        built = getattr(module, function)

        def missed(*args):
            report = built(*args)
            return ComparisonReport(**{**vars(report), "ratio": report.ratio * (1 + 1e-3)})

        monkeypatch.setattr(module, function, missed)
        out = tmp_path / "cmp"
        assert main(["compare", "--order", "2", "--observable", observable,
                     "--out", str(out)]) == 1
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["passed"] is False
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"{observable} order 2: ratio {doc['ratio']:.6g} "
            f"(expected {doc['expected_ratio']:.6g}) -> FAIL")

    @pytest.mark.parametrize("observable", ["coefficient", "squeezing", "conversion"])
    def test_order_whose_orderings_overflow_exits_2_before_any_build(self, tmp_path, capsys,
                                                                     monkeypatch, observable):
        # (n + 1)! is checked in O(1): no medium of n entries, no n + 1 modes
        def unreachable(*args, **kwargs):
            raise AssertionError("built a medium or a mode set for a refused order")

        monkeypatch.setattr(hamiltonian, "MediumSpec", unreachable)
        monkeypatch.setattr(hamiltonian, "pure_order_modeset", unreachable)
        out = tmp_path / "cmp"
        assert main(["compare", "--order", "100000", "--observable", observable,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: --order 100000: the (n + 1)! orderings of the "
                                           "resonant coefficient overflow a float\n")
        assert not out.exists()

    def test_coefficient_past_a_float_exits_2_naming_the_order(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--order", "145", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --order 145: the coefficient of a degree-146 monomial in D^146 is no finite "
            "float: (inf+0j)\n")
        assert not out.exists()

    @pytest.mark.parametrize("order", [16, 100])
    def test_squeezing_chain_past_the_bound_exits_2_at_once(self, tmp_path, capsys, monkeypatch,
                                                            order):
        # order 16's chain holds 2081 states and once ran past 300 s; from order
        # 96 on tanh(0.2 n) rounds to 1 and no cutoff keeps the edge empty
        monkeypatch.setattr(dynamics, "eigh_tridiagonal", None)  # never diagonalized
        out = tmp_path / "cmp"
        assert main(["compare", "--observable", "squeezing", "--order", str(order),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --order {order}: the chain from (0, 0) holds more than "
            "MAX_CHAIN_STATES = 2048 states\n")
        assert not out.exists()

    @pytest.mark.parametrize("order", [4, 5, 6])
    def test_squeezing_default_cutoff_is_truncation_safe(self, tmp_path, capsys, order):
        # at cutoff 16 these orders pass the edge population limit; order 6 also missed
        # its ratio there (5.99728 against 6 +/- 6e-4)
        out = tmp_path / "cmp"
        assert main(["compare", "--observable", "squeezing", "--order", str(order),
                     "--out", str(out)]) == 0
        assert "truncation-unsafe" not in capsys.readouterr().err
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["truncation_safe"] is True
        assert doc["passed"] is True

    def test_truncation_unsafe_squeezing_does_not_pass(self):
        # the order-4 squeezing comparison at the old fixed cutoff of 16
        from dquant.dynamics import EvolutionConfig, spdc_squeezing

        pair = spdc_squeezing(0.05, -4.0, EvolutionConfig(n_max=16, t_final=0.2 / 0.05, steps=8))
        report = ComparisonReport(observable="squeezing", order=4, value_correct=pair.correct,
                                  value_wrong=pair.wrong, ratio=abs(pair.ratio),
                                  expected_ratio=4.0, tolerance=1e-4 * 4,
                                  truncation_safe=pair.truncation_safe)
        assert report.truncation_safe is False
        assert abs(report.ratio - report.expected_ratio) <= report.tolerance
        assert report.passed is False
        assert report.to_dict()["truncation_safe"] is False


class TestPhasematch:
    def test_curve_values(self, tmp_path):
        out = tmp_path / "pm"
        assert main(["phasematch", "--length", "2.0", "--dk-min", "0", "--dk-max",
                     "3.141592653589793", "--points", "3", "--out", str(out)]) == 0
        lines = (out / "phase_matching.csv").read_text().strip().splitlines()
        assert lines[0] == "delta_k,phi2"
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first[1] == pytest.approx(1.0)  # phi(0) = 1
        assert last[1] == pytest.approx(0.0, abs=1e-30)  # dk L/2 = pi

    def test_out_below_a_file_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "file" / "sub"
        out.parent.write_text("")
        assert main(["phasematch", "--points", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err


class TestSweeps:
    def test_spdc_outputs(self, tmp_path):
        out = tmp_path / "spdc"
        assert main(["spdc", "--n-max", "12", "--time", "0.7", "--steps", "6",
                     "--out", str(out)]) == 0
        result = json.loads((out / "spdc_result.json").read_text())
        assert result["ratio"] == pytest.approx(2.0, abs=1e-4)
        interaction = json.loads((out / "interaction.json").read_text())
        assert interaction["ratio"] == -2.0
        assert {"re", "im"} == set(interaction["theta"])
        csv_lines = (out / "spdc_sweep.csv").read_text().splitlines()
        assert csv_lines[0] == "t,observable,scheme"
        assert any(line.endswith("correct") for line in csv_lines[1:])

    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_interaction_is_the_built_coupling(self, tmp_path, units):
        # theta and the ratio of interaction.json are the resonant builder's
        # D coefficient and E/D on the triple m = 1, 2, 3 over --length
        from dquant.hamiltonian import pure_order_modeset, scheme_resonant_coefficients
        from dquant.susceptibility import load_medium

        path = tmp_path / "medium.json"
        path.write_text(json.dumps({"units": units, "dim": 1, "chi": {"1": [0.5], "2": [0.3]}}))
        out = tmp_path / "spdc"
        assert main(["spdc", "--medium", str(path), "--length", "1.7", "--n-max", "4",
                     "--time", "0.5", "--steps", "2", "--out", str(out)]) == 0
        medium = load_medium(path)
        ms, monomial = pure_order_modeset(2, sqrt(1.5), medium.units)
        built = scheme_resonant_coefficients(ms, medium, monomial, 1.7)
        text = (out / "interaction.json").read_text()
        assert '"ratio": -2.0,' in text  # the serializer's 12 digits of the built E/D
        doc = json.loads(text)
        assert doc["ratio"] == pytest.approx((built["E-linear-wrong"] / built["D-based"]).real,
                                             rel=1e-12)
        theta = complex(doc["theta"]["re"], doc["theta"]["im"])
        assert theta == pytest.approx(built["D-based"], rel=1e-12)
        assert (doc["delta_k"], doc["phi"]) == (0.0, 1.0)

    def test_convert_outputs(self, tmp_path):
        out = tmp_path / "conv"
        assert main(["convert", "--n-max", "4", "--time", "0.5", "--steps", "5",
                     "--out", str(out)]) == 0
        result = json.loads((out / "conversion_result.json").read_text())
        assert 0.0 <= result["p_correct"] <= 1.0

    def test_json_sweep_format(self, tmp_path):
        out = tmp_path / "conv"
        assert main(["convert", "--n-max", "4", "--time", "0.5", "--steps", "3",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads((out / "conversion_sweep.json").read_text())
        assert doc["rows"][0]["scheme"] == "correct"

    def test_byte_identical_reruns(self, tmp_path):
        medium = write_medium(tmp_path, [0.2, 0.4])
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["spdc", "--medium", medium, "--n-max", "10", "--time", "1.5",
                         "--steps", "4", "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("interaction.json", "spdc_sweep.csv", "spdc_result.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_quantum_pump_spdc(self, tmp_path):
        out = tmp_path / "spdc"
        assert main(["spdc", "--pump", "quantum", "--n-max", "6", "--time", "0.3",
                     "--steps", "3", "--out", str(out)]) == 0
        result = json.loads((out / "spdc_result.json").read_text())
        assert 0.0 < result["r_correct"] < result["r_wrong"]
        assert result["ratio"] == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("pump", ["1.0", "quantum"])
    def test_defaults_are_truncation_safe(self, tmp_path, capsys, pump):
        out = tmp_path / pump
        assert main(["spdc", "--pump", pump, "--out", str(out)]) == 0
        assert "truncation-unsafe" not in capsys.readouterr().err
        result = json.loads((out / "spdc_result.json").read_text())
        assert result["truncation_safe"] is True
        if pump != "quantum":
            assert result["ratio"] == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("command, result", [
        ("spdc", "spdc_result.json"), ("convert", "conversion_result.json")])
    def test_truncation_unsafe_run_warns(self, tmp_path, capsys, command, result):
        out = tmp_path / command
        assert main([command, "--n-max", "2", "--out", str(out)]) == 0
        assert "truncation-unsafe" in capsys.readouterr().err
        assert json.loads((out / result).read_text())["truncation_safe"] is False

    def test_chain_past_the_bound_exits_2_at_once(self, tmp_path, capsys, monkeypatch):
        # the squeezer's chain holds n_max + 1 states: refused before any is diagonalized
        monkeypatch.setattr(dynamics, "eigh_tridiagonal", None)
        out = tmp_path / "spdc"
        assert main(["spdc", "--n-max", "2048", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --n-max 2048: the chain from (0, 0) holds more than MAX_CHAIN_STATES = "
            "2048 states\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["invert", "verify", "compare", "phasematch"])
    def test_format_only_where_it_is_read(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", "json"])
        assert exc.value.code == 2

    def test_quantum_pump_convert_exits_2(self, capsys):
        # only spdc evolves a quantized pump; convert's parser refuses it
        with pytest.raises(SystemExit) as exc:
            main(["convert", "--pump", "quantum", "--n-max", "4"])
        assert exc.value.code == 2
        assert "argument --pump" in capsys.readouterr().err

    @pytest.mark.parametrize("command, quantum", [("spdc", True), ("convert", False)])
    def test_help_offers_the_quantum_pump_only_to_spdc(self, capsys, command, quantum):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert ("'quantum'" in capsys.readouterr().out) is quantum

    def test_malformed_pump_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["spdc", "--pump", "strong"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["spdc", "convert"])
    def test_zero_time_exits_2(self, command):
        assert main([command, "--n-max", "4", "--time", "0"]) == 2

    @pytest.mark.parametrize("command", ["spdc", "convert"])
    def test_medium_without_chi2_exits_2(self, tmp_path, command):
        medium = write_medium(tmp_path, [0.5])
        assert main([command, "--medium", medium, "--n-max", "4"]) == 2

    @pytest.mark.parametrize("command, result, value, ratio", [
        ("spdc", "spdc_result.json", "r_correct", 2.0),
        ("convert", "conversion_result.json", "p_correct", 4.0),
    ], ids=["spdc", "convert"])
    def test_si_coupling_survives_pruning(self, tmp_path, command, result, value, ratio):
        # hbar g ~ 1e-46 J lies below the absolute pruning threshold; the
        # rate g ~ 2e-12 1/s does not
        path = tmp_path / "si.json"
        path.write_text(json.dumps({"units": "si", "dim": 1,
                                    "chi": {"1": [1.25], "2": [1e-12]}}))
        out = tmp_path / command
        t = 0.5
        assert main([command, "--medium", str(path), "--n-max", "4", "--time", str(t),
                     "--steps", "2", "--out", str(out)]) == 0
        doc = json.loads((out / result).read_text())
        theta = json.loads((out / "interaction.json").read_text())["theta"]
        g = abs(complex(theta["re"], theta["im"])) / units_from_name("si").hbar
        assert 1e-13 < g < 1e-10
        gt = g * t
        want = gt if command == "spdc" else np.sin(gt) ** 2
        assert doc[value] == pytest.approx(want, rel=1e-9)
        assert abs(doc["ratio"]) == pytest.approx(ratio, rel=1e-9)


NON_FINITE_OR_ZERO = [
    (["spdc", "--time", "nan"], "--time: evolution time"),
    (["convert", "--time", "nan"], "--time: evolution time"),
    (["spdc", "--time", "inf"], "--time: evolution time"),
    (["spdc", "--n-max", "1"], "--n-max: fock cutoff must be at least 2, got 1"),
    (["convert", "--n-max", "1"], "--n-max: fock cutoff must be at least 2, got 1"),
    (["spdc", "--steps", "0"], "--steps: need at least one evolution step, got 0"),
    (["convert", "--steps", "0"], "--steps: need at least one evolution step, got 0"),
    (["spdc", "--pump", "nan"], "pump amplitude"),
    (["convert", "--pump", "inf"], "pump amplitude"),
    (["spdc", "--pump", "0"], "pump amplitude"),
    (["convert", "--pump", "0"], "pump amplitude"),
    (["spdc", "--length", "nan"], "--length: interaction length"),
    (["convert", "--length", "inf"], "--length: interaction length"),
    (["spdc", "--length", "0"], "--length: interaction length"),
    (["convert", "--length", "0"], "--length: interaction length"),
    (["phasematch", "--length", "nan"], "--length: interaction length"),
    (["phasematch", "--length", "inf"], "--length: interaction length"),
    (["phasematch", "--length", "0"], "--length: interaction length"),
    (["phasematch", "--dk-min", "nan"], "--dk-min"),
    (["phasematch", "--dk-min", "inf"], "--dk-min"),
    (["phasematch", "--dk-max", "nan"], "--dk-max"),
    (["phasematch", "--points", "0"], "--points"),
    (["verify", "--l-box", "nan"], "--l-box: box length"),
    (["verify", "--l-box", "inf"], "--l-box: box length"),
    (["verify", "--l-box", "-1"], "--l-box: box length"),
    (["verify", "--modes", "0"], "--modes must be at least 1"),
    (["verify", "--modes", "-2"], "--modes must be at least 1"),
]


@pytest.mark.parametrize("argv, message", NON_FINITE_OR_ZERO,
                         ids=["-".join(argv) for argv, _ in NON_FINITE_OR_ZERO])
def test_non_finite_or_zero_input_exits_2_naming_it(tmp_path, capsys, argv, message):
    # a NaN passes every `x <= 0` guard and would reach the JSON as NaN (not
    # JSON) or fail far from the argument that caused it; a length or mode
    # count is checked where the command reads its flag, so the error names
    # the flag and never blames the medium
    if argv[0] == "verify":
        argv = [*argv, "--medium", write_medium(tmp_path, [0.5, 0.3])]
    if argv[0] in ("spdc", "convert") and "--n-max" not in argv:
        argv = [*argv, "--n-max", "4"]
    out = tmp_path / "out"
    try:
        code = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects a malformed option value
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "error: medium" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, t", [(["spdc", "--time", "8e307"], "1.6e+308"),
                                     (["convert", "--time", "1e308"], "inf")],
                         ids=["spdc", "convert"])
def test_time_whose_phase_overflows_exits_2_naming_it(tmp_path, capsys, argv, t):
    # the wrong route samples at |ratio| times --time, so a finite --time can
    # still give a phase w t that is no finite float, which sin() rejects
    # without naming the option
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --time {float(argv[2]):g}: the phase w t = inf at t = {t} reaches 2^53, "
        "where a float keeps no digit of its angle mod 2 pi\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["convert", "--time", "1e300"], ["spdc", "--time", "1e20"]],
                         ids=["convert", "spdc"])
def test_time_whose_phase_keeps_no_digit_exits_2_writing_nothing(tmp_path, capsys, argv):
    # from 2^53 on a float phase w t is an even integer, so sin and cos of it
    # are noise: convert --time 1e300 once exited 0 with a truncation-safe
    # flag and noise for P; spdc's fit holds at 1e20, so the phase is named
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --time {float(argv[2]):g}: the phase w t = ")
    assert "reaches 2^53" in err
    assert not out.exists()


@pytest.mark.parametrize("time, phase", [("1e154", "1.42753e+155"), ("1e300", "1.42753e+301")],
                         ids=["1e154", "1e300"])
def test_time_whose_fit_overflows_exits_2_writing_nothing(tmp_path, capsys, time, phase):
    # the sinh^2 fit's sum of t^2 overflows here: its r once read 0 on both
    # routes, and the nan ratio failed only the third file, after two had
    # been written. The phase w t of the wrong route (t = 2 --time) passes
    # 2^53 long before, and evolve refuses it first
    out = tmp_path / "out"
    assert main(["spdc", "--time", time, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --time {float(time):g}: the phase w t = {phase} at t = {2 * float(time):g} "
        "reaches 2^53, where a float keeps no digit of its angle mod 2 pi\n")
    assert not out.exists()


@pytest.mark.parametrize("pump", ["1", "quantum"])
def test_time_whose_fit_underflows_exits_2_writing_nothing(tmp_path, capsys, pump):
    # the sinh^2 fit's sum of t^2 underflows to 0: dividing by it once ended
    # in a ZeroDivisionError traceback under exit 1
    out = tmp_path / "out"
    assert main(["spdc", "--pump", pump, "--time", "1e-300", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --time 1e-300: the fit's sum of t^2 underflows "
                                       "to 0 at t = 1e-300\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, chis", [
    (["spdc", "--pump", "1e-15"], None),
    (["spdc", "--pump", "1e-16"], None),
    (["convert", "--pump", "1e-20"], None),
    (["spdc", "--length", "1e-300"], None),
    (["spdc", "--pump", "quantum", "--length", "1e-300"], None),
    (["spdc"], [0.5, 1e-300]),
    (["spdc"], [1e300, 0.3]),
    (["convert"], [1e300, 0.3]),
], ids=["spdc-pump-1e-15", "spdc-pump-1e-16", "convert-pump-1e-20", "spdc-length-1e-300",
        "quantum-length-1e-300", "spdc-chi2-1e-300", "spdc-chi1-1e300", "convert-chi1-1e300"])
def test_coupling_rate_at_prune_tol_exits_2_writing_nothing(tmp_path, capsys, argv, chis):
    # the generator prunes to the zero polynomial: nothing evolved, both routes
    # read 0 and the nan ratio once failed the JSON writer with no cause named
    medium = ["--medium", write_medium(tmp_path, chis)] if chis else []
    out = tmp_path / "out"
    assert main([*argv, *medium, "--n-max", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --medium, --length and --pump set too weak a coupling: the generator prunes "
        "to zero: every rate is at or below PRUNE_TOL = 1e-15\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["spdc", "convert"])
def test_coefficients_that_underflow_exit_2_writing_nothing(tmp_path, capsys, command):
    # at chi2 = 1e-300 over --length 1e-30 both routes' built coefficients
    # underflow to exactly 0, so their ratio E/D is undefined: the command
    # refuses the zero generator rather than end in a ZeroDivisionError
    from dquant.hamiltonian import pure_order_modeset, scheme_resonant_coefficients
    from dquant.susceptibility import load_medium

    medium = write_medium(tmp_path, [0.5, 1e-300])
    ms, monomial = pure_order_modeset(2, sqrt(1.5), load_medium(medium).units)
    built = scheme_resonant_coefficients(ms, load_medium(medium), monomial, 1e-30)
    assert built["D-based"] == built["E-linear-wrong"] == 0
    out = tmp_path / "out"
    assert main([command, "--medium", medium, "--length", "1e-30", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --medium, --length and --pump set too weak a coupling: the generator prunes "
        "to zero: every rate is at or below PRUNE_TOL = 1e-15\n")
    assert not out.exists()


def test_correct_route_reading_0_exits_2_writing_nothing(tmp_path, capsys):
    # P = sin^2(g t) underflows to 0 on the correct route: the ratio is undefined
    out = tmp_path / "out"
    assert main(["convert", "--time", "1e-300", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --time 1e-300: the correct route reads 0, which "
                                       "leaves the ratio wrong/correct undefined\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["spdc", "convert"])
def test_coupling_that_overflows_exits_2_naming_medium_and_length(tmp_path, capsys, command):
    # theta = -inf once reached the dynamics, which exited 2 with "Hamiltonian
    # not Hermitian", naming no flag or file
    medium = write_medium(tmp_path, [0.5, 1e300])
    out = tmp_path / "out"
    assert main([command, "--medium", medium, "--length", "1e300", "--n-max", "4",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --medium and --length set a three-wave coupling that overflows a float: "
        "theta = -inf, wrong route inf\n")
    assert not out.exists()


def test_verify_overflow_exits_2_naming_the_medium(tmp_path, capsys):
    # a coefficient norm of chi2 = 1e200 once overflowed in a traceback under exit 1
    medium = write_medium(tmp_path, [0.5, 1e200])
    out = tmp_path / "out"
    assert main(["verify", "--medium", medium, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: medium {medium}: a coefficient norm of the "
                                       "operator checks overflows a float\n")
    assert not out.exists()


@pytest.mark.parametrize("chi", [{"1": [float("nan")], "2": [0.3]},
                                 {"1": [0.5], "2": [float("inf")]}],
                         ids=["nan-chi1", "infinity-chi2"])
@pytest.mark.parametrize("command", [["invert"], ["verify"], ["spdc", "--n-max", "4"]],
                         ids=["invert", "verify", "spdc"])
def test_non_finite_medium_entries_exit_2_naming_the_file(tmp_path, chi, command, capsys):
    # json reads NaN and Infinity; they were once caught only by the JSON
    # writer, which names no file, or blamed on PRUNE_TOL by verify
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps({"units": "natural", "dim": 1, "chi": chi}))
    out = tmp_path / "out"
    assert main([*command, "--medium", str(path), "--out", str(out)]) == 2
    assert f"medium {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("chi1", [-1.0, -2.0])
@pytest.mark.parametrize("command", [["verify"], ["spdc", "--n-max", "4"],
                                     ["convert", "--n-max", "4"]],
                         ids=["verify", "spdc", "convert"])
def test_chi1_at_or_below_minus_one_exits_2_naming_the_file(tmp_path, command, chi1, capsys):
    # n = sqrt(1 + chi1) once raised ZeroDivisionError (exit 1, a traceback)
    # at chi1 = -1 and a bare "math domain error" below it
    path = write_medium(tmp_path, [chi1, 0.3])
    out = tmp_path / "out"
    assert main([*command, "--medium", path, "--out", str(out)]) == 2
    assert f"medium {path}: 1 + chi1 = {1.0 + chi1} must be positive" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("chis", [[-0.5, 0.3], [-0.999999999999999, 0.3],
                                  [-0.9999999999, 1e300]],
                         ids=["chi1-minus-half", "near-zero-index", "eta2-overflow"])
@pytest.mark.parametrize("command", [["verify"], ["spdc", "--n-max", "4"],
                                     ["convert", "--n-max", "4"]],
                         ids=["verify", "spdc", "convert"])
def test_index_below_one_exits_2_naming_the_file(tmp_path, command, chis, capsys):
    # 0 < 1 + chi1 < 1: the box modes of every command need n >= 1. verify
    # once exited 2 naming no file, and spdc and convert once accepted the
    # medium, or failed in the inverse series naming no file
    path = write_medium(tmp_path, chis)
    out = tmp_path / "out"
    assert main([*command, "--medium", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: medium {path}: refractive index {sqrt(1.0 + chis[0])} must be >= 1\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["invert"], ["verify"], ["spdc", "--n-max", "4"],
                                     ["convert", "--n-max", "4"]],
                         ids=["invert", "verify", "spdc", "convert"])
def test_dim_3_medium_exits_2_naming_the_file_and_the_scalar_requirement(tmp_path, command,
                                                                         capsys):
    # invert once read a dim = 3 medium as row-major tensors and exited 0
    path = tmp_path / "dim3.json"
    chi1 = [0.5, 0.0, 0.0, 0.0, 0.6, 0.0, 0.0, 0.0, 0.7]
    path.write_text(json.dumps({"units": "natural", "dim": 3,
                                "chi": {"1": chi1, "2": [0.1] * 27}}))
    out = tmp_path / "out"
    assert main([*command, "--medium", str(path), "--out", str(out)]) == 2
    assert f"medium {path}: this command runs on a scalar (dim=1) medium, not dim=3" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_dumps_refuses_nan():
    with pytest.raises(ValueError):
        dumps({"ratio": float("nan")})


def test_import_leaves_scipy_sparse_and_optimize_unloaded():
    # the package holds no name of a submodule: importing it loads no submodule, numpy or scipy
    code = ("import sys, dquant; print(sorted(m for m in sys.modules "
            "if m.startswith(('dquant.', 'numpy', 'scipy'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: the modules of the exact algebra and the dynamics, which import neither numpy nor scipy
ALGEBRA_MODULES = ("boson_algebra", "fields", "modes", "maxwell", "susceptibility",
                   "hamiltonian", "serialize", "linalg", "dynamics")


def test_algebra_modules_leave_numpy_unloaded():
    # importing the algebra, and building the coupling of the CLI's default
    # triple, loads neither numpy nor scipy
    code = "\n".join([
        "import sys",
        "import " + ", ".join(f"dquant.{m}" for m in ALGEBRA_MODULES),
        "from dquant.cli import build_parser",
        "from dquant.commands.sweep import _interaction_from_args",
        "theta, ratio, _, doc = _interaction_from_args(build_parser('spdc').parse_args([]))",
        "assert theta != 0 and abs(ratio + 2) < 1e-15 and doc['phi'] == 1.0",
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'scipy'))))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: the dquant modules every command imports, besides its own module of dquant.commands
CLI_CORE = {"cli", "commands", "record", "serialize", "units"}
#: the library closure of a dynamical compare, which builds its route ratio
#: with the resonant builder on a pure order-n medium
DYNAMICS = {"boson_algebra", "dynamics", "hamiltonian", "linalg", "modes", "susceptibility"}


#: (argv, module it runs, modules it must not import, its dquant import closure)
COMMAND_CLOSURES = [
    (["invert"], "susceptibility",
     ("boson_algebra", "modes", "fields", "hamiltonian", "dynamics", "maxwell"),
     CLI_CORE | {"commands.invert", "susceptibility"}),
    (["verify", "--modes", "1"], "maxwell", ("hamiltonian", "dynamics"),
     CLI_CORE | {"commands.verify", "boson_algebra", "fields", "maxwell", "modes",
                 "susceptibility"}),
    (["compare", "--observable", "coefficient"], "hamiltonian",
     ("boson_algebra", "dynamics", "fields", "maxwell"),
     CLI_CORE | {"commands.compare", "hamiltonian", "modes", "susceptibility"}),
    (["phasematch", "--points", "3"], "modes", ("dynamics", "hamiltonian", "linalg", "maxwell"),
     CLI_CORE | {"commands.phasematch", "modes"}),
    (["spdc", "--n-max", "8", "--time", "0.5", "--steps", "2"], "dynamics",
     ("fields", "maxwell"), CLI_CORE | {"commands.sweep"} | DYNAMICS),
    (["convert", "--n-max", "4", "--time", "0.5", "--steps", "2"], "dynamics",
     ("fields", "maxwell"), CLI_CORE | {"commands.sweep"} | DYNAMICS),
    (["compare", "--observable", "squeezing"], "dynamics", ("fields", "maxwell"),
     CLI_CORE | {"commands.compare"} | DYNAMICS),
    (["compare", "--observable", "conversion"], "dynamics", ("fields", "maxwell"),
     CLI_CORE | {"commands.compare"} | DYNAMICS),
    (["spdc", "--pump", "quantum", "--n-max", "4", "--time", "0.5", "--steps", "2"], "dynamics",
     ("fields", "maxwell"), CLI_CORE | {"commands.sweep"} | DYNAMICS),
]


@pytest.mark.parametrize("argv, runs, unused, closure", COMMAND_CLOSURES,
                         ids=["invert", "verify", "compare-coefficient", "phasematch", "spdc",
                              "convert", "compare-squeezing", "compare-conversion",
                              "spdc-quantum"])
def test_dynamics_commands_leave_scipy_unloaded(tmp_path, argv, runs, unused, closure):
    # each command imports only the modules it runs, and none of them loads
    # scipy or numpy: the dynamics diagonalizes in pure Python; nor
    # dataclasses (with inspect) or logging, which cost start-up only
    if argv[0] in ("invert", "verify"):
        argv = [*argv, "--medium", write_medium(tmp_path, [0.5, 0.3])]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "dquant", *argv,
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert f"dquant.{runs}" in imported
    assert not {f"dquant.{u}" for u in unused} & set(imported)
    # with no cached bytecode every module imported is compiled: none beyond the closure
    assert {m.split(".", 1)[1] for m in imported if m.startswith("dquant.")} == closure
    assert not [m for m in imported if m.split(".")[0] in ("scipy", "numpy")]
    # what the interpreter's start-up (site hooks included) loads is not the command's
    first = next(i for i, m in enumerate(imported) if m.split(".")[0] == "dquant")
    assert not {"dataclasses", "inspect", "logging"} & set(imported[first:])


@pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["no-command", "unknown-command"])
def test_no_command_or_an_unknown_one_exits_2_naming_the_commands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dquant [-h] {invert,verify,compare,phasematch,spdc,convert}")
    assert "dquant: error: " in err


def test_help_lists_every_command_with_its_help_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, (help_line, _) in COMMANDS.items():
        assert f"    {name:<20}{help_line}" in lines


def test_unrecognized_argument_is_reported_by_the_commands_parser(capsys):
    # not by the top-level parser with dquant's usage: the command's own
    # parser reports it, with a usage line that lists the command's options
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage: dquant invert [-h] [--out OUT] [--medium MEDIUM] [--order ORDER]",
        "dquant invert: error: unrecognized arguments: --bogus"]


def test_top_level_help_imports_no_command_module():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "dquant", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "dquant.cli" in imported
    assert [m for m in imported if m.startswith("dquant.commands")] == []


def test_command_table_and_commands_package_agree():
    # every module the table names exists and runs a command, and every
    # module of the package is named by the table
    package = Path(dquant.__file__).parent / "commands"
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert {module for _, module in COMMANDS.values()} == modules
    for module in modules:
        command = importlib.import_module(f"dquant.commands.{module}")
        assert callable(command.add_arguments) and callable(command.run)


def test_every_module_is_some_commands_module():
    # a module outside every command's closure is code no command reaches
    reached = set().union(*(closure for *_, closure in COMMAND_CLOSURES))
    src = Path(dquant.__file__).parent
    modules = set()
    for path in src.rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        modules.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    assert reached == modules - {"", "__main__"}


@pytest.mark.parametrize("dependency", ["scipy", "numpy", "logging"])
def test_no_module_imports(dependency):
    # scipy and numpy are test dependencies only, and nothing logs: no module
    # of the package imports them
    offenders = []
    for path in sorted(Path(dquant.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            offenders += [(path.name, n) for n in names if n.split(".")[0] == dependency]
    assert offenders == []


def test_module_entry_point(tmp_path):
    medium = write_medium(tmp_path, [0.0])
    proc = subprocess.run(
        [sys.executable, "-m", "dquant", "invert", "--medium", medium],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert '"eta"' in proc.stdout


#: the environment of a command whose redirected stdout is fully buffered
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_to_files(tmp_path, argv) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``python -m dquant ARGV``, each stream a file."""
    with open(tmp_path / "stdout", "wb") as out, open(tmp_path / "stderr", "wb") as err:
        code = subprocess.run([sys.executable, "-m", "dquant", *argv], stdout=out, stderr=err,
                              env=BUFFERED_ENV).returncode
    return code, (tmp_path / "stdout").read_bytes(), (tmp_path / "stderr").read_bytes()


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_redirected_stdout_is_flushed_before_the_hard_exit(tmp_path, name):
    # os._exit skips the interpreter's flush of a fully buffered stdout:
    # entry_point flushes it first, so the file holds every byte
    code, out, err = run_to_files(tmp_path, golden_argv(STDOUT_CASES[name], tmp_path))
    assert (code, err) == (0, b"")
    assert out == (GOLDEN / name).read_bytes()


def test_stdout_past_one_buffer_equals_the_out_file(tmp_path):
    argv = ["phasematch", "--points", "1001"]
    code, out, err = run_to_files(tmp_path, argv)
    assert (code, err) == (0, b"")
    assert len(out) > 8192
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert out == (tmp_path / "out" / "phase_matching.csv").read_bytes()


def test_input_error_line_reaches_stderr_before_the_hard_exit(tmp_path):
    code, out, err = run_to_files(tmp_path, ["compare", "--order", "1"])
    assert (code, out) == (2, b"")
    assert err == b"error: --order 1: the routes differ only for nonlinear orders n >= 2\n"


def test_closed_stdout_is_an_input_error_naming_out():
    # a process started with file descriptor 1 closed has sys.stdout = None
    proc = subprocess.run(f"{shlex.quote(sys.executable)} -m dquant phasematch >&-", shell=True,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == ("error: stdout is closed: write phase_matching.csv to a directory "
                           "with --out\n")


class BrokenStdout(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stdout, exits", [(io.StringIO, "_exit"), (BrokenStdout, "exit"),
                                           (lambda: None, "exit")],
                         ids=["working", "broken", "none"])
def test_entry_point_exits_at_once_only_after_both_streams_flush(monkeypatch, tmp_path,
                                                                 stdout, exits):
    # a stream that cannot be flushed leaves the interpreter's exit to report it
    calls = []

    def sys_exit(code):
        calls.append(("exit", code))
        raise SystemExit(code)

    monkeypatch.setattr(os, "_exit", lambda code: calls.append(("_exit", code)))
    monkeypatch.setattr(sys, "exit", sys_exit)
    monkeypatch.setattr(sys, "stdout", stdout())
    monkeypatch.setattr(sys, "argv", ["dquant", "compare", "--order", "2", "--out", str(tmp_path)])
    with contextlib.suppress(SystemExit):
        entry_point()
    assert calls == [(exits, 0)]


def test_console_script_is_the_entry_point():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    section = pyproject.read_text().split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert section == 'dquant = "dquant.cli:entry_point"'
