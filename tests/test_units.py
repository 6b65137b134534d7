import pytest

from dquant.units import UNIT_PRESETS, UnitSystem


def test_si_preset_holds_the_codata_2018_constants():
    si = UNIT_PRESETS["si"]
    assert (si.eps0, si.mu0, si.hbar, si.c) == (8.8541878128e-12, 1.25663706212e-6,
                                                 1.054571817e-34, 299792458.0)


def test_natural_preset_is_the_default_system():
    assert UNIT_PRESETS["natural"] == UnitSystem()


def test_presets_are_frozen():
    # units_from_name hands every caller the same instance
    with pytest.raises(AttributeError, match="frozen UnitSystem"):
        UNIT_PRESETS["si"].hbar = 1.0
