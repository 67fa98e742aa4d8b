"""Tests for unit conversions at the CLI boundary."""

import pytest

from pulsemass.units import convert_units


class TestConvertUnits:
    def test_millijoule_to_erg(self):
        assert convert_units(10.0, "energy", "mJ", "erg") == pytest.approx(1e5, rel=1e-15, abs=0)

    def test_joule_to_erg(self):
        assert convert_units(1.0, "energy", "J", "erg") == 1e7

    def test_micron_to_cm(self):
        assert convert_units(1.0, "length", "um", "cm") == pytest.approx(1e-4, rel=1e-15, abs=0)

    def test_intensity(self):
        assert convert_units(1e10, "intensity", "W/cm2", "erg/s/cm2") == \
            pytest.approx(1e17, rel=1e-15, abs=0)

    def test_field(self):
        assert convert_units(1.0, "field", "statvolt/cm", "V/m") == \
            pytest.approx(2.99792458e4, rel=1e-15, abs=0)

    def test_mass(self):
        assert convert_units(1.0, "mass", "kg", "g") == 1e3

    def test_magnetic_field(self):
        assert convert_units(1.0, "magnetic_field", "T", "G") == 1e4

    @pytest.mark.parametrize("kind,a,b", [
        ("energy", "J", "erg"),
        ("length", "m", "um"),
        ("time", "ps", "fs"),
        ("field", "V/m", "statvolt/cm"),
        ("mass", "kg", "g"),
        ("intensity", "W/cm2", "erg/s/cm2"),
    ])
    def test_round_trip(self, kind, a, b):
        x = 1.2345678901234567
        back = convert_units(convert_units(x, kind, a, b), kind, b, a)
        assert back == pytest.approx(x, rel=1e-15, abs=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            convert_units(1.0, "charge", "C", "esu")

    def test_unknown_unit(self):
        with pytest.raises(ValueError, match="unit"):
            convert_units(1.0, "energy", "eV", "erg")
