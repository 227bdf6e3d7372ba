"""Unit-helper tests."""

from repro.common import units


def test_gb_to_mb():
    assert units.gb(160) == 163840.0
    assert units.gb(0.5) == 512.0


def test_fmt_duration_seconds():
    assert units.fmt_duration(3.25) == "3.2s"


def test_fmt_duration_minutes():
    assert units.fmt_duration(75) == "1m15.0s"


def test_fmt_duration_hours():
    assert units.fmt_duration(3725) == "1h2m5s"


def test_fmt_duration_negative():
    assert units.fmt_duration(-75) == "-1m15.0s"


def test_fmt_size_gb():
    assert units.fmt_size_mb(163840) == "160.0GB"


def test_fmt_size_mb_and_kb():
    assert units.fmt_size_mb(64) == "64.0MB"
    assert units.fmt_size_mb(0.5) == "512.0KB"
