"""Report records: non-finite errors fail the report and serialize strictly."""

import json
import math

import pytest

from fractrace.report import VerificationReport, reports_to_csv, reports_to_json


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_error_fails_report(bad):
    rep = VerificationReport("demo", "1/2", 1)
    rep.record(True, 1e-12)
    rep.record(True, bad)
    rep.record(True, 1e-3)
    assert rep.status == "fail"
    assert not math.isfinite(rep.max_rel_err)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_error_is_json_null(bad):
    rep = VerificationReport("demo", "1/2", 1)
    rep.record(True, bad)
    text = reports_to_json([rep])
    assert json.loads(text)[0]["max_rel_err"] is None
    assert "NaN" not in text and "Infinity" not in text


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_error_is_csv_nan(bad):
    rep = VerificationReport("demo", "1/2", 1)
    rep.record(True, bad)
    ok = VerificationReport("demo", "3/2", 1)
    ok.record(True, 0.25)
    lines = reports_to_csv([rep, ok]).splitlines()
    assert lines[1].split(",")[-1] == "nan"
    assert lines[2].split(",")[-1] == "2.500000000000e-01"
