"""Bench trajectory rows are recorded on purpose only.

A plain test run must leave ``benchmarks/BENCH_*.json`` (and therefore
``git status``) untouched; the CI fast-path lane asks for a row with
``REPRO_BENCH_RECORD=1``.
"""

import importlib.util
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SPEC = importlib.util.spec_from_file_location(
    "bench_conftest", os.path.join(REPO_ROOT, "benchmarks", "conftest.py"))
bench_conftest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_conftest)


def _finish_session(monkeypatch, tmp_path):
    # Point the conftest at a scratch directory and hand it one bench row.
    monkeypatch.setattr(bench_conftest, "__file__",
                        str(tmp_path / "conftest.py"))
    monkeypatch.setattr(bench_conftest, "_TRAJECTORY",
                        {"probe": {"bench": {"metric": 1.0}}})
    bench_conftest.pytest_sessionfinish(None, 0)
    return tmp_path / "BENCH_probe.json"


def test_plain_runs_record_no_rows(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
    assert not _finish_session(monkeypatch, tmp_path).exists()


def test_recording_appends_a_row_when_asked(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    path = _finish_session(monkeypatch, tmp_path)
    rows = json.loads(path.read_text())["rows"]
    assert [row["benches"] for row in rows] == [{"bench": {"metric": 1.0}}]
