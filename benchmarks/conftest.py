"""Shared infrastructure for the figure-reproduction benchmarks.

Each benchmark regenerates one paper figure's series, times the run via
pytest-benchmark, prints the rows (visible with ``pytest -s`` or in the
saved reports), and writes the same text to ``benchmarks/results/<name>.txt``
so EXPERIMENTS.md claims can be re-checked without rerunning.

The scale benchmarks' performance records (``BENCH_*.json`` and their
``BENCH_*.txt`` reports) hold host-dependent wall times, so a plain run
asserts every floor but leaves the committed records untouched; set
``REPRO_BENCH_RECORD=1`` to refresh them.  Figure reports are
deterministic and always written.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Opt-in for rewriting the committed ``BENCH_*`` performance records.
RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"


@pytest.fixture
def report():
    """Callable ``report(name, text)``: print and persist a report
    (``BENCH_*`` reports only under ``REPRO_BENCH_RECORD=1``)."""
    def _report(name: str, text: str) -> None:
        if RECORD or not name.startswith("BENCH_"):
            RESULTS_DIR.mkdir(exist_ok=True)
            path = RESULTS_DIR / f"{name}.txt"
            path.write_text(text + "\n")
        print()
        print(text)
    return _report


@pytest.fixture
def bench_json():
    """Callable ``bench_json(name, record, merge=False)``: persist a perf
    record as ``results/<name>.json`` under ``REPRO_BENCH_RECORD=1``.

    With ``merge`` the record's top-level keys update the existing file
    instead of replacing it (several tests share one record and run in
    any order).
    """
    def _write(name: str, record: dict, merge: bool = False) -> None:
        if not RECORD:
            return
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.json"
        if merge and path.exists():
            try:
                record = {**json.loads(path.read_text()), **record}
            except ValueError:
                pass
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return _write


@pytest.fixture
def once(benchmark):
    """Run a figure generator exactly once under pytest-benchmark timing.

    Figure pipelines are deterministic simulations taking 0.1-10 s; classic
    multi-round statistical timing would quintuple the suite's cost for no
    extra information.
    """
    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)
    return _once
