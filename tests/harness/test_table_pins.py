"""Tables 2–4 rows against their pinned digests at quick scale.

Each row's digest covers its result functions and all of its counts
(``benchmarks/table_digests.json``), so a change to any method's
result set fails here with the names of the rows it changed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness import pin_mismatches, population_specs
from repro.harness.experiments import (compound_approx_rows,
                                       decomposition_rows,
                                       simple_approx_rows)

PINS = json.loads((Path(__file__).resolve().parents[2] / "benchmarks"
                   / "table_digests.json").read_text())
#: The two largest adder carries take about three quarters of a sweep;
#: the quick-scale table benchmarks check their rows.
SKIPPED = ("adder_carry14", "adder_carry16")
#: The quick scale's population node threshold.
QUICK_MIN_NODES = 300


@pytest.mark.parametrize("table, worker", [
    ("table2", simple_approx_rows),
    ("table3", compound_approx_rows),
    ("table4", decomposition_rows)])
def test_rows_match_pins(table, worker):
    rows = [row for spec in population_specs()
            if spec.name not in SKIPPED
            for row in worker((spec, QUICK_MIN_NODES))["rows"]]
    pins = {key: pin for key, pin in PINS[table].items()
            if key not in SKIPPED}
    assert len(pins) == 30
    mismatches = pin_mismatches(pins, rows)
    assert not mismatches, f"{table} rows differ from " \
        f"table_digests.json:\n" + "\n".join(mismatches)
