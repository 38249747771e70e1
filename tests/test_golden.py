"""Golden gate: acceptance metrics and CLI outputs against a frozen record.

``tests/golden_metrics.json`` holds every ``CriterionResult.metrics``
value (criterion 2 included, as measured) and the SHA-256 of each CSV
that a fixed set of CLI configurations writes.  A change that is meant
to leave the numbers alone keeps every metric within 1e-10 relative and
every CSV byte-identical.  New metrics are allowed; missing ones fail.

A change that is meant to move the numbers (a new solver, say) adds a
stated absolute floor per metric, or a numeric CSV comparison, here and
in CHANGES.md.  Regenerate the record only then, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from jhi.cli import main

GOLDEN = Path(__file__).with_name("golden_metrics.json")

REL_TOL = 1e-10

# CLI configurations whose CSVs are recorded: name -> argv.
CONFIGS = {
    "simulate-lotka_volterra-jhi1": [
        "simulate", "--model", "lotka_volterra", "--method", "jhi1",
        "--span", "0", "0.5", "--ds", "0.025",
    ],
    "simulate-contact-jhi3": [
        "simulate", "--model", "contact", "--method", "jhi3",
        "--span", "0", "0.5", "--ds", "0.05",
    ],
    "simulate-jacobi2d_cossin-jhi3": [
        "simulate", "--model", "jacobi2d", "--param", "hamiltonian=cossin",
        "--method", "jhi3", "--span", "0", "0.2", "--ds", "0.02",
    ],
    "simulate-jacobi4d-jhi3": [
        "simulate", "--model", "jacobi4d", "--method", "jhi3",
        "--span", "0", "0.04", "--ds", "0.02",
    ],
    "simulate-rigid_body-jhi4": [
        "simulate", "--model", "rigid_body", "--method", "jhi4",
        "--span", "0", "0.04", "--ds", "0.02",
    ],
    "simulate-damped-rk4": [
        "simulate", "--model", "damped", "--method", "rk4",
        "--span", "0", "1", "--ds", "0.05",
    ],
    "drift-jacobi3d-jhi1": [
        "drift", "--model", "jacobi3d", "--method", "jhi1",
        "--span", "0", "1", "--ds", "0.02",
    ],
    "drift-rigid_body-jhi1": [
        "drift", "--model", "rigid_body", "--method", "jhi1",
        "--span", "0", "0.5", "--ds", "0.01",
    ],
    "order_study-lotka_volterra-jhi1": [
        "order-study", "--model", "lotka_volterra", "--method", "jhi1",
    ],
}


def run_config(name, outdir):
    """Run one recorded configuration; {CSV file name: sha256}."""
    outdir.mkdir(parents=True, exist_ok=True)
    code = main(CONFIGS[name] + ["--out", str(outdir)])
    assert code == 0, f"{name} exited with {code}"
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.glob("*.csv"))
    }


def _golden():
    return json.loads(GOLDEN.read_text())


def _close(got, want):
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= REL_TOL * abs(want)


@pytest.mark.parametrize("index", range(1, 10))
def test_criterion_metrics_match_golden(index, criterion_result):
    want = _golden()["criteria"][str(index)]
    got = criterion_result(index).metrics
    missing = sorted(set(want) - set(got))
    assert not missing, f"criterion {index} lost metrics {missing}"
    bad = {
        key: (got[key], value)
        for key, value in want.items()
        if not _close(float(got[key]), value)
    }
    assert not bad, f"criterion {index} metrics moved: {bad}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_csvs_match_golden(name, tmp_path):
    assert run_config(name, tmp_path / name) == _golden()["csv"][name]


def _write(tmp):
    from conftest import CRITERIA

    criteria = {}
    for index, check in enumerate(CRITERIA, start=1):
        criteria[str(index)] = {k: float(v) for k, v in check().metrics.items()}
    csv = {name: run_config(name, tmp / name) for name in sorted(CONFIGS)}
    GOLDEN.write_text(json.dumps({"criteria": criteria, "csv": csv}, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write(Path(tmp))
    sys.exit(0)
