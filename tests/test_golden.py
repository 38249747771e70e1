"""Golden gate: acceptance metrics and CLI outputs against a frozen record.

``tests/golden_metrics.json`` holds every ``CriterionResult.metrics``
value (criterion 2 included, as measured), the SHA-256 of each CSV that
a fixed set of CLI configurations writes, the numbers in the CSVs of the
configurations that run a JHI method, the solver's iteration counts on
those same configurations, and the op counts of the kernels every catalog
model compiles for each method (lifted field, residual and beta for
jhi1..jhi4, the whole step for rk2, heun, rk4 and symplectic_euler).
Those ``costs`` do not depend on host speed and are compared exactly; a
change that moves them regenerates the record and reports the move.
New metrics are allowed; missing ones fail.

Two tiers:

* pure: a change that is meant to leave the numbers alone keeps every
  metric within 1e-10 relative and every CSV byte-identical.  It applies
  to criterion 8 and the RK4 CSV, where the implicit step solve does not
  run, and to criterion 6, whose jhi1 metrics stay within it.
* solver: the step solve stops at a tolerance, so a different solver
  reaches a different point inside it.  A metric passes within 1e-5
  relative *or* 1e-13 absolute; a JHI CSV passes when every number is
  within 1e-10 of the record relative to 1 + |value|.

A change that is meant to move the numbers beyond these tiers states
its deviations in CHANGES.md and only then regenerates the record.
``PYTHONPATH=src python tests/test_golden.py`` adds the entries the
record lacks and keeps every recorded one; naming sections (``criteria``,
``csv``, ``csv_values``, ``solver_counts``, ``kernel_ops``) replaces
those sections, e.g. ``PYTHONPATH=src python tests/test_golden.py
kernel_ops``.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from jhi.cli import build_parser, main
from jhi.diagnostics import study_protocol
from jhi.integrator import compiled_kernels, integrate
from jhi.models import build_model, model_names

GOLDEN = Path(__file__).with_name("golden_metrics.json")

REL_TOL = 1e-10
SOLVER_REL_TOL, SOLVER_ABS_TOL = 1e-5, 1e-13
PURE_CRITERIA = (6, 8)

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


# Configurations whose solver counts are recorded: every one running JHI.
COUNTED = tuple(name for name in sorted(CONFIGS) if "-jhi" in name)


def run_config(name, outdir):
    """Run one recorded configuration; {CSV file name: sha256}."""
    outdir.mkdir(parents=True, exist_ok=True)
    code = main(CONFIGS[name] + ["--out", str(outdir)])
    assert code == 0, f"{name} exited with {code}"
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.glob("*.csv"))
    }


def csv_lines(outdir):
    """{CSV file name: its lines}."""
    return {
        path.name: path.read_text().splitlines()
        for path in sorted(outdir.glob("*.csv"))
    }


def _cells(line):
    return [float(cell) if cell else None for cell in line.split(",")]


def counted_runs(name):
    """(model, method, [(span, ds), ...]): what the CLI configuration of
    that name integrates, one run per grid for an order study."""
    args = build_parser().parse_args(CONFIGS[name])
    params = dict(item.split("=", 1) for item in args.param or ())
    model = build_model(args.model, params or None)
    if args.command != "order-study":
        return model, args.method, [(tuple(args.span), args.ds)]
    proto = study_protocol(args.model)
    width = proto.span[1] - proto.span[0]
    return model, args.method, [(proto.span, width / n) for n in proto.grids]


def solver_counts(name):
    """Steps, iterations per solver phase, Newton fallbacks and rungs of a
    configuration's runs, from the default state."""
    model, method, runs = counted_runs(name)
    steps = [
        d for span, ds in runs
        for d in integrate(model, method, span, ds).per_step_diagnostics
    ]
    return {
        "steps": len(steps),
        "fixed_point_iterations": sum(d.fixed_point_iterations for d in steps),
        "newton_iterations": sum(d.newton_iterations for d in steps),
        "newton_fallbacks": sum(d.newton_iterations > 0 for d in steps),
        "continuation_rungs": sum(d.continuation_rungs for d in steps),
    }


# Catalog models whose compiled kernels' op counts are recorded, per
# method: label -> (model, parameter overrides).
CATALOG = {name: (name, None) for name in model_names()}
CATALOG["jacobi2d_cossin"] = ("jacobi2d", {"hamiltonian": "cossin"})
OP_METHODS = ("jhi1", "jhi2", "jhi3", "jhi4", "rk2", "heun", "rk4", "symplectic_euler")


def kernel_ops():
    """{label: {method: {kernel name: op count}}} of the kernels a run
    compiles (lifted field, residual and beta for JHI, the whole step for
    a baseline), traced by one step from the default state."""
    record = {}
    for label, (name, params) in sorted(CATALOG.items()):
        model = build_model(name, params)
        record[label] = {}
        for method in OP_METHODS:
            integrate(model, method, (0.0, 0.01), 0.01)
            record[label][method] = {
                k.name: k.ops for k in compiled_kernels(model, method)
            }
    return record


def _runs_solver(name):
    return "-jhi" in name


def _golden():
    return json.loads(GOLDEN.read_text())


def _close(got, want, rel, floor=0.0):
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= max(rel * abs(want), floor)


@pytest.mark.parametrize("index", range(1, 10))
def test_criterion_metrics_match_golden(index, criterion_result):
    want = _golden()["criteria"][str(index)]
    got = criterion_result(index).metrics
    missing = sorted(set(want) - set(got))
    assert not missing, f"criterion {index} lost metrics {missing}"
    tier = (REL_TOL,) if index in PURE_CRITERIA else (SOLVER_REL_TOL, SOLVER_ABS_TOL)
    bad = {
        key: (got[key], value)
        for key, value in want.items()
        if not _close(float(got[key]), value, *tier)
    }
    assert not bad, f"criterion {index} metrics moved: {bad}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_csvs_match_golden(name, tmp_path):
    outdir = tmp_path / name
    hashes = run_config(name, outdir)
    if not _runs_solver(name):
        assert hashes == _golden()["csv"][name]
        return
    want = _golden()["csv_values"][name]
    got = csv_lines(outdir)
    assert sorted(got) == sorted(want)
    for file, (header, *rows) in want.items():
        assert got[file][0] == header and len(got[file]) == len(rows) + 1, file
        for line_got, line_want in zip(got[file][1:], rows):
            pairs = list(zip(_cells(line_got), _cells(line_want)))
            assert len(pairs) == len(_cells(line_want)), (file, line_got)
            assert all(
                (a is None) == (b is None)
                and (b is None or abs(a - b) <= REL_TOL * (1.0 + abs(b)))
                for a, b in pairs
            ), (file, line_want, line_got)


@pytest.mark.parametrize("name", COUNTED)
def test_solver_counts_match_golden(name):
    assert solver_counts(name) == _golden()["costs"][name]


def test_kernel_op_counts_match_golden():
    assert kernel_ops() == _golden()["costs"]["kernel_ops"]


# Sections of the record: name -> the top-level key its entries sit under.
SECTIONS = {
    "criteria": "criteria",
    "csv": "csv",
    "csv_values": "csv_values",
    "solver_counts": "costs",
    "kernel_ops": "costs",
}


def _section(name, tmp):
    """One section's entries as this tree computes them."""
    if name == "criteria":
        from conftest import CRITERIA

        return {
            str(index): {k: float(v) for k, v in check().metrics.items()}
            for index, check in enumerate(CRITERIA, start=1)
        }
    if name == "csv":
        return {config: run_config(config, tmp / config) for config in sorted(CONFIGS)}
    if name == "csv_values":
        values = {}
        for config in filter(_runs_solver, sorted(CONFIGS)):
            run_config(config, tmp / config)
            values[config] = csv_lines(tmp / config)
        return values
    if name == "solver_counts":
        return {config: solver_counts(config) for config in COUNTED}
    return {"kernel_ops": kernel_ops()}


def _add_missing(old, new):
    """Copy into old the keys of new it lacks, at any depth; keep the rest."""
    for key, value in new.items():
        if key not in old:
            old[key] = value
        elif isinstance(old[key], dict) and isinstance(value, dict):
            _add_missing(old[key], value)


def _write(tmp, replace=()):
    """Replace the named sections whole; with none named, add the entries
    the record lacks and keep every recorded one."""
    record = _golden()
    for section in replace or SECTIONS:
        parent = record.setdefault(SECTIONS[section], {})
        if replace:
            parent.update(_section(section, tmp))
        else:
            _add_missing(parent, _section(section, tmp))
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    # usage: PYTHONPATH=src python tests/test_golden.py [section ...]
    import tempfile

    unknown = sorted(set(sys.argv[1:]) - set(SECTIONS))
    if unknown:
        sys.exit(f"unknown sections {unknown}; known: {sorted(SECTIONS)}")
    with tempfile.TemporaryDirectory() as tmp:
        _write(Path(tmp), replace=set(sys.argv[1:]))
    sys.exit(0)
