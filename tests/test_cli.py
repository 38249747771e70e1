"""Command-line surface: config handling, CSV schemas, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from jhi.cli import (
    RunConfig,
    main,
    run,
    write_drift_csv,
    write_order_study_csv,
    write_trajectory_csv,
)
from jhi.diagnostics import DriftSeries, OrderStudyRow
from jhi.errors import ConfigError, IntegrationFailure
from jhi.integrator import compiled_kernels
from jhi.models import build_model


# ---------------------------------------------------------------------------
# RunConfig validation
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_model_method_emit():
    with pytest.raises(ConfigError):
        RunConfig(model="nope").validate()
    with pytest.raises(ConfigError):
        RunConfig(model="contact", method="euler").validate()
    with pytest.raises(ConfigError):
        RunConfig(model="contact", ds=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(model="contact", emit=("plots",)).validate()
    RunConfig(model="contact").validate()


# ---------------------------------------------------------------------------
# CSV writers: schema and lossless round-trip
# ---------------------------------------------------------------------------


def test_order_study_csv_round_trips(tmp_path):
    rows = (
        OrderStudyRow(ds=0.1, error_l2=1.0 / 3.0),
        OrderStudyRow(ds=0.05, error_l2=2.0 / 30000.0,
                      observed_order=1.9876543210987654, halved=True),
    )
    path = tmp_path / "order_study.csv"
    write_order_study_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "ds,error_l2,observed_order"
    assert lines[1].endswith(",")  # first row has no order
    ds, err, order = lines[2].split(",")
    assert float(ds) == 0.05
    assert float(err) == 2.0 / 30000.0
    assert float(order) == 1.9876543210987654


def test_drift_csv_schema(tmp_path):
    series = DriftSeries((0.0, 0.5), (0.0, -1.0 / 7.0))
    path = tmp_path / "drift.csv"
    write_drift_csv(path, series)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,value"
    assert float(lines[1].split(",")[1]) == 0.0
    assert float(lines[2].split(",")[1]) == -1.0 / 7.0


# ---------------------------------------------------------------------------
# run(): emitted files
# ---------------------------------------------------------------------------


def test_simulate_contact_writes_named_columns(tmp_path):
    config = RunConfig(
        model="contact", method="jhi1", span=(0.0, 1.0), ds=0.1,
        outputs=str(tmp_path),
    )
    written = run(config)
    names = {p.name for p in written}
    assert names == {"trajectory.csv", "run_manifest.json"}
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "time,q,p,z,t"


def test_empty_emit_writes_only_the_manifest(tmp_path):
    config = RunConfig(model="contact", emit=(), outputs=str(tmp_path))
    written = run(config)
    assert [p.name for p in written] == ["run_manifest.json"]
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["outputs"] == []


def test_drift_emit_writes_casimir_files_per_invariant(tmp_path):
    config = RunConfig(
        model="jacobi3d", method="jhi1", span=(0.0, 1.0), ds=0.05,
        emit=("hamiltonian_drift", "casimir_drift"), outputs=str(tmp_path),
    )
    written = run(config)
    names = sorted(p.name for p in written)
    assert "hamiltonian_drift.csv" in names
    assert "casimir_drift_t2_x2.csv" in names
    assert "casimir_drift_t2_x3.csv" in names


def test_order_study_emit_uses_published_grids(tmp_path):
    config = RunConfig(
        model="jacobi3d", method="jhi3",
        emit=("order_study",), outputs=str(tmp_path),
    )
    run(config)
    lines = (tmp_path / "order_study.csv").read_text().strip().splitlines()
    assert lines[0] == "ds,error_l2,observed_order"
    assert len(lines) == 1 + 8  # one row per published grid
    finest = lines[-1].split(",")
    assert float(finest[0]) == pytest.approx(0.9 / 512)
    assert float(finest[1]) == pytest.approx(7.3637e-10, rel=1e-3)


def test_identical_configs_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        run(RunConfig(
            model="jacobi2d", method="jhi1", span=(0.0, 1.0), ds=0.1,
            params={"hamiltonian": "cossin"}, outputs=str(out),
        ))
    assert (out_a / "trajectory.csv").read_bytes() == \
        (out_b / "trajectory.csv").read_bytes()


def test_failure_leaves_partial_output_and_report(tmp_path):
    config = RunConfig(
        model="lotka_volterra", method="jhi1", span=(0.0, 30.0), ds=3.0,
        outputs=str(tmp_path),
    )
    with pytest.raises(IntegrationFailure):
        run(config)
    assert (tmp_path / "trajectory_partial.csv").exists()
    report = json.loads((tmp_path / "failure_report.json").read_text())
    assert report["completed_samples"] >= 1
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_bad_x0_length_is_a_config_error(tmp_path):
    config = RunConfig(model="contact", x0=(1.0, 2.0), outputs=str(tmp_path))
    with pytest.raises(ConfigError):
        run(config)


# ---------------------------------------------------------------------------
# main(): exit codes and flag handling
# ---------------------------------------------------------------------------


def test_main_simulate_and_exit_codes(tmp_path):
    code = main([
        "simulate", "--model", "contact", "--method", "jhi1",
        "--ds", "0.1", "--span", "0", "1", "--out", str(tmp_path / "ok"),
    ])
    assert code == 0
    assert main(["simulate", "--model", "nope", "--out", str(tmp_path)]) == 2
    assert main([
        "simulate", "--model", "lotka_volterra", "--ds", "3.0",
        "--span", "0", "30", "--out", str(tmp_path / "fail"),
    ]) == 1


def test_main_requires_a_model(tmp_path):
    assert main(["simulate", "--out", str(tmp_path)]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "damped",
        "method": "jhi1",
        "ds": 0.25,
        "span": [0.0, 1.0],
        "params": {"gamma": 0.02},
    }))
    out = tmp_path / "out"
    code = main([
        "simulate", "--config", str(cfg), "--ds", "0.5", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["ds"] == 0.5  # flag wins
    assert manifest["config"]["params"]["gamma"] == 0.02


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "contact", "stepsize": 0.1}))
    assert main(["simulate", "--config", str(cfg)]) == 2
    cfg.write_text("not json")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2


def test_param_flag_parses_numbers_and_names(tmp_path):
    out = tmp_path / "out"
    code = main([
        "simulate", "--model", "jacobi2d", "--ds", "0.1", "--span", "0", "1",
        "--param", "hamiltonian=cossin", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["params"]["hamiltonian"] == "cossin"
    assert main([
        "simulate", "--model", "contact", "--param", "broken", "--out", str(out),
    ]) == 2


def test_manifest_reports_coefficients(tmp_path):
    argv = [
        "simulate", "--model", "jacobi2d", "--param", "hamiltonian=cossin",
        "--span", "0", "0.02", "--ds", "0.02",
    ]
    assert main(argv + ["--method", "jhi4", "--out", str(tmp_path / "jhi4")]) == 0
    manifest = json.loads((tmp_path / "jhi4" / "run_manifest.json").read_text())
    assert manifest["coefficients"] == {
        "order": 4,
        "provenance": ["closed_form", "recursion", "recursion", "recursion"],
        "zero_flags": [False, True, False, True],
    }
    assert main(argv + ["--method", "rk4", "--out", str(tmp_path / "rk4")]) == 0
    manifest = json.loads((tmp_path / "rk4" / "run_manifest.json").read_text())
    assert "coefficients" not in manifest


@pytest.mark.parametrize(
    "method,names",
    [("jhi3", ["lifted_field", "residual_jhi3", "beta"]), ("rk4", ["step_rk4"])],
)
def test_kernels_command_prints_each_compiled_kernel(method, names, capsys):
    assert main(["kernels", "--model", "jacobi3d", "--method", method]) == 0
    out = capsys.readouterr().out
    kernels = compiled_kernels(build_model("jacobi3d"), method)
    assert [k.name for k in kernels] == names
    for kernel in kernels:
        source = kernel.source()
        digest = hashlib.sha256(source.encode()).hexdigest()
        assert digest == kernel.source_sha256
        header = f"# kernel {kernel.name}: {kernel.ops} ops, source sha256 {digest}\n"
        assert header + source in out
    assert main(["kernels", "--model", "jacobi3d", "--method", "euler"]) == 2


def test_list_models_catalog(capsys):
    assert main(["list-models"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    rigid = next(l for l in lines if l.startswith("rigid_body"))
    assert "first_order_approximate" in rigid
    planar = next(l for l in lines if l.startswith("jacobi2d"))
    assert "quadratic" in planar and "cossin" in planar


def test_reproduce_subset_and_report(tmp_path, capsys):
    code = main(["reproduce-paper", "--criteria", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("criterion 1") == 1
    assert "[PASS]" in out
    report = (tmp_path / "acceptance_report.csv").read_text().strip().splitlines()
    assert report[0] == "criterion,name,passed,detail"
    assert len(report) == 2


def test_reproduce_rejects_unknown_criteria():
    assert main(["reproduce-paper", "--criteria", "42"]) == 2
