"""Experiment command line: trajectories, convergence studies, drifts.

Every run writes CSV files with fixed schemas (floating values carry 17
significant digits so they round-trip losslessly) plus a JSON manifest
holding the invocation, a wall-clock stamp, and the emitted file list.
The CSVs themselves contain no timestamps: identical configurations
produce byte-identical numeric output.

Exit codes: 0 on success, 1 on numerical failure (partial outputs and a
failure report are still written), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .diagnostics import (
    casimir_drift,
    estimate_order,
    hamiltonian_drift,
    study_protocol,
)
from .errors import ConfigError, IntegrationFailure, JhiError
from .integrator import (
    METHOD_NAMES,
    Trajectory,
    integrate,
    kernel_reports,
    reference_solution,
)
from .jacobi import ExtendedState
from .models import build_model, model_names
from .validation import run_all

EMIT_CHOICES = (
    "trajectory",
    "order_study",
    "hamiltonian_drift",
    "casimir_drift",
)


@dataclasses.dataclass
class RunConfig:
    """One experiment invocation; the config file mirrors these fields."""

    model: str = ""
    method: str = "jhi1"
    span: Tuple[float, float] = (0.0, 1.0)
    ds: float = 0.01
    x0: Optional[Tuple[float, ...]] = None
    t0: float = 1.0
    params: Dict[str, object] = dataclasses.field(default_factory=dict)
    outputs: str = "."
    emit: Tuple[str, ...] = ("trajectory",)

    def validate(self) -> None:
        if self.model not in model_names():
            raise ConfigError(
                f"unknown model {self.model!r}; available: {', '.join(model_names())}"
            )
        if self.method not in METHOD_NAMES:
            raise ConfigError(
                f"unknown method {self.method!r}; available: {', '.join(METHOD_NAMES)}"
            )
        if not (float(self.ds) > 0.0):
            raise ConfigError("ds must be positive")
        if len(self.span) != 2:
            raise ConfigError("span needs exactly two endpoints")
        unknown = set(self.emit) - set(EMIT_CHOICES)
        if unknown:
            raise ConfigError(
                f"unknown emit entries {sorted(unknown)}; "
                f"available: {', '.join(EMIT_CHOICES)}"
            )


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{float(value):.16e}"


def write_trajectory_csv(path: Path, traj: Trajectory, coord_names) -> None:
    lines = ["time," + ",".join(coord_names) + ",t"]
    for time, state in zip(traj.times, traj.states):
        fields = [_fmt(time)] + [_fmt(v) for v in state.x] + [_fmt(state.t)]
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n")


def write_order_study_csv(path: Path, rows) -> None:
    lines = ["ds,error_l2,observed_order"]
    for row in rows:
        order = "" if row.observed_order is None else _fmt(row.observed_order)
        lines.append(f"{_fmt(row.ds)},{_fmt(row.error_l2)},{order}")
    path.write_text("\n".join(lines) + "\n")


def write_drift_csv(path: Path, series) -> None:
    lines = ["time,value"]
    for time, value in zip(series.times, series.values):
        lines.append(f"{_fmt(time)},{_fmt(value)}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def _initial_state(config: RunConfig, model) -> ExtendedState:
    if config.x0 is None:
        x0 = model.default_x0
    else:
        x0 = tuple(float(v) for v in config.x0)
        if len(x0) != model.dim:
            raise ConfigError(
                f"x0 has {len(x0)} coordinates, model {model.name} needs {model.dim}"
            )
    return ExtendedState(x0, float(config.t0))


def _write_manifest(outdir: Path, command: str, config: RunConfig, model,
                    written, status: str, failure=None) -> Path:
    manifest = {
        "created": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": dataclasses.asdict(config),
        "outputs": [p.name for p in written],
        "status": status,
        # compiled kernels behind the run: op count, source hash, trace ms
        "kernels": kernel_reports(model, config.method),
    }
    if failure is not None:
        manifest["failure"] = failure
    path = outdir / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=list) + "\n")
    return path


def run(config: RunConfig, command: str = "run") -> Tuple[Path, ...]:
    """Execute one configuration and return the written files.

    Numerical failures still produce partial outputs and a failure
    report before the exception is re-raised for exit-code handling.
    """
    config.validate()
    model = build_model(config.model, dict(config.params) or None)
    start = _initial_state(config, model)
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    needs_trajectory = bool(
        {"trajectory", "hamiltonian_drift", "casimir_drift"} & set(config.emit)
    )
    try:
        if needs_trajectory:
            traj = integrate(
                model, config.method, config.span, float(config.ds), start
            )
            if "trajectory" in config.emit:
                path = outdir / "trajectory.csv"
                write_trajectory_csv(path, traj, model.coord_names)
                written.append(path)
            if "hamiltonian_drift" in config.emit:
                path = outdir / "hamiltonian_drift.csv"
                write_drift_csv(path, hamiltonian_drift(traj, model))
                written.append(path)
            if "casimir_drift" in config.emit:
                for name, field in model.casimirs:
                    path = outdir / f"casimir_drift_{name}.csv"
                    write_drift_csv(path, casimir_drift(traj, field))
                    written.append(path)
        if "order_study" in config.emit:
            proto = study_protocol(config.model)
            reference = reference_solution(
                model, proto.span, proto.reference_steps, start
            )
            rows = estimate_order(
                model,
                config.method,
                proto.span,
                proto.grids,
                reference,
                s0=start,
                extended=proto.extended,
            )
            path = outdir / "order_study.csv"
            write_order_study_csv(path, rows)
            written.append(path)
    except IntegrationFailure as exc:
        partial = outdir / "trajectory_partial.csv"
        write_trajectory_csv(partial, exc.trajectory, model.coord_names)
        written.append(partial)
        report = outdir / "failure_report.json"
        report.write_text(json.dumps({
            "error": str(exc),
            "step_index": exc.step_index,
            "completed_samples": len(exc.trajectory),
        }, indent=2) + "\n")
        written.append(report)
        written.append(
            _write_manifest(outdir, command, config, model, written, "failed",
                            failure=str(exc))
        )
        raise
    written.append(_write_manifest(outdir, command, config, model, written, "ok"))
    return tuple(written)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _parse_param(text: str):
    if "=" not in text:
        raise ConfigError(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value: object = float(raw)
    except ValueError:
        value = raw
    return key.strip(), value


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; expected {sorted(known)}"
        )
    return data


def _config_from_args(args, default_emit: Tuple[str, ...]) -> RunConfig:
    config = RunConfig(emit=default_emit)
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
        for key, value in file_values.items():
            if key == "span":
                value = tuple(float(v) for v in value)
            elif key == "x0":
                value = tuple(float(v) for v in value)
            elif key == "emit":
                value = tuple(str(v) for v in value)
            elif key == "params":
                if not isinstance(value, dict):
                    raise ConfigError("params must be an object")
            setattr(config, key, value)
    if getattr(args, "model", None) is not None:
        config.model = args.model
    if getattr(args, "method", None) is not None:
        config.method = args.method
    if getattr(args, "ds", None) is not None:
        config.ds = args.ds
    if getattr(args, "span", None) is not None:
        config.span = tuple(args.span)
    if getattr(args, "x0", None) is not None:
        config.x0 = tuple(args.x0)
    if getattr(args, "t0", None) is not None:
        config.t0 = args.t0
    if getattr(args, "out", None) is not None:
        config.outputs = args.out
    for item in getattr(args, "param", None) or ():
        key, value = _parse_param(item)
        config.params[key] = value
    if not config.model:
        raise ConfigError("no model given (flag --model or config file)")
    return config


def _add_run_flags(sub) -> None:
    sub.add_argument("--model", help="model name (see list-models)")
    sub.add_argument("--method", help="integration method, e.g. jhi1, jhi3, rk4")
    sub.add_argument("--ds", type=float, help="step size")
    sub.add_argument("--span", type=float, nargs=2, metavar=("A", "B"),
                     help="integration span")
    sub.add_argument("--x0", type=float, nargs="+", metavar="X",
                     help="initial Jacobi coordinates")
    sub.add_argument("--t0", type=float, help="initial scale coordinate")
    sub.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="model parameter override (repeatable)")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--config", help="JSON config file (flags override it)")


def _cmd_simulate(args) -> int:
    run(_config_from_args(args, ("trajectory",)), "simulate")
    return 0


def _cmd_order_study(args) -> int:
    run(_config_from_args(args, ("order_study",)), "order-study")
    return 0


def _cmd_drift(args) -> int:
    config = _config_from_args(args, ("hamiltonian_drift", "casimir_drift"))
    run(config, "drift")
    return 0


def _cmd_list_models(args) -> int:
    for name in model_names():
        model = build_model(name)
        params = ", ".join(
            f"{k}={v:g}" for k, v in sorted(model.params.items())
        ) or "(none)"
        line = (
            f"{name:<15} dim={model.dim}  coords={','.join(model.coord_names)}"
            f"  realization={model.realization.kind}  params: {params}"
        )
        if name == "jacobi2d":
            line += "  hamiltonian variants: quadratic, cossin"
        print(line)
    return 0


def _cmd_reproduce(args) -> int:
    indices = args.criteria or None
    results = run_all(indices)
    for result in results:
        print(result.line())
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        lines = ["criterion,name,passed,detail"]
        for r in results:
            detail = r.detail.replace('"', "'")
            lines.append(f'{r.index},{r.name},{int(r.passed)},"{detail}"')
        (outdir / "acceptance_report.csv").write_text("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jhi",
        description="Structure-preserving integrators for Jacobi systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="integrate one trajectory")
    _add_run_flags(sim)
    sim.set_defaults(handler=_cmd_simulate)

    study = commands.add_parser(
        "order-study", help="convergence table on the model's published grids"
    )
    _add_run_flags(study)
    study.set_defaults(handler=_cmd_order_study)

    drift = commands.add_parser(
        "drift", help="invariant drift series along one trajectory"
    )
    _add_run_flags(drift)
    drift.set_defaults(handler=_cmd_drift)

    listing = commands.add_parser("list-models", help="show the model catalog")
    listing.set_defaults(handler=_cmd_list_models)

    repro = commands.add_parser(
        "reproduce-paper",
        help="run the acceptance checks and print one row per criterion",
    )
    repro.add_argument("--criteria", type=int, nargs="+", metavar="N",
                       help="subset of criterion indices (default: all)")
    repro.add_argument("--out", help="directory for the CSV report")
    repro.set_defaults(handler=_cmd_reproduce)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except JhiError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
