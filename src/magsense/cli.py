"""Command-line front end: validate, run, report, list-configs.

Exit codes: 0 success, 2 validation failure (bad config, schema mismatch,
missing artifact pieces), 3 runtime failure (simulation or analysis errors
on valid inputs).
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import resources
from pathlib import Path

from .config import ExperimentConfig, load_config
from .errors import ConfigError, MagsenseError, SchemaError
from .runner import (
    RunArtifact,
    load_artifact,
    run_analyses,
    run_experiment,
)
from .sweep import read_dataset

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_IMPORT_ANALYSES = ("lifetime-phase", "lifetime-frequency", "parametric")


def _bundled_root():
    return resources.files("magsense") / "configs"


def bundled_configs() -> dict[str, Path]:
    """Mapping of bundled config name to file path."""
    root = _bundled_root()
    return {path.name[: -len(".yaml")]: Path(str(path)) for path in sorted(root.iterdir()) if path.name.endswith(".yaml")}


def _resolve_config_path(spec: str) -> Path:
    path = Path(spec)
    if path.exists():
        return path
    bundled = bundled_configs()
    if spec in bundled:
        return bundled[spec]
    raise ConfigError(
        f"{spec!r} is neither a config file nor a bundled config "
        f"(have: {', '.join(sorted(bundled))})"
    )


def _load(spec: str) -> ExperimentConfig:
    return load_config(_resolve_config_path(spec))


def _cmd_validate(args) -> int:
    config = _load(args.config)
    print(f"ok: {config.name}")
    print(f"hash: {config.manifest_hash}")
    print(f"protocols: {', '.join(node.name for node in config.protocols)}")
    if config.analyses:
        print(f"analyses: {', '.join(node.kind for node in config.analyses)}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _load(args.config)
    output = args.output or config.output
    if output is None:
        raise ConfigError("no output directory: set 'output' in the config or pass --output")
    artifact = run_experiment(config, Path(output), force=args.force)
    print(f"wrote {artifact.path}")
    for name, path in sorted(artifact.datasets.items()):
        print(f"dataset {name}: {path.name}")
    for kind, path in sorted(artifact.reports.items()):
        print(f"report {kind}: {path.name}")
    return EXIT_OK


def _subsample_request(args) -> tuple | None:
    """The validated (budget, count) of --subsample-budget, or None without it."""
    if args.subsample_budget is None:
        return None
    if not 0 < args.subsample_budget < math.inf:
        raise ConfigError(
            f"--subsample-budget must be finite and > 0 seconds, got {args.subsample_budget}"
        )
    if args.subsample_count < 2:
        raise ConfigError(
            "--subsample-count must be >= 2 to give a lifetime spread, "
            f"got {args.subsample_count}"
        )
    return args.subsample_budget, args.subsample_count


def _cmd_report(args) -> int:
    subsample = _subsample_request(args)
    if args.import_file is not None:
        return _report_imported(args, subsample)
    if args.artifact is None:
        raise ConfigError("report needs an artifact directory or --import FILE")
    manifest, config, datasets = load_artifact(args.artifact)
    out_dir = Path(args.artifact)
    reports = run_analyses(
        config,
        datasets,
        out_dir,
        manifest["hash"],
        only=args.only,
        subsample=subsample,
    )
    if not reports:
        raise ConfigError(
            f"no analysis matched {args.only!r}"
            if args.only
            else "config has no attached analyses"
        )
    for kind, path in sorted(reports.items()):
        print(f"report {kind}: {path}")
    return EXIT_OK


def _report_imported(args, subsample: tuple | None) -> int:
    """Run a single analysis on an external dataset table."""
    from .config import AnalysisNode

    if args.analysis is None:
        raise ConfigError("--import needs --analysis (one of "
                          f"{', '.join(_IMPORT_ANALYSES)})")
    if args.analysis not in _IMPORT_ANALYSES:
        raise ConfigError(
            f"--analysis {args.analysis!r} cannot run on a single imported table"
        )
    dataset = read_dataset(args.import_file)
    source = Path(args.import_file)
    out_dir = Path(args.output) if args.output else source.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    node = AnalysisNode(kind=args.analysis, inputs={"dataset": source.stem})
    datasets = {source.stem: dataset}
    config = _ImportShim(analyses=(node,))
    reports = run_analyses(
        config, datasets, out_dir, dataset.manifest_hash, subsample=subsample
    )
    for kind, path in sorted(reports.items()):
        print(f"report {kind}: {path}")
    return EXIT_OK


class _ImportShim:
    """Minimal stand-in for ExperimentConfig when reporting on imports."""

    def __init__(self, analyses):
        self.analyses = analyses


def _cmd_list_configs(args) -> int:
    for name, path in bundled_configs().items():
        config = load_config(path)
        print(f"{name}: {config.description}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magsense",
        description="Reproducible magnon-sensing simulations and analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="parse and validate a config")
    validate.add_argument("config", help="config file path or bundled config name")
    validate.set_defaults(handler=_cmd_validate)

    run = sub.add_parser("run", help="execute a config into a run artifact")
    run.add_argument("config", help="config file path or bundled config name")
    run.add_argument("--output", help="artifact directory (overrides config)")
    run.add_argument(
        "--force", action="store_true", help="replace an existing artifact"
    )
    run.set_defaults(handler=_cmd_run)

    report = sub.add_parser(
        "report", help="re-run analyses on a frozen artifact or imported table"
    )
    report.add_argument("artifact", nargs="?", help="run artifact directory")
    report.add_argument("--only", help="run only this analysis kind")
    report.add_argument(
        "--import", dest="import_file", help="external dataset table to analyze"
    )
    report.add_argument(
        "--analysis", help="analysis kind for --import "
        f"(one of {', '.join(_IMPORT_ANALYSES)})"
    )
    report.add_argument(
        "--output", help="directory for reports on imported tables"
    )
    report.add_argument(
        "--subsample-budget",
        type=float,
        help="emulate this acquisition time (seconds) per lifetime subset",
    )
    report.add_argument(
        "--subsample-count",
        type=int,
        default=100,
        help="number of subsample draws (default 100)",
    )
    report.set_defaults(handler=_cmd_report)

    list_configs = sub.add_parser("list-configs", help="list bundled configs")
    list_configs.set_defaults(handler=_cmd_list_configs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MagsenseError, OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
