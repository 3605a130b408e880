"""Command-line front end.

Subcommands: run (one experiment), sweep (a parameter grid), list (gallery
summary), validate-config (check a JSON config without running).  Exit
codes: 0 converged, 2 iteration budget exhausted, 3 no further progress,
64 configuration or usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import gallery, harness


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; configuration mistakes exit 64 here."""

    def error(self, message):
        self.exit(harness.EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_list(text: str, kind, what: str) -> list:
    """The comma-separated values of ``text`` as ``kind``; empty items are skipped."""
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise harness.UsageError(f"bad {what} {text!r}: {exc}") from exc


def _load_config(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise harness.UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise harness.UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise harness.UsageError("config file must contain a JSON object")
    return data


def _apply_overrides(data: dict, args) -> dict:
    """Set each config field given by the run flag of that dest (a list as comma-separated text)."""
    for field in dataclasses.fields(harness.ExperimentConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            data[field.name] = _parse_list(value, float, "vector") if field.type.startswith("list") else value
    return data


def _add_run_flags(sub) -> None:
    """--config, then the run flag of each config field that declares one."""
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    for field in dataclasses.fields(harness.ExperimentConfig):
        flag = field.metadata["flag"]
        if flag is not None:
            name = "--" + field.name.replace("_", "-")
            sub.add_argument(name, dest=field.name, type=harness._field_type(field), **flag)


def _require_keys(data: dict) -> None:
    for name in harness.CONFIG_SCHEMA["required"]:
        if name not in data:
            article = "an" if name[0] in "aeiou" else "a"
            raise harness.UsageError(f"{article} {name} is required (--{name} or config file)")


def _cmd_run(args) -> int:
    data = _apply_overrides(_load_config(args), args)
    _require_keys(data)
    code, outputs = harness.run_experiment(data)
    report = outputs["report_data"]
    print(
        f"{data['algorithm']}: {report['terminal_status']} "
        f"(exit {code}); trace={outputs['trace']} report={outputs['report']}"
    )
    return code


def _cmd_sweep(args) -> int:
    data = _apply_overrides(_load_config(args), args)
    _require_keys(data)
    sweep = dict(data.get("sweep") or {})
    if args.tau_grid is not None:
        sweep["tau"] = _parse_list(args.tau_grid, float, "vector")
    if args.pbar_grid is not None:
        sweep["pbar"] = _parse_list(args.pbar_grid, int, "integer list")
    if args.x0_seeds is not None:
        sweep["x0_seeds"] = _parse_list(args.x0_seeds, int, "integer list")
    if not sweep:
        raise harness.UsageError(
            "sweep requires at least one grid axis (--tau-grid, --pbar-grid, --x0-seeds)"
        )
    data["sweep"] = sweep
    code, outputs = harness.run_sweep(data)
    print(f"{len(outputs['rows'])} cells written to {outputs['sweep']}")
    return code


def _cmd_list(args) -> int:
    rows = []
    for entry in gallery.gallery_entries():
        rows.append(
            (
                entry.name,
                str(entry.set_count),
                str(entry.dimension),
                "yes" if entry.convex else "no",
                {True: "yes", False: "no", None: "-"}[entry.sosh],
                "-" if entry.beta is None else f"{entry.beta:.4g}",
                "-" if entry.eta is None else f"{entry.eta:.4g}",
            )
        )
    header = ("name", "m", "dim", "convex", "sosh", "beta", "eta")
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return 0


def _cmd_validate(args) -> int:
    data = _load_config(args)
    cfg, problem = harness.validate_experiment(data)
    harness.resolve_x0(problem, cfg)
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shqp", description=__doc__.strip().splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", parents=[], help="run one experiment")
    _add_run_flags(run)
    run.set_defaults(func=_cmd_run)

    sweep = commands.add_parser("sweep", help="run a parameter grid")
    _add_run_flags(sweep)
    sweep.add_argument("--tau-grid", dest="tau_grid", help="comma-separated tau values")
    sweep.add_argument("--pbar-grid", dest="pbar_grid", help="comma-separated pbar values")
    sweep.add_argument("--x0-seeds", dest="x0_seeds", help="comma-separated start seeds")
    sweep.set_defaults(func=_cmd_sweep)

    listing = commands.add_parser("list", help="list gallery problems")
    listing.set_defaults(func=_cmd_list)

    validate = commands.add_parser("validate-config", help="check a config file")
    validate.add_argument("--config", required=True, help="JSON config file")
    validate.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads its arguments with: built on the first call
    and shared by every later one in the process.  Building one costs about
    a millisecond (argparse makes a help formatter, which asks for the
    terminal size, for each of some 35 flags), and parsing leaves it as it
    was: no flag has a default that a parse could change."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse --help (0) or flag errors (64)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except harness.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return harness.EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
