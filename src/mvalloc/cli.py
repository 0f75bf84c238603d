"""Command line interface.

Subcommands: validate, compact, solve, unfold, export-lp, bench, example.
Machine-readable results go to files (written atomically), human summaries
to stdout, problems to stderr.  Exit codes: 0 success, 1 domain violation
(failed validation, bad configuration, oracle mismatch), 2 unreadable or
unparseable input, 3 proven infeasible, 4 solver timeout.  Every layer's
domain error subclasses ValueError, so `main` maps them all to 1 in one
place.  A command imports only the layers it runs: the solver loads for
solve, export-lp and bench only, the search kernels for solve and bench,
and bench and the bundled example only for their own commands.  The
ALLOC_LOG environment variable (error, warning, info, debug; warning by
default) sets the log level of the commands that load the solver; it is
checked for every command, and only those three import `logging`.
"""

from __future__ import annotations

import argparse
import os
import sys

from .compaction import (
    INFEASIBLE,
    OPTIMAL,
    TIMED_OUT,
    UnfoldError,
    build_high_layer,
    fold_difference,
    repository_difference,
    unfold,
)
from .formats import (
    ParseError,
    dump_assignment,
    dump_compacted,
    dump_scheme,
    parse_compacted,
    parse_model,
    parse_scheme,
    parse_weights,
    write_atomic,
)
from .model import (
    Platform,
    Repository,
    SystemArchitecture,
    UnknownIdError,
    check_feasibility,
    validate_architecture,
    validate_platform,
    validate_repository,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_TIMEOUT = 4

_LOG_LEVELS = ("error", "warning", "info", "debug")


def _log_level() -> str:
    """ALLOC_LOG's level; an unknown one is reported and reads as warning."""
    name = os.environ.get("ALLOC_LOG", "warning").strip().lower()
    if name not in _LOG_LEVELS:
        print(f"warning: ALLOC_LOG={name!r} not recognized, using warning", file=sys.stderr)
        return "warning"
    return name


def _configure_logging(level: str = "warning") -> None:
    import logging

    logging.basicConfig(
        level=level.upper(), stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_model(path: str) -> tuple[Repository, Platform, SystemArchitecture | None]:
    return parse_model(_read(path))


def _diagnose(
    repo: Repository, platform: Platform, architecture: SystemArchitecture | None
) -> list:
    diags = validate_repository(repo) + validate_platform(platform)
    if architecture is not None:
        diags += validate_architecture(architecture, repo)
    return diags


def _validated_model(path: str) -> tuple[Repository, Platform, SystemArchitecture | None]:
    repo, platform, architecture = _load_model(path)
    diags = _diagnose(repo, platform, architecture)
    if diags:
        for diag in diags:
            print(f"error: {diag}", file=sys.stderr)
        raise ValueError(f"model {path} failed validation with {len(diags)} problem(s)")
    return repo, platform, architecture


def _high_layer(args, repo, architecture):
    """The high layer a command works on: the model's fold, or the
    --compacted file, which must equal that fold when the model has an
    architecture, and otherwise agree with the repository."""
    if getattr(args, "compacted", None):
        model = parse_compacted(_read(args.compacted))
        if architecture is not None:
            difference = fold_difference(model, build_high_layer(architecture, repo))
            if difference is not None:
                raise ValueError(f"{args.compacted} is not the model's fold: {difference}")
        else:
            difference = repository_difference(model, repo)
            if difference is not None:
                raise ValueError(f"{args.compacted} disagrees with the repository: {difference}")
        return model
    if architecture is None:
        raise ValueError(
            "the model has no architecture section; pass --compacted instead"
        )
    return build_high_layer(architecture, repo)


def _solver_config(args):
    from .solver import SolverConfig

    weights = {}
    if getattr(args, "weights", None):
        weights = parse_weights(_read(args.weights))
    return SolverConfig(
        unit_weights=weights,
        time_limit_ms=getattr(args, "time_limit_ms", None),
    )


def cmd_validate(args) -> int:
    repo, platform, architecture = _load_model(args.model)
    diags = _diagnose(repo, platform, architecture)
    for diag in diags:
        print(diag, file=sys.stderr)
    if diags:
        print(f"{len(diags)} problem(s) found")
        return EXIT_DOMAIN
    print("ok")
    return EXIT_OK


def cmd_compact(args) -> int:
    repo, _, architecture = _validated_model(args.model)
    if architecture is None:
        raise ValueError("the model has no architecture section to compact")
    model = build_high_layer(architecture, repo)
    write_atomic(args.out, dump_compacted(model))
    compacted = len(architecture.units)
    variants = sum(len(u.variants) for u in model.units[:compacted])
    print(
        f"compacted {compacted} unit(s) with {variants} variant(s) "
        f"and {len(architecture.singletons)} singleton(s) -> {args.out}"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    from .solver import brute_force, solve

    repo, platform, architecture = _validated_model(args.model)
    model = _high_layer(args, repo, architecture)
    cfg = _solver_config(args)
    scheme = solve(model, platform, cfg, backend=args.backend)
    if args.oracle and scheme.status == TIMED_OUT:
        # a timed-out solve claims no optimum, so there is nothing to check
        print("oracle skipped: solve timed out")
    elif args.oracle:
        reference = brute_force(model, platform, cfg)
        if (scheme.status, scheme.objective_ms) != (
            reference.status,
            reference.objective_ms,
        ):
            print(
                f"error: oracle disagrees: solve says {scheme.status}"
                f"/{scheme.objective_ms}, brute force says "
                f"{reference.status}/{reference.objective_ms}",
                file=sys.stderr,
            )
            return EXIT_DOMAIN
        print(f"oracle agrees after {reference.visited} enumeration steps")
    write_atomic(args.out, dump_scheme(scheme))
    if scheme.status == OPTIMAL:
        nodes = sorted({p.node for p in scheme.placements.values()})
        print(
            f"optimal: objective {scheme.objective_ms} ms, "
            f"{len(scheme.placements)} unit(s) on {len(nodes)} node(s) -> {args.out}"
        )
        return EXIT_OK
    if scheme.status == INFEASIBLE:
        print(f"infeasible -> {args.out}")
        return EXIT_INFEASIBLE
    print(f"timeout after {args.time_limit_ms} ms -> {args.out}")
    return EXIT_TIMEOUT


def cmd_unfold(args) -> int:
    repo, platform, architecture = _validated_model(args.model)
    model = _high_layer(args, repo, architecture)
    scheme = parse_scheme(_read(args.scheme))
    assignment = unfold(scheme, model)
    result = check_feasibility(assignment, repo, platform)
    if not result.feasible:
        for node_id, resource in result.violations:
            print(f"error: node {node_id} over {resource}", file=sys.stderr)
        raise UnfoldError("unfolded assignment violates node capacities")
    write_atomic(args.out, dump_assignment(assignment))
    print(f"unfolded {len(assignment)} component(s) -> {args.out}")
    return EXIT_OK


def cmd_export_lp(args) -> int:
    from .lp import export_lp

    repo, platform, architecture = _validated_model(args.model)
    model = _high_layer(args, repo, architecture)
    cfg = _solver_config(args)
    write_atomic(args.out, export_lp(model, platform, cfg))
    units = len(model.units)
    print(f"exported MILP for {units} unit(s), {len(platform.nodes)} node(s) -> {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    from .bench import BenchSpec, format_table, reports_to_json, run_bench

    reports = []
    try:
        for n in args.n:
            spec = BenchSpec(n, args.seed, args.reps, args.warmup, args.backend)
            reports.append(run_bench(spec))
    finally:  # a later n that fails keeps the rows already finished
        if reports:
            print(format_table(reports))
            if args.json:
                write_atomic(args.json, reports_to_json(reports))
    return EXIT_OK


def cmd_example(args) -> int:
    from .fixtures import robot_model_text

    write_atomic(args.out, robot_model_text())
    print(f"example model -> {args.out}")
    return EXIT_OK


def _add_model_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", help="model file (repository, platform, architecture)")


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--compacted", help="use this compacted model instead of compacting")
    parser.add_argument("--weights", help="JSON file mapping unit ids to objective weights")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvalloc",
        description="exact allocation of multi-variant software units onto CPU-GPU platforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file against all invariants")
    _add_model_arg(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compact", help="compact the architecture into multi-variant units")
    _add_model_arg(p)
    p.add_argument("-o", "--out", required=True, help="compacted model output path")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("solve", help="compute an optimal allocation scheme")
    _add_model_arg(p)
    p.add_argument("-o", "--out", required=True, help="scheme output path")
    _add_solver_args(p)
    p.add_argument(
        "--backend",
        default="auto",
        choices=["auto", "c", "python"],
        help="search kernels to use",
    )
    p.add_argument("--time-limit-ms", type=int, dest="time_limit_ms")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the result against brute-force enumeration "
        "(skipped after a timeout)",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("unfold", help="expand a scheme into per-component placements")
    _add_model_arg(p)
    p.add_argument("scheme", help="allocation scheme file")
    p.add_argument("-o", "--out", required=True, help="assignment output path")
    p.add_argument("--compacted", help="use this compacted model instead of compacting")
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("export-lp", help="write the allocation MILP in LP format")
    _add_model_arg(p)
    p.add_argument("-o", "--out", required=True, help="LP output path")
    _add_solver_args(p)
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("bench", help="time solve on generated chain systems")
    p.add_argument(
        "--n",
        type=int,
        action="append",
        required=True,
        help="chain length; repeat for several rows",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--reps", type=int, default=100, help="timed repetitions per model")
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--backend", default="auto", choices=["auto", "c", "python"])
    p.add_argument("--json", help="write the full report as JSON here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("example", help="write the bundled robot example model")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    level = _log_level()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func in (cmd_solve, cmd_export_lp, cmd_bench):  # the commands that load the solver
        _configure_logging(level)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnknownIdError as exc:
        print(f"error: unknown id {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
