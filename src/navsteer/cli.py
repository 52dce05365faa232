"""Command-line front end.

Exit codes: 0 success, 2 input/parameter parse failure, 3 non-convergence
(a periodic chain included), 4 connectivity rejection under --strict,
5 empty eligible-link support, 6 sweep finished with partial failures.
"""

from __future__ import annotations

import argparse
import csv
import logging
import secrets
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .errors import (
    ConvergenceError,
    EmptyGraphError,
    EmptySupportError,
    NavsteerError,
    NotStronglyConnectedError,
    ValidationError,
)
from .experiment import (
    COMBINE_STREAM,
    REALISTIC_BIAS_STRENGTHS,
    SATURATION_BIAS_STRENGTHS,
    SweepConfig,
    run_single_detailed,
    sweep,
    write_records_csv,
    write_records_jsonl,
)
from .graph import (
    METADATA_SUFFIX,
    WeightedDigraph,
    largest_scc,
    load_edge_list,
    read_lines,
    write_edge_list,
)
from .modify import ModificationSpec, Strategy
from .surfer import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    check_solver_settings,
    lorenz_curve,
    stationary,
    transition_matrix,
)
from .targets import TargetSet, sample_target_sets, target_set_size, write_targets_csv
from .util import derive_seed, format_value, write_csv, write_json

logger = logging.getLogger(__name__)

# every other NavsteerError or OSError exits with 2
_EXIT_CODES = {
    ConvergenceError: 3,
    NotStronglyConnectedError: 4,
    EmptySupportError: 5,
}


def _prepare_graph(source: str, strict: bool):
    """Load an edge list and reduce to the largest SCC unless --strict.

    Returns the graph, the original index of each of its nodes and the
    provenance fields that every sidecar records about the reduction.
    """
    g = load_edge_list(source)
    if g.n == 0:
        raise EmptyGraphError(f"no links found in {source}")
    sub, kept = largest_scc(g)
    if sub.n != g.n:
        if strict:
            raise NotStronglyConnectedError(
                f"{source} is not strongly connected ({g.n} nodes, largest "
                f"component has {sub.n}); drop --strict to reduce automatically")
        logger.warning(
            "input is not strongly connected; using largest component "
            "(%d of %d nodes)", sub.n, g.n)
    if sub.edge_count() == 0:
        raise EmptyGraphError(
            f"no strongly connected component of {source} has a link")
    provenance = {
        "input_nodes": g.n,
        "nodes_used": sub.n,
        "scc_reduced": sub.n != g.n,
    }
    return sub, kept, provenance


def _solve(args):
    """Prepare the input graph and solve its stationary distribution.

    Returns the graph, the original index of each of its nodes, the solve
    and the sidecar fields that the stationary and lorenz reports share.
    """
    check_solver_settings(args.tolerance, args.max_iterations)
    g, kept, provenance = _prepare_graph(args.input, args.strict)
    result = stationary(transition_matrix(g), args.tolerance, args.max_iterations)
    sidecar = {
        "input": str(args.input),
        "tolerance": args.tolerance,
        "max_iterations": args.max_iterations,
        **provenance,
    }
    return g, kept, result, sidecar


def cmd_stationary(args) -> int:
    g, kept, result, sidecar = _solve(args)
    out = Path(args.output or f"{Path(args.input).stem}.pi.csv")
    write_csv(out, ["node", "label", "pi"],
              zip(kept.tolist(), g.node_labels, result.pi.tolist()))
    write_json(Path(str(out) + METADATA_SUFFIX), {
        **sidecar,
        "strict": args.strict,
        "iterations": result.iterations,
        "residual": result.residual,
    })
    print(f"stationary distribution over {g.n} nodes in {result.iterations} "
          f"iterations (residual {result.residual:.3e}) -> {out}")
    return 0


def _resolve_targets(args, g: WeightedDigraph, seed: int) -> TargetSet:
    """Build the target set from --targets, --targets-file or --phi."""
    if args.phi is not None:
        return sample_target_sets(g, args.phi, 1, seed)[0]
    if args.targets is None:
        labels = [line for line in map(str.strip, read_lines(args.targets_file))
                  if line and not line.startswith("#")]
        if not labels:
            raise ValidationError(f"no target labels found in {args.targets_file}")
    else:
        try:  # one CSV record, quoted as the reports quote labels
            record = next(csv.reader([args.targets], strict=True,
                                     skipinitialspace=True))
        except csv.Error as exc:
            raise ValidationError(f"--targets is not one CSV record: {exc}") from None
        labels = [s.strip() for s in record if s.strip()]
    index = g.label_index()
    for lab in labels:
        if lab not in index:
            raise ValidationError(
                f"target {lab!r} is not in the graph used for analysis "
                "(it may lie outside the largest strongly connected component)")
    return TargetSet(members=tuple(sorted({index[lab] for lab in labels})), sample_id=0)


def cmd_modify(args) -> int:
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    strategy = Strategy(args.strategy)
    spec = ModificationSpec(strategy=strategy, bias_strength=args.bias_strength,
                            alpha=args.alpha, seed=derive_seed(seed, COMBINE_STREAM)
                            if strategy is Strategy.COMBINED else None)
    check_solver_settings(args.tolerance, args.max_iterations)
    if args.phi is not None:
        target_set_size(args.phi, 1)  # the sampling's (0, 1] check, before the input
    g, _, provenance = _prepare_graph(args.input, args.strict)
    ts = _resolve_targets(args, g, seed)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    record, modified = run_single_detailed(
        g, ts, spec,
        tolerance=args.tolerance, max_iterations=args.max_iterations,
        graph_id=stem, phi=args.phi)

    out_graph = outdir / f"{stem}.modified.tsv"
    write_edge_list(modified, out_graph, metadata={
        "input": str(args.input),
        "strategy": spec.strategy.value,
        "bias_strength": spec.bias_strength,
        "alpha": spec.alpha,
        "seed": seed,
        "targets": [g.node_labels[i] for i in ts.members],
        **provenance,
    })
    out_run = outdir / f"{stem}.run.csv"
    write_records_csv([record], out_run, include_timing=args.timing)
    out_targets = outdir / f"{stem}.targets.csv"
    write_targets_csv([ts], g, out_targets)
    print(f"{spec.strategy.value}: pi_t {format_value(record.pi_t)} -> "
          f"{format_value(record.pi_t_prime)} (tau {format_value(record.tau)})")
    print(f"wrote {out_graph}, {out_run}, {out_targets}")
    return 0


def number_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.replace(",", " ").split())


def strategy_list(text: str) -> tuple[Strategy, ...]:
    return tuple(Strategy(s.strip()) for s in text.split(",") if s.strip())


# SweepConfig fields settable from a --config file. Each sweep flag that
# sets one has it as its dest and parses its value with the same function.
_CONFIG_KEYS = {
    "graph_id": str,
    "strategies": strategy_list,
    "phi_values": number_list,
    "bias_strengths": number_list,
    "alpha_values": number_list,
    "samples_per_phi": int,
    "master_seed": int,
    "tolerance": float,
    "max_iterations": int,
}

_MODE_STRENGTHS = {
    "realistic": REALISTIC_BIAS_STRENGTHS,
    "saturation": SATURATION_BIAS_STRENGTHS,
}


def _parse_config_file(path: str) -> dict:
    """Flat key = value sweep configuration, keys named after SweepConfig."""
    values: dict = {}
    for lineno, line in enumerate(map(str.strip, read_lines(path)), start=1):
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return values


def _build_sweep_config(args, stem: str) -> SweepConfig:
    # precedence: built-in defaults < config file < --mode < other flags
    values = {"graph_id": stem}
    if args.config:
        values.update(_parse_config_file(args.config))
    if args.mode is not None:
        values["bias_strengths"] = _MODE_STRENGTHS[args.mode]
    flags = vars(args)
    values.update((key, flags[key]) for key in _CONFIG_KEYS
                  if flags.get(key) is not None)
    config = SweepConfig(**values)  # validated before a seed is generated
    if "master_seed" not in values:
        config = replace(config, master_seed=secrets.randbits(63))
        logger.warning("no master seed given; generated %d (echoed in config "
                       "sidecar)", config.master_seed)
    return config


def cmd_sweep(args) -> int:
    if args.workers < 1:  # before the output directory is made
        raise ValidationError("workers must be at least 1")
    stem = Path(args.input).stem
    config = _build_sweep_config(args, stem)
    g, _, provenance = _prepare_graph(args.input, args.strict)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = sweep(g, config, workers=args.workers)

    if args.format == "json-lines":
        out_records = outdir / f"{stem}.runs.jsonl"
        write_records_jsonl(result.records, out_records, include_timing=args.timing)
    else:
        out_records = outdir / f"{stem}.runs.csv"
        write_records_csv(result.records, out_records, include_timing=args.timing)
    out_failures = outdir / f"{stem}.failures.json"
    write_json(out_failures, {
        "failure_count": len(result.failures),
        "failures": [asdict(f) for f in result.failures],
    })
    write_json(outdir / f"{stem}.config.json", {
        "input": str(args.input),
        **asdict(config),
        "workers": args.workers,
        **provenance,
    })
    total = len(result.records) + len(result.failures)
    print(f"completed {len(result.records)} of {total} runs -> {out_records}")
    if result.failures:
        print(f"{len(result.failures)} run(s) failed; manifest: {out_failures}",
              file=sys.stderr)
        return 6
    return 0


def cmd_synth(args) -> int:
    from .synth import scale_free_graph

    g = scale_free_graph(args.nodes, avg_degree=args.avg_degree,
                         seed=args.seed, exponent=args.exponent)
    write_edge_list(g, args.output, metadata={
        "synthetic": True,
        "generator": "scale_free",
        "requested_nodes": args.nodes,
        "avg_degree": args.avg_degree,
        "exponent": args.exponent,
        "seed": args.seed,
    })
    print(f"wrote synthetic graph ({g.n} nodes, {g.edge_count()} links) "
          f"-> {args.output}")
    return 0


def cmd_lorenz(args) -> int:
    g, _, result, sidecar = _solve(args)
    out = Path(args.output or f"{Path(args.input).stem}.lorenz.csv")
    write_csv(out, ["node_fraction", "cumulative_energy"],
              lorenz_curve(result.pi).tolist())
    write_json(Path(str(out) + METADATA_SUFFIX), sidecar)
    print(f"wrote concentration curve ({g.n + 1} points) -> {out}")
    return 0


def _add_common(parser: argparse.ArgumentParser, tolerance_default=DEFAULT_TOLERANCE,
                max_iter_default=DEFAULT_MAX_ITERATIONS) -> None:
    parser.add_argument("--tolerance", type=float, default=tolerance_default,
                        help="finite, positive L1 tolerance for power iteration")
    parser.add_argument("--max-iterations", type=int, default=max_iter_default,
                        help="iteration budget before giving up")
    parser.add_argument("--strict", action="store_true",
                        help="reject inputs that are not strongly connected "
                             "instead of reducing to the largest component")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navsteer",
        description="Steer a random surfer's stationary distribution with "
                    "link modifications and measure the effect.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log informational messages")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stationary",
                       help="compute the stationary distribution of an edge list")
    p.add_argument("input", help="tab-separated edge list")
    p.add_argument("-o", "--output", help="pi CSV path (default <input>.pi.csv)")
    _add_common(p)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("modify", help="apply one modification strategy")
    p.add_argument("input")
    p.add_argument("--strategy", required=True,
                   choices=sorted(s.value for s in Strategy),
                   help="modification strategy")
    p.add_argument("--bias-strength", type=float, required=True, metavar="B",
                   help="bias strength b (>= 1)")
    p.add_argument("--alpha", type=float, default=None,
                   help="bias fraction of the budget (combined only)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--targets", help="target node labels as one CSV record")
    group.add_argument("--targets-file",
                       help="file with one target label per line")
    group.add_argument("--phi", type=float,
                       help="sample a target fraction instead of naming targets")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for target sampling / combined draws "
                        "(generated and echoed when omitted)")
    p.add_argument("--output-dir", default=".",
                   help="directory for the modified edge list and reports")
    p.add_argument("--timing", action="store_true",
                   help="fill the wall_time_ms column (non-reproducible bytes)")
    _add_common(p)
    p.set_defaults(func=cmd_modify)

    p = sub.add_parser("sweep", help="run a Monte-Carlo strategy sweep")
    p.add_argument("input")
    p.add_argument("--config", help="flat key = value sweep configuration file")
    p.add_argument("--strategies", type=strategy_list,
                   help="comma-separated subset of bias,insert,combined")
    p.add_argument("--phi-values", type=number_list,
                   help="target fractions, e.g. '0.01,0.1'")
    p.add_argument("--bias-strengths", type=number_list,
                   help="bias strengths, e.g. '2,5,10'")
    p.add_argument("--alpha-values", type=number_list,
                   help="alpha grid for combined runs")
    p.add_argument("--samples", dest="samples_per_phi", type=int,
                   help="target samples per phi (default 100)")
    p.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    p.add_argument("--mode", choices=sorted(_MODE_STRENGTHS),
                   help="preset bias-strength grid (2..15 or up to 200)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most one per run and per CPU "
                        "(output bytes are identical for any worker count)")
    p.add_argument("--format", choices=("csv", "json-lines"), default="csv")
    p.add_argument("--timing", action="store_true",
                   help="fill the wall_time_ms column (non-reproducible bytes)")
    p.add_argument("--output-dir", default=".")
    # None defaults let a --config file value win over the built-in default
    _add_common(p, tolerance_default=None, max_iter_default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic scale-free graph")
    p.add_argument("output", help="edge-list path to write")
    p.add_argument("-n", "--nodes", type=int, required=True)
    p.add_argument("--avg-degree", type=float, default=1.8)
    p.add_argument("--exponent", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("lorenz",
                       help="stationary-mass concentration curve as CSV")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="CSV path (default <input>.lorenz.csv)")
    _add_common(p)
    p.set_defaults(func=cmd_lorenz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except (NavsteerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES.items()
                     if isinstance(exc, cls)), 2)


if __name__ == "__main__":
    sys.exit(main())
