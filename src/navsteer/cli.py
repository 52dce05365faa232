"""Command-line front end.

Exit codes: 0 success, 2 input/parameter parse failure, 3 non-convergence,
4 connectivity rejection under --strict, 5 empty eligible-link support,
6 sweep finished with partial failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import secrets
import sys
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
    REALISTIC_BIAS_STRENGTHS,
    SATURATION_BIAS_STRENGTHS,
    SweepConfig,
    _format_value,
    lorenz_report,
    run_single_detailed,
    sweep,
    write_failure_manifest,
    write_records_csv,
    write_records_jsonl,
)
from .graph import WeightedDigraph, largest_scc, load_edge_list, write_edge_list
from .modify import ModificationSpec, Strategy
from .surfer import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    stationary,
    transition_matrix,
)
from .targets import TargetSet, sample_target_sets, write_targets_csv
from .util import derive_seed

logger = logging.getLogger(__name__)

_STRATEGY_CHOICES = {s.value: s for s in Strategy}

# every other NavsteerError or OSError exits with 2
_EXIT_CODES = {
    ConvergenceError: 3,
    NotStronglyConnectedError: 4,
    EmptySupportError: 5,
}


def _prepare_graph(source: str, strict: bool):
    """Load an edge list and reduce to the largest SCC unless --strict.

    Returns (graph, info) where info records the reduction and the original
    index of every retained node.
    """
    g = load_edge_list(source)
    if g.n == 0:
        raise EmptyGraphError(f"no links found in {source}")
    sub, mapping = largest_scc(g)
    if sub.n != g.n:
        if strict:
            raise NotStronglyConnectedError(
                f"{source} is not strongly connected ({g.n} nodes, largest "
                f"component has {sub.n}); drop --strict to reduce automatically")
        logger.warning(
            "input is not strongly connected; using largest component "
            "(%d of %d nodes)", sub.n, g.n)
    original_index = [0] * sub.n
    for old, new in mapping.items():
        original_index[new] = old
    info = {
        "input_nodes": g.n,
        "nodes_used": sub.n,
        "scc_reduced": sub.n != g.n,
        "original_index": original_index,
    }
    return sub, info


def _write_json(path: Path, payload: dict) -> None:
    body = {"version": __version__}
    body.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_pi_csv(path: Path, g: WeightedDigraph, pi, original_index) -> None:
    labels = (g.label_for(i) for i in range(g.n))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "label", "pi"])
        writer.writerows(zip(original_index, labels,
                             map(_format_value, pi.tolist())))


def cmd_stationary(args) -> int:
    g, info = _prepare_graph(args.input, args.strict)
    result = stationary(transition_matrix(g), args.tolerance, args.max_iterations)
    out = Path(args.output) if args.output else Path(f"{Path(args.input).stem}.pi.csv")
    _write_pi_csv(out, g, result.pi, info["original_index"])
    _write_json(Path(str(out) + ".meta.json"), {
        "input": str(args.input),
        "tolerance": args.tolerance,
        "max_iterations": args.max_iterations,
        "strict": args.strict,
        "input_nodes": info["input_nodes"],
        "nodes_used": info["nodes_used"],
        "scc_reduced": info["scc_reduced"],
        "iterations": result.iterations,
        "residual": result.residual,
    })
    print(f"stationary distribution over {g.n} nodes in {result.iterations} "
          f"iterations (residual {result.residual:.3e}) -> {out}")
    return 0


def _read_stripped_lines(path: str) -> list[str]:
    """Stripped lines of a UTF-8 text file, a leading byte-order mark dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return [raw.strip() for raw in fh]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not valid UTF-8 ({exc.reason})") from None


def _read_target_labels(path: str) -> list[str]:
    labels = [line for line in _read_stripped_lines(path)
              if line and not line.startswith("#")]
    if not labels:
        raise ValidationError(f"no target labels found in {path}")
    return labels


def _resolve_targets(args, g: WeightedDigraph, seed: int) -> TargetSet:
    """Build the target set from --targets, --targets-file or --phi."""
    if args.phi is not None:
        return sample_target_sets(g, args.phi, 1, seed)[0]
    if args.targets is not None:
        labels = [s.strip() for s in args.targets.split(",") if s.strip()]
    else:
        labels = _read_target_labels(args.targets_file)
    index = g.label_index()
    members = []
    for lab in labels:
        if lab not in index:
            raise ValidationError(
                f"target {lab!r} is not in the graph used for analysis "
                "(it may lie outside the largest strongly connected component)")
        members.append(index[lab])
    members = sorted(set(members))
    return TargetSet(members=tuple(members), phi=len(members) / g.n,
                     sample_id=0, seed=seed)


def cmd_modify(args) -> int:
    g, info = _prepare_graph(args.input, args.strict)
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    strategy = _STRATEGY_CHOICES[args.strategy]
    ts = _resolve_targets(args, g, seed)
    if strategy is Strategy.COMBINED:
        spec = ModificationSpec(strategy=strategy, bias_strength=args.bias_strength,
                                alpha=args.alpha,
                                seed=derive_seed(seed, "combine"))
    else:
        if args.alpha is not None:
            raise ValidationError("--alpha only applies to --strategy combined")
        spec = ModificationSpec(strategy=strategy, bias_strength=args.bias_strength)

    stem = Path(args.input).stem
    record, modified = run_single_detailed(
        g, ts, spec,
        tolerance=args.tolerance, max_iterations=args.max_iterations,
        graph_id=stem, phi=args.phi)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    out_graph = outdir / f"{stem}.modified.tsv"
    write_edge_list(modified, out_graph, metadata={
        "version": __version__,
        "input": str(args.input),
        "strategy": spec.strategy.value,
        "bias_strength": spec.bias_strength,
        "alpha": spec.alpha,
        "seed": seed,
        "targets": [g.label_for(i) for i in ts.members],
        "scc_reduced": info["scc_reduced"],
        "input_nodes": info["input_nodes"],
        "nodes_used": info["nodes_used"],
    })
    out_run = outdir / f"{stem}.run.csv"
    write_records_csv([record], out_run, include_timing=args.timing)
    out_targets = outdir / f"{stem}.targets.csv"
    write_targets_csv([ts], g, out_targets)
    print(f"{spec.strategy.value}: pi_t {_format_value(record.pi_t)} -> "
          f"{_format_value(record.pi_t_prime)} (tau {_format_value(record.tau)})")
    print(f"wrote {out_graph}, {out_run}, {out_targets}")
    return 0


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise ValidationError(f"cannot parse number list from {text!r}")


_CONFIG_KEYS = {
    "graph_id": str,
    "strategies": lambda v: tuple(
        _STRATEGY_CHOICES[s.strip()] for s in v.split(",") if s.strip()),
    "phi_values": _parse_float_list,
    "bias_strengths": _parse_float_list,
    "alpha_values": _parse_float_list,
    "samples_per_phi": int,
    "master_seed": int,
    "tolerance": float,
    "max_iterations": int,
}


def _parse_config_file(path: str) -> dict:
    """Flat key = value sweep configuration, keys named after SweepConfig."""
    values: dict = {}
    for lineno, line in enumerate(_read_stripped_lines(path), start=1):
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
        except (ValueError, KeyError):
            raise ValidationError(
                f"{path}:{lineno}: bad value for {key}: {value!r}")
    return values


def _build_sweep_config(args, stem: str) -> SweepConfig:
    # precedence: built-in defaults < config file < command-line flags
    values = _parse_config_file(args.config) if args.config else {}
    if args.strategies is not None:
        names = [s.strip() for s in args.strategies.split(",") if s.strip()]
        bad = [s for s in names if s not in _STRATEGY_CHOICES]
        if bad:
            raise ValidationError(f"unknown strategy name(s): {', '.join(bad)}")
        values["strategies"] = tuple(_STRATEGY_CHOICES[s] for s in names)
    if args.phi_values is not None:
        values["phi_values"] = _parse_float_list(args.phi_values)
    if args.bias_strengths is not None:
        values["bias_strengths"] = _parse_float_list(args.bias_strengths)
    elif args.mode == "saturation":
        values["bias_strengths"] = SATURATION_BIAS_STRENGTHS
    elif args.mode == "realistic":
        values["bias_strengths"] = REALISTIC_BIAS_STRENGTHS
    if args.alpha_values is not None:
        values["alpha_values"] = _parse_float_list(args.alpha_values)
    if args.samples is not None:
        values["samples_per_phi"] = args.samples
    if args.seed is not None:
        values["master_seed"] = args.seed
    if args.tolerance is not None:
        values["tolerance"] = args.tolerance
    if args.max_iterations is not None:
        values["max_iterations"] = args.max_iterations
    values.setdefault("graph_id", stem)
    if "master_seed" not in values:
        values["master_seed"] = secrets.randbits(63)
        logger.warning("no master seed given; generated %d (echoed in config "
                       "sidecar)", values["master_seed"])
    return SweepConfig(**values)


def cmd_sweep(args) -> int:
    g, info = _prepare_graph(args.input, args.strict)
    stem = Path(args.input).stem
    config = _build_sweep_config(args, stem)
    result = sweep(g, config, workers=args.workers)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.format == "json-lines":
        out_records = outdir / f"{stem}.runs.jsonl"
        write_records_jsonl(result.records, out_records)
    else:
        out_records = outdir / f"{stem}.runs.csv"
        write_records_csv(result.records, out_records, include_timing=args.timing)
    out_failures = write_failure_manifest(result.failures,
                                          outdir / f"{stem}.failures.json")
    out_config = outdir / f"{stem}.config.json"
    _write_json(out_config, {
        "input": str(args.input),
        "graph_id": config.graph_id,
        "strategies": [s.value for s in config.strategies],
        "phi_values": list(config.phi_values),
        "bias_strengths": list(config.bias_strengths),
        "alpha_values": list(config.alpha_values),
        "samples_per_phi": config.samples_per_phi,
        "master_seed": config.master_seed,
        "tolerance": config.tolerance,
        "max_iterations": config.max_iterations,
        "workers": args.workers,
        "input_nodes": info["input_nodes"],
        "nodes_used": info["nodes_used"],
        "scc_reduced": info["scc_reduced"],
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
        "version": __version__,
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
    g, info = _prepare_graph(args.input, args.strict)
    out = (Path(args.output) if args.output
           else Path(f"{Path(args.input).stem}.lorenz.csv"))
    lorenz_report(g, out, tolerance=args.tolerance,
                  max_iterations=args.max_iterations)
    _write_json(Path(str(out) + ".meta.json"), {
        "input": str(args.input),
        "tolerance": args.tolerance,
        "max_iterations": args.max_iterations,
        "input_nodes": info["input_nodes"],
        "nodes_used": info["nodes_used"],
        "scc_reduced": info["scc_reduced"],
    })
    print(f"wrote concentration curve ({g.n + 1} points) -> {out}")
    return 0


def _add_common(parser: argparse.ArgumentParser, tolerance_default=DEFAULT_TOLERANCE,
                max_iter_default=DEFAULT_MAX_ITERATIONS) -> None:
    parser.add_argument("--tolerance", type=float, default=tolerance_default,
                        help="L1 convergence tolerance for power iteration")
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
    p.add_argument("--strategy", required=True, choices=sorted(_STRATEGY_CHOICES),
                   help="modification strategy")
    p.add_argument("--bias-strength", type=float, required=True, metavar="B",
                   help="bias strength b (>= 1)")
    p.add_argument("--alpha", type=float, default=None,
                   help="bias fraction of the budget (combined only)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--targets", help="comma-separated target node labels")
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
    p.add_argument("--strategies",
                   help="comma-separated subset of bias,insert,combined")
    p.add_argument("--phi-values", help="target fractions, e.g. '0.01,0.1'")
    p.add_argument("--bias-strengths", help="bias strengths, e.g. '2,5,10'")
    p.add_argument("--alpha-values", help="alpha grid for combined runs")
    p.add_argument("--samples", type=int, default=None,
                   help="target samples per phi (default 100)")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--mode", choices=("realistic", "saturation"), default=None,
                   help="preset bias-strength grid (2..15 or up to 200)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (output bytes are identical for any "
                        "worker count)")
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
