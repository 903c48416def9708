"""Command-line surface for the whole pipeline.

Subcommands mirror the pipeline stages: ``parse`` a sentence to a diagram,
``rewrite`` a diagram under a scheme, ``compile`` it to a circuit or tensor
network, ``simulate`` a circuit with bound parameters, ``train`` one
configuration, ``sweep`` the ansatz grid, and ``report`` the results tree.

Exit codes: 0 on success, 2 for configuration problems (bad flags, bad
config files), 3 for pipeline failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from qnlp import circuit as circuit_mod
from qnlp import diagram as diagram_mod
from qnlp import experiment, simulator, tensornet
from qnlp.corpus import default_lexicon, dump_tsv, generate_mc
from qnlp.errors import ConfigError, Error
from qnlp.pregroup import Lexicon, PregroupType, parse_sentence
from qnlp.rewrite import RewriteScheme, rewrite


def _lexicon_from(args) -> Lexicon:
    if getattr(args, "lexicon", None):
        return Lexicon.load(args.lexicon)
    return default_lexicon()


def _read_json(path: str, decode):
    """``decode`` of a JSON file's contents; a file that is not JSON, or
    that ``decode`` rejects, is a config error naming the file."""
    try:
        return decode(json.loads(Path(path).read_text(encoding="utf-8")))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except (ValueError, TypeError, AttributeError, IndexError, Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_diagram(args) -> diagram_mod.Diagram:
    if getattr(args, "sentence", None):
        lexicon = _lexicon_from(args)
        return parse_sentence(args.sentence.split(), lexicon)
    if getattr(args, "diagram", None):
        return _read_json(args.diagram, diagram_mod.diagram_from_dict)
    raise ConfigError("provide either --sentence or --diagram")


def _params_from(bound) -> dict | np.ndarray:
    """``{symbol name: angle}`` or a flat list of angles."""
    if isinstance(bound, dict):
        return {circuit_mod.Symbol.from_name(name): float(v) for name, v in bound.items()}
    return np.asarray(bound, dtype=float)


def _budget(seconds: float | None, flag: str) -> float | None:
    """A wall-clock budget flag's value: absent, or finite and above 0."""
    if seconds is not None and not (math.isfinite(seconds) and seconds > 0):
        raise ConfigError(f"{flag} must be a finite number of seconds above 0, got {seconds}")
    return seconds


def _emit(text: str, out: str | None) -> None:
    if out and out != "-":
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_parse(args) -> int:
    lexicon = _lexicon_from(args)
    words = args.sentence.split()
    target = PregroupType.parse(args.target) if args.target else None
    d = parse_sentence(words, lexicon, target)
    if args.json:
        _emit(diagram_mod.diagram_to_json(d), args.json)
        return 0
    for word, box in zip(words, d.boxes):
        print(f"{word}\t{box.cod}")
    print(f"cups\t{[tuple(pair) for pair in d.cup_pairs()]}")
    print(f"residual\t{d.open_types()}")
    return 0


def _cmd_rewrite(args) -> int:
    d = _load_diagram(args)
    out = rewrite(d, RewriteScheme(args.scheme))
    _emit(diagram_mod.diagram_to_json(out), args.out)
    return 0


def _cmd_compile(args) -> int:
    cfg = experiment.ExperimentConfig(
        backend=args.backend, ansatz=args.ansatz, scheme=args.scheme,
        n_layers=args.layers, n_single_qubit_params=args.rotations,
        d_n=args.d_n, d_s=args.d_s, bond_dim=args.bond_dim, max_legs=args.max_legs,
    )
    d = rewrite(_load_diagram(args), cfg.rewrite_scheme())
    if cfg.backend == "circuit":
        circ = circuit_mod.compile_circuit(d, cfg.ansatz_config())
        _emit(circuit_mod.circuit_to_json(circ), args.out)
    else:
        net = tensornet.compile_network(d, cfg.ansatz_config())
        _emit(tensornet.network_to_json(net), args.out)
    return 0


def _cmd_simulate(args) -> int:
    circ = _read_json(args.circuit, circuit_mod.circuit_from_dict)
    if args.params:
        params = _read_json(args.params, _params_from)
    else:
        params = np.zeros(len(circ.symbols))
    dist = simulator.sentence_distribution(circ, params)
    print(
        json.dumps(
            {
                "probs": [float(p) for p in dist.probs],
                "survival_norm": dist.survival_norm,
                "degenerate": dist.degenerate,
            },
            indent=2,
        )
    )
    return 0


def _cmd_train(args) -> int:
    budget = _budget(args.budget, "--budget")
    cfg = experiment.load_config(args.config)
    summaries = experiment.run_experiment(cfg, args.results, budget)
    for s in summaries:
        print(
            f"{s['run_id']}\tstatus={s['status']}"
            f"\tval_acc={s['mean_val_acc']}\ttest_acc={s['test_acc']}"
        )
    return 0


def _cmd_sweep(args) -> int:
    budget = _budget(args.budget_per_cell, "--budget-per-cell")
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    for flag, value in (("--max-layers", args.max_layers), ("--max-rotations", args.max_rotations)):
        if value < 0:
            raise ConfigError(f"{flag} must be non-negative, got {value}")
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    cells = experiment.sweep_cells(
        scheme=args.scheme,
        ansatze=tuple(args.ansatze.split(",")),
        layer_range=tuple(range(args.max_layers + 1)),
        rotation_range=tuple(range(args.max_rotations + 1)),
        seeds=seeds,
        epochs=args.epochs,
        dataset_seed=args.dataset_seed,
    )
    summaries = experiment.run_sweep(cells, args.results, args.workers, budget)
    done = sum(1 for s in summaries if s["status"] == "ok")
    print(f"completed {done}/{len(summaries)} runs")
    paths = experiment.report(args.results)
    for name, path in paths.items():
        print(f"{name}\t{path}")
    return 0


def _cmd_report(args) -> int:
    paths = experiment.report(args.results, args.out)
    for name, path in paths.items():
        print(f"{name}\t{path}")
    return 0


def _cmd_dataset(args) -> int:
    splits = generate_mc(args.seed, tuple(args.sizes))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for lset in splits:
        dump_tsv(lset, out / f"{lset.name}.tsv")
    default_lexicon().dump(out / "lexicon.tsv")
    print(f"wrote train/dev/test TSV and lexicon under {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnlp",
        description="Compositional sentence classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a sentence into a diagram")
    p.add_argument("sentence", help="sentence text, words separated by spaces")
    p.add_argument("--lexicon", help="lexicon TSV (default: bundled)")
    p.add_argument("--target", help="target type expression (default: s)")
    p.add_argument("--json", help="write diagram JSON here ('-' for stdout)")
    p.set_defaults(func=_cmd_parse)

    schemes = [s.value for s in RewriteScheme]
    p = sub.add_parser("rewrite", help="apply a rewrite scheme to a diagram")
    p.add_argument("--sentence", help="parse this sentence first")
    p.add_argument("--diagram", help="diagram JSON file")
    p.add_argument("--lexicon")
    p.add_argument("--scheme", choices=schemes, default="re_norm_cur_norm")
    p.add_argument("-o", "--out", help="output file ('-' or omit for stdout)")
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("compile", help="compile a diagram to a circuit or network")
    p.add_argument("--sentence")
    p.add_argument("--diagram")
    p.add_argument("--lexicon")
    p.add_argument("--scheme", choices=schemes, default="re_norm_cur_norm")
    p.add_argument("--backend", choices=["circuit", "tensor"], default="circuit")
    p.add_argument(
        "--ansatz",
        default="iqp",
        help="circuit: iqp|strongly_entangling|sim14|sim15; "
        "tensor: tensor|spider|mps",
    )
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--rotations", type=int, default=3)
    p.add_argument("--d-n", dest="d_n", type=int, default=2)
    p.add_argument("--d-s", dest="d_s", type=int, default=2)
    p.add_argument("--bond-dim", dest="bond_dim", type=int, default=2)
    p.add_argument("--max-legs", dest="max_legs", type=int, default=2)
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("simulate", help="run a circuit and print its readout")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--params", help="JSON file: {symbol: angle} or a flat list")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train one experiment configuration")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--results", help="results root (default: env or ./results)")
    p.add_argument("--budget", type=float, help="wall-clock budget in seconds")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="run the ansatz/depth/rotation grid")
    p.add_argument("--scheme", choices=schemes, default="re_norm_cur_norm")
    p.add_argument(
        "--ansatze", default="iqp,strongly_entangling,sim14,sim15",
        help="comma-separated circuit ansatz names",
    )
    p.add_argument("--max-layers", type=int, default=4)
    p.add_argument("--max-rotations", type=int, default=4)
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--epochs", type=int, default=120)
    p.add_argument("--dataset-seed", type=int, default=0)
    p.add_argument("--workers", type=int, help="process pool size")
    p.add_argument("--budget-per-cell", type=float)
    p.add_argument("--results")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="emit CSV tables from completed runs")
    p.add_argument("--results")
    p.add_argument("--out", help="write CSVs here (default: results root)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("dataset", help="generate the corpus as TSV files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", type=int, nargs=3, default=[70, 30, 30])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dataset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
