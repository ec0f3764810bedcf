"""Command-line entry point.

Subcommands:

* ``gen-scenario``  sample a scenario and write it as YAML
* ``train-sae``     pretrain the channel autoencoder only
* ``train``         full pipeline, writes the artifact set to --out
* ``bench``         score a trained policy against the baselines
* ``dynamic``       MEC-count sweep with a mid-run workload shift
* ``inspect-checkpoint``  summarise a saved network or autoencoder
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import experiment
from .agent import SeedBundle
from .autoencoder import SAE_FORMAT, ChannelCompressor
from .bench import format_report
from .config import build_scenario, dump_scenario, load_config, override
from .neural import CHECKPOINT_FORMAT, load_checkpoint, read_json

logger = logging.getLogger("edgesched")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML experiment config")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--quiet", action="store_true",
                   help="only warnings and errors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgesched",
        description="learned task offloading for multi-server edge computing")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc, handler in [
            ("gen-scenario", "sample a scenario and write YAML",
             cmd_gen_scenario),
            ("train-sae", "pretrain the channel autoencoder", cmd_train_sae),
            ("train", "run the full training pipeline", cmd_train),
            ("bench", "benchmark a trained policy", cmd_bench),
            ("dynamic", "sweep the MEC count", cmd_dynamic)]:
        p = sub.add_parser(name, help=desc)
        p.set_defaults(handler=handler)
        _add_common(p)
        if name == "gen-scenario":
            p.add_argument("path", help="output YAML file")
        if name == "bench":
            p.add_argument("--oracle", action="store_true",
                           help="include the exact oracle and NRR columns")

    p = sub.add_parser("inspect-checkpoint", help="summarise a checkpoint")
    p.set_defaults(handler=cmd_inspect)
    p.add_argument("path", help="checkpoint JSON file")
    p.add_argument("--quiet", action="store_true")
    return parser


def _setup(args: argparse.Namespace):
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    cfg = load_config(getattr(args, "config", None))
    return override(cfg, seed=getattr(args, "seed", None),
                    out=getattr(args, "out", None))


def cmd_gen_scenario(args: argparse.Namespace) -> int:
    cfg = _setup(args)
    scenario = build_scenario(cfg.scenario, fallback_seed=cfg.seed)
    dump_scenario(scenario, args.path)
    print(f"wrote {scenario.n_ues} UEs / {scenario.n_mecs} MECs to {args.path}")
    return 0


def cmd_train_sae(args: argparse.Namespace) -> int:
    cfg = _setup(args)
    scenario = build_scenario(cfg.scenario, fallback_seed=cfg.seed)
    seeds = SeedBundle.from_master(cfg.seed)
    comp, _, trace = experiment.pretrain_compressor(cfg, scenario, seeds)
    acc = experiment.heldout_accuracy(comp, scenario, seeds,
                                      cfg.dynamic.accuracy_samples)
    print(f"compression ratio {comp.compression_ratio():.2f}, "
          f"held-out accuracy {acc:.4f}")
    if trace:
        print(f"pretrain loss {trace[0]:.5f} -> {trace[-1]:.5f}")
    if cfg.out is not None:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        comp.save(out / "sae.json", seed=cfg.seed, epoch=0)
        print(f"saved {out / 'sae.json'}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _setup(args)
    art = experiment.train_experiment(cfg, cfg.out)
    tail = art.result.logs[-min(200, len(art.result.logs)):]
    mean_reward = float(np.mean([r.reward for r in tail]))
    print(f"trained {len(art.result.logs)} epochs, "
          f"mean reward over last {len(tail)}: {mean_reward:.5f}")
    if cfg.out is not None:
        print(f"artifacts in {cfg.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _setup(args)
    if args.oracle:
        cfg.bench.with_oracle = True
    report = experiment.bench_experiment(cfg, cfg.out)
    print(format_report(report))
    return 0


def cmd_dynamic(args: argparse.Namespace) -> int:
    cfg = _setup(args)
    rows = experiment.dynamic_experiment(cfg, cfg.out)
    print(experiment.format_table(rows))
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    fmt = read_json(args.path).get("format")
    if fmt not in (SAE_FORMAT, CHECKPOINT_FORMAT):
        raise ValueError(f"{args.path}: unrecognised format {fmt!r}")
    print(f"format: {fmt}")
    if fmt == SAE_FORMAT:
        comp, meta = ChannelCompressor.load(args.path)
        print(f"dims: {comp.dims}  identity: {comp.net is None}")
        if comp.net is not None:
            print(f"network dims: {comp.net.dims}")
        print(f"raster bounds: [{comp.raster.lo}, {comp.raster.hi}]")
    else:
        net, meta = load_checkpoint(args.path)
        print(f"dims: {net.dims}")
        print(f"activations: {[s.activation for s in net.specs]}")
        print(f"parameters: {net.n_params()}")
    for key in ("seed", "epoch"):
        if key in meta:
            print(f"{key}: {meta[key]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  A bad input (a ``ValueError``) or a file that
    cannot be read or written (an ``OSError``) is reported as one line on
    stderr, ``edgesched: error: <message>``, with exit code 2, as argparse
    reports a bad command line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog}: error: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
