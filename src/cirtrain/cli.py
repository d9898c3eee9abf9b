"""Command-line entry point: synth, train, eval, gradcheck.

Configuration comes from built-in defaults, optionally a JSON file
(--config), then any number of --set section.key=value overrides, applied
in that order.  Set CIRTRAIN_LOG=debug|info|warning for logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_override, load_config
from .data import generate, read_records, synth_spec_from_config, write_records
from .metrics import format_report, rank_gallery, rank_within_subset, summarize
from .model import RetrievalModel, load_checkpoint, save_checkpoint
from .objective import score_query_against_gallery
from .tensor import no_grad
from .train import gradcheck_passed, run_gradient_check, train_model


def _setup_logging():
    level = os.environ.get("CIRTRAIN_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for assignment in args.set or []:
        cfg = apply_override(cfg, assignment)
    return cfg


def cmd_synth(cfg: RunConfig) -> int:
    train, val = generate(synth_spec_from_config(cfg))
    write_records(cfg.paths.train_set, train)
    write_records(cfg.paths.val_set, val)
    print(f"wrote {len(train)} train records to {cfg.paths.train_set}")
    print(f"wrote {len(val)} val records to {cfg.paths.val_set}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    records = read_records(cfg.paths.train_set)
    model = RetrievalModel(cfg)
    history = train_model(model, records, cfg, log_path=cfg.paths.train_log)
    for row in history:
        print(json.dumps(row))
    save_checkpoint(model, cfg.paths.checkpoint)
    print(f"wrote checkpoint to {cfg.paths.checkpoint}")
    return 0


def evaluate_model(model: RetrievalModel, val_records) -> dict:
    """Score every validation query against the gallery of all validation
    targets and summarize full-gallery plus subset recalls."""
    if not val_records:
        raise ValueError("validation set is empty")
    position = {}
    for column, record in enumerate(val_records):
        if position.setdefault(record.id, column) != column:
            raise ValueError(f"validation id {record.id!r} is repeated")
    id_keys = np.array(list(position))
    with no_grad():
        gallery = np.vstack([model.target_embedding(r.target_tokens).data for r in val_records])
        full_ranks, subset_ranks = [], []
        for column, record in enumerate(val_records):
            query = model.query_embedding(record.ref_tokens, record.text_tokens)
            scores = score_query_against_gallery(query, gallery)
            full_ranks.append(rank_gallery(scores, id_keys, column))
            if record.subset_ids is not None:
                subset_ranks.append(
                    rank_within_subset(scores, position, record.subset_ids, record.id)
                )
    if not subset_ranks:
        raise ValueError("validation records carry no candidate subsets")
    return summarize(full_ranks, subset_ranks)


def cmd_eval(cfg: RunConfig) -> int:
    if not Path(cfg.paths.checkpoint).exists():
        raise FileNotFoundError(f"checkpoint not found: {cfg.paths.checkpoint}")
    model = RetrievalModel(cfg)
    load_checkpoint(model, cfg.paths.checkpoint)
    report = evaluate_model(model, read_records(cfg.paths.val_set))
    report_path = Path(cfg.paths.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    with report_path.open("w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(format_report(report))
    print(f"wrote report to {cfg.paths.report}")
    return 0


def cmd_gradcheck(corrupt: str | None = None) -> int:
    # geometry is pinned small (dim 8, batch 3, two fusion layers) so the
    # finite-difference sweep stays fast and well-conditioned
    rows = run_gradient_check(corrupt=corrupt)
    for row in rows:
        if row["max_rel_err"] is None:
            print(f"{row['name']:<40s} {row['status']}")
        else:
            print(f"{row['name']:<40s} {row['status']:<18s} max rel err {row['max_rel_err']:.3e}")
    ok = gradcheck_passed(rows)
    print("gradient check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cirtrain",
        description="Composed image retrieval training stack at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate the synthetic triplet benchmark"),
        ("train", "train on a generated dataset and write a checkpoint"),
        ("eval", "score the validation set against a checkpoint"),
        ("gradcheck", "finite-difference check of every trainable gradient"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "gradcheck":
            # gradcheck_config pins its own geometry, so it takes no config
            p.add_argument("--corrupt", help=argparse.SUPPRESS)
            continue
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config entry, e.g. --set training.epochs=5")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    if args.command == "gradcheck":
        return cmd_gradcheck(corrupt=args.corrupt)
    cfg = _resolve_config(args)
    if args.command == "synth":
        return cmd_synth(cfg)
    if args.command == "train":
        return cmd_train(cfg)
    if args.command == "eval":
        return cmd_eval(cfg)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
