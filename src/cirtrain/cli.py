"""Command-line entry point: synth, train, eval, gradcheck.

Configuration comes from built-in defaults, optionally a JSON file
(--config), then any number of --set section.key=value overrides, applied
in that order.  Set CIRTRAIN_LOG=debug|info|warning for logging verbosity; a name
that is not a logging level falls back to warning.
Refused input exits with status 2, a training abort on a non-finite value with 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_override, load_config
from .data import generate, id_ranks, read_records, synth_spec_from_config, write_records
from .metrics import format_report, rank_gallery, rank_within_subset, summarize
from .model import RetrievalModel, load_checkpoint, save_checkpoint
from .objective import score_query_against_gallery
from .tensor import NonFiniteError, no_grad
from .train import gradcheck_passed, run_gradient_check, train_model


def _setup_logging():
    # getLevelName maps a level's name to its number and any other name to a string
    level = logging.getLevelName(os.environ.get("CIRTRAIN_LOG", "warning").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
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


EVAL_CHUNK = 256  # the most records one batched eval forward embeds


def _length_runs(records):
    """(start, stop) ranges of consecutive records with equal ref, text and
    target lengths, at most EVAL_CHUNK long: each run stacks without padding."""
    stop = 0
    for _, run in itertools.groupby(
            records, lambda r: (len(r.ref_tokens), len(r.text_tokens), len(r.target_tokens))):
        start, stop = stop, stop + sum(1 for _ in run)
        for begin in range(start, stop, EVAL_CHUNK):
            yield begin, min(begin + EVAL_CHUNK, stop)


def evaluate_model(model: RetrievalModel, val_records) -> dict:
    """Score every validation query against the gallery of all validation
    targets and summarize full-gallery plus subset recalls.

    A record's subset holds its own id (`TripletRecord` refuses others).  Ids
    become gallery columns (record i's target is column i) and `id_ranks` keys
    once, before anything is embedded.  The gallery is embedded in length
    runs (`_length_runs`), then each run's queries, scored with one product
    and ranked together: at most EVAL_CHUNK x G scores at a time.
    """
    if not val_records:
        raise ValueError("validation set is empty")
    position = {}
    for column, record in enumerate(val_records):
        if position.setdefault(record.id, column) != column:
            raise ValueError(f"validation id {record.id!r} is repeated")
    subsets = [r.subset_ids for r in val_records]
    rows = np.repeat(np.arange(len(subsets)), [len(s or ()) for s in subsets])
    columns = np.fromiter(map(position.get, itertools.chain.from_iterable(filter(None, subsets)),
                              itertools.repeat(-1)), dtype=int, count=rows.size)
    if (columns < 0).any():  # name the first record at fault
        missing = [s for s in subsets[rows[np.argmax(columns < 0)]] if s not in position]
        raise ValueError(f"candidate subset ids {missing} missing from the gallery")
    if not rows.size:
        raise ValueError("validation records carry no candidate subsets")
    id_keys = id_ranks(list(position))
    full_ranks, subset_ranks = [], []
    with no_grad():
        runs = list(_length_runs(val_records))
        gallery = np.vstack([model.target_embedding([r.target_tokens for r in val_records[a:b]]).data
                             for a, b in runs])
        for (start, stop), (first, end) in zip(runs, np.searchsorted(rows, runs)):
            run, targets = val_records[start:stop], np.arange(start, stop)
            scores = score_query_against_gallery(
                model.query_embedding([r.ref_tokens for r in run], [r.text_tokens for r in run]),
                gallery)
            full_ranks.append(rank_gallery(scores, id_keys, targets))
            subset_ranks.append(rank_within_subset(
                scores, id_keys, targets, rows[first:end] - start, columns[first:end]))
    return summarize(np.concatenate(full_ranks), np.concatenate(subset_ranks))


def cmd_eval(cfg: RunConfig) -> int:
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


def cmd_gradcheck() -> int:
    # geometry is pinned small (dim 8, batch 3, two fusion layers) so the
    # finite-difference sweep stays fast and well-conditioned
    rows = run_gradient_check()
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
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate the synthetic triplet benchmark"),
        ("train", "train on a generated dataset and write a checkpoint"),
        ("eval", "score the validation set against a checkpoint"),
        ("gradcheck", "finite-difference check of every trainable gradient"),
    ):
        p = commands.add_parser(name, help=help_text)
        if name == "gradcheck":
            # gradcheck_config pins its own geometry, so it takes no config
            continue
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config entry, e.g. --set training.epochs=5")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    if args.command == "gradcheck":
        return cmd_gradcheck()
    commands = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval}
    try:
        return commands[args.command](_resolve_config(args))
    except (ValueError, OSError) as err:
        print(f"cirtrain: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        if not isinstance(err.__cause__, NonFiniteError):  # only train_model's abort is reported
            raise
        print(f"cirtrain: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
