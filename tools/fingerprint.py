"""Print a bit-for-bit fingerprint of a cirtrain checkout as one JSON document.

    python tools/fingerprint.py <checkout>

`<checkout>` is a directory holding the `src/cirtrain` package; a directory
without it (where `PYTHONPATH` could supply another tree's), or a `cirtrain`
already imported from elsewhere, is refused with exit status 2.  Two
checkouts that train, differentiate and evaluate alike print the same bytes,
so a change that claims to keep every result can be checked by comparing
`sha256sum` of this output on the parent and on the change.

For each of the four ablation variants, at the default geometry and at
dim 8 / batch 8, the document records:
- the first step's `LossBreakdown` repr;
- the sha256 of each parameter's gradient after that step's backward;
- that step's recorded graph nodes, counted by op;
- the eval report at init and after one epoch;
- the epoch row and the sha256 of each parameter after one epoch.
It also records the sha256 of each artifact of the c7 determinism run
(datasets, checkpoint, training log and report), and the eval report of the
default model at init on a ragged, tie-heavy copy of the default validation
set at an eval chunk of 5 (`_ragged_tied`), so the run and candidate slicing
of the eval pass is covered too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

GEOMETRIES = {
    "default": {},
    "dim8_b8": {"model": {"dim": 8}, "training": {"batch_size": 8}},
}


def _sha(array) -> str | None:
    return None if array is None else hashlib.sha256(np.ascontiguousarray(array)).hexdigest()


def _census(loss) -> dict:
    """Recorded graph nodes reachable from `loss`, counted by op.

    Defined here rather than taken from the checkout's benchmark, so two
    checkouts are always counted by one rule.
    """
    counts, seen, todo = Counter(), set(), [loss]
    while todo:
        node = todo.pop()
        if node in seen or not node.requires_grad:  # tensors hash by identity
            continue
        seen.add(node)
        counts[node.op] += node.op != "leaf"
        todo.extend(node._parents)
    return {op: n for op, n in sorted(counts.items()) if n}


def _replace(cfg, overrides: dict):
    for section, values in overrides.items():
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section), **values))
    return cfg


def _variant(overrides, use_alignment, use_reasoning, train, val) -> dict:
    from cirtrain.cli import evaluate_model
    from cirtrain.config import RunConfig
    from cirtrain.data import batches
    from cirtrain.model import RetrievalModel
    from cirtrain.train import train_model

    cfg = _replace(RunConfig(), {**overrides, "training": {**overrides.get("training", {}), "epochs": 1},
                                 "ablation": {"use_alignment": use_alignment,
                                              "use_reasoning": use_reasoning}})
    model = RetrievalModel(cfg)
    batch = next(batches(train, cfg.training.batch_size, cfg.training.seed, 0))
    total, breakdown = model.batch_losses(batch)
    total.backward()
    out = {
        "first_step": repr(breakdown),
        "first_step_grads": {name: _sha(p.grad) for name, p in model.parameters().items()},
        "first_step_census": _census(total),
        "eval_at_init": evaluate_model(model, val),
    }
    model = RetrievalModel(cfg)
    out["epoch_rows"] = train_model(model, train, cfg)
    out["eval_after_epoch"] = evaluate_model(model, val)
    out["params_after_epoch"] = {name: _sha(p.data) for name, p in model.parameters().items()}
    return out


def _c7_artifacts() -> dict:
    """The artifacts of test_c7_determinism's run, by file name."""
    from cirtrain import cli
    from cirtrain.config import RunConfig

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = _replace(RunConfig(), {
            "model": {"dim": 8, "prompts": 2, "compositor_layers": 1},
            "synth": {"n_train": 48, "n_val": 16},
            "training": {"epochs": 2, "batch_size": 8},
            "paths": {"train_set": str(root / "train.jsonl"), "val_set": str(root / "val.jsonl"),
                      "checkpoint": str(root / "ckpt.json"), "train_log": str(root / "log.jsonl"),
                      "report": str(root / "report.json")},
        })
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_synth(cfg)
            cli.cmd_train(cfg)
            cli.cmd_eval(cfg)
        return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                for name in ("train.jsonl", "val.jsonl", "ckpt.json", "log.jsonl", "report.json")}


def _ragged_tied(val) -> list:
    """`val` with lengths that change every few records in its first half (runs of 1-3) and
    not in its second (runs cut at the eval chunk), each group of three records sharing one
    target (exact gallery ties), record i keeping the first 1 + i % 6 of its candidates and
    every fifth record keeping none."""
    def cut(tokens, ragged):
        return tokens[:-1] if ragged else tokens

    half = len(val) // 2
    return [dataclasses.replace(
        r,
        ref_tokens=cut(r.ref_tokens, i < half and i % 4 == 0),
        text_tokens=cut(r.text_tokens, i < half and i % 5 == 0),
        target_tokens=cut(val[i - i % 3].target_tokens, i < half and i // 3 % 2),
        subset_ids=None if i % 5 == 4 else r.subset_ids[:1 + i % 6],
    ) for i, r in enumerate(val)]


def _ragged_tied_report(val) -> dict:
    from cirtrain import cli
    from cirtrain.config import RunConfig
    from cirtrain.model import RetrievalModel

    chunk, cli.EVAL_CHUNK = cli.EVAL_CHUNK, 5
    try:
        return cli.evaluate_model(RetrievalModel(RunConfig()), _ragged_tied(val))
    finally:
        cli.EVAL_CHUNK = chunk


def fingerprint() -> dict:
    """The fingerprint of the `cirtrain` that imports."""
    from cirtrain.config import RunConfig
    from cirtrain.data import generate, synth_spec_from_config
    from cirtrain.train import ABLATION_VARIANTS

    doc = {"c7_artifacts": _c7_artifacts()}
    for geometry, overrides in GEOMETRIES.items():
        train, val = generate(synth_spec_from_config(_replace(RunConfig(), overrides)))
        doc[geometry] = {name: _variant(overrides, alignment, reasoning, train, val)
                         for name, alignment, reasoning in ABLATION_VARIANTS}
    _, val = generate(synth_spec_from_config(RunConfig()))
    doc["eval_ragged_tied"] = _ragged_tied_report(val)
    return doc


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tools/fingerprint.py <checkout>", file=sys.stderr)
        return 2
    package = Path(argv[0]).resolve() / "src" / "cirtrain" / "__init__.py"
    if not package.is_file():
        print(f"fingerprint.py: {package} not found; give a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(package.parent.parent))
    import cirtrain

    if Path(cirtrain.__file__).resolve() != package:
        print(f"fingerprint.py: imported cirtrain from {cirtrain.__file__}, not {package}", file=sys.stderr)
        return 2
    print(json.dumps(fingerprint(), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
