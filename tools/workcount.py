"""Print the exact work of a training step and of a warm eval pass as one JSON document.

    python tools/workcount.py <checkout> [<workload>]

`<checkout>` holds `src/cirtrain` and `cirbench/spec.json`; a directory
without them, or a `cirtrain` imported from elsewhere, is refused with exit
status 2.  The `train_full`, `train_matching` and `eval_gallery` workloads run
on seed 1 at their `cirbench/spec.json` configs, each in its own child
interpreter, since glibc's malloc thresholds move with what a process freed
before (given a `<workload>`, the script runs it in-process and prints its
row alone).  Training counts two epochs of steps after one of warm-up; eval
counts three `evaluate_model` passes over its validation set after one.  Per
step or pass it prints the mean of:
- `nodes`: recorded graph nodes reachable from the loss, by op (each op
  `tensor.__all__` exports; an eval pass records none);
- `tensors`: `Tensor` constructions;
- `minor_faults`: minor page faults (`ru_minflt`) inside the step or pass.
Node and tensor counts repeat from run to run; fault counts depend on the host.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

SEED = 1
WORKLOADS = ("train_full", "train_matching", "eval_gallery")
WARM_EPOCHS, COUNTED_EPOCHS = 1, 2
WARM_PASSES, COUNTED_PASSES = 1, 3


def _census(loss) -> Counter:
    """Recorded graph nodes reachable from `loss` by op, counted as `tools/fingerprint.py` does."""
    counts, seen, todo = Counter(), set(), [loss]
    while todo:
        node = todo.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        counts[node.op] += node.op != "leaf"
        todo.extend(node._parents)
    return counts


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _config(spec: dict, workload: str):
    from cirtrain.config import RunConfig, apply_override

    cfg = RunConfig()
    for assignment in [*spec["workloads"][workload]["overrides"], f"synth.seed={SEED}",
                       f"training.seed={SEED}"]:
        cfg = apply_override(cfg, assignment)
    return cfg


def _operations(cfg, workload: str) -> tuple:
    """(warm-up, counted) calls of the workload: optimizer steps returning their loss, or
    eval passes."""
    from cirtrain.cli import evaluate_model
    from cirtrain.data import batches, generate, synth_spec_from_config
    from cirtrain.model import RetrievalModel
    from cirtrain.train import Adam

    train, val = generate(synth_spec_from_config(cfg))
    model = RetrievalModel(cfg)
    if workload == "eval_gallery":
        passes = [lambda: evaluate_model(model, val)] * (WARM_PASSES + COUNTED_PASSES)
        return passes[:WARM_PASSES], passes[WARM_PASSES:]
    optimizer = Adam(model.trainable(), lr=cfg.training.learning_rate)

    def step(batch):
        model.zero_grad()
        total = model.batch_losses(batch)[0]
        total.backward()
        optimizer.step()
        return total

    def epochs(first, count):
        return [lambda b=b: step(b) for e in range(first, first + count)
                for b in batches(train, cfg.training.batch_size, cfg.training.seed, e)]

    return epochs(0, WARM_EPOCHS), epochs(WARM_EPOCHS, COUNTED_EPOCHS)


def workcount(spec: dict, workload: str) -> dict:
    """The work counts of one workload of the `cirtrain` that imports, at its config in `spec`."""
    from cirtrain import tensor

    made = [0]
    init = tensor.Tensor.__init__

    def counting_init(t, *args, **kwargs):
        made[0] += 1
        init(t, *args, **kwargs)

    warm, counted = _operations(_config(spec, workload), workload)
    for op in warm:
        op()
    tensor.Tensor.__init__ = counting_init
    nodes, tensors, faults = Counter(), 0, 0
    for op in counted:
        before = made[0], _minor_faults()
        out = op()
        faults += _minor_faults() - before[1]
        tensors += made[0] - before[0]
        if isinstance(out, tensor.Tensor):
            nodes += _census(out)
        del out  # as in the benchmark's loop, a step's graph is freed before the next step
    ops = [name for name in tensor.__all__ if name[0].islower() and name not in ("no_grad", "unchecked")]
    n = len(counted)
    return {"counted": n, "nodes": {op: nodes[op] / n for op in ops}, "tensors": tensors / n,
            "minor_faults": faults / n}


def main(argv) -> int:
    if not 1 <= len(argv) <= 2 or argv[1:] and argv[1] not in WORKLOADS:
        print(f"usage: python tools/workcount.py <checkout> [{' | '.join(WORKLOADS)}]", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    package, spec = root / "src" / "cirtrain" / "__init__.py", root / "cirbench" / "spec.json"
    for path in (package, spec):
        if not path.is_file():
            print(f"workcount.py: {path} not found; give a checkout of the repository", file=sys.stderr)
            return 2
    if len(argv) == 1:
        rows = {w: json.loads(subprocess.run([sys.executable, __file__, str(root), w], check=True,
                                             capture_output=True, text=True).stdout)
                for w in WORKLOADS}
        print(json.dumps({"seed": SEED, **rows}, indent=1, sort_keys=True))
        return 0
    sys.path.insert(0, str(package.parent.parent))
    import cirtrain

    if Path(cirtrain.__file__).resolve() != package:
        print(f"workcount.py: imported cirtrain from {cirtrain.__file__}, not {package}", file=sys.stderr)
        return 2
    print(json.dumps(workcount(json.loads(spec.read_text(encoding="utf-8")), argv[1]), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
