"""Print the exact work of a training step and of a warm eval pass as one JSON document.

    python tools/workcount.py <checkout> [<workload>]

`<checkout>` holds `src/cirtrain`, `cirbench/spec.json` and
`cirbench/workloads.py`; a directory without them, or a `cirtrain` imported
from elsewhere, is refused with exit status 2.  Every workload of
`spec.json` runs on seed 1, set up by the benchmark's own `workloads.set_up`
(eval on the checkpoint-loaded model), in its own child interpreter, since
glibc's malloc thresholds move with what a process freed before (given a
`<workload>`, the script runs it in-process and prints its row alone).  A
failed child, a non-finite step included, ends the script with status 1: one
line naming the workload, then the child's stderr.  Training counts two
epochs of `workloads.Trainer` steps after one of warm-up; eval counts three
`evaluate_model` passes after two, since the second pass still faults in
heap the first left unmapped (on seed 1, four passes took about 2,100, 240,
0 and 0 minor faults).  Per step or pass it prints the mean of:
- `nodes`: recorded graph nodes reachable from the loss, by op (each op
  `tensor.__all__` exports; an eval pass records none);
- `reads`: `Param.reads`, by parameter group: one per trainable param an
  op takes as an operand, recorded or not (a frozen param counts none, so
  the image encoders' groups stay 0);
- `frozen_rows`: frozen image rows `served` (`ImageEncoder.encode` calls) and
  `computed` (the growth of the two encoders' memos);
- `tensors`: `Tensor` constructions;
- `calls`: Python and C function calls (`sys.setprofile` `call` and `c_call`
  events) inside the step or pass, the script's own wrapper frames and the
  calls they make left out;
- `minor_faults`: minor page faults (`ru_minflt`) inside the step or pass.
Node, read, frozen-row, tensor and call counts repeat from run to run; fault
counts depend on the host.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from resource import RUSAGE_SELF, getrusage

SEED = 1
WARM_EPOCHS, COUNTED_EPOCHS = 1, 2
WARM_PASSES, COUNTED_PASSES = 2, 3


def workcount(workload: str, kind: str) -> dict:
    """The work counts of one workload, set up and run as the benchmark's `workloads` runs it."""
    import workloads
    from cirtrain import tensor
    from cirtrain.cli import evaluate_model
    from cirtrain.encoders import ImageEncoder
    from spans import graph_census, read_totals

    with tempfile.TemporaryDirectory() as tmp:
        setup = workloads.set_up(workload, workloads.make_config(workload, SEED), Path(tmp),
                                 workloads.NULL_TRACER)
    if kind == "eval":
        warm = WARM_PASSES
        ops = [lambda: evaluate_model(setup.model, setup.val)] * (WARM_PASSES + COUNTED_PASSES)
    else:
        trainer = workloads.Trainer(setup)
        warm = trainer.steps_per_epoch * WARM_EPOCHS
        ops = [lambda pair=pair: trainer.step(*pair) for pair in itertools.islice(
            trainer.epoch_batches(0), warm + trainer.steps_per_epoch * COUNTED_EPOCHS)]
    init, encode = tensor.Tensor.__init__, ImageEncoder.encode
    made = Counter(tensors=0, served=0, calls=0)  # preset: no `Counter.__missing__` call
    tool = workcount.__code__.co_filename

    def count_call(frame, event, arg):
        if event in ("call", "c_call") and frame.f_code.co_filename != tool:
            made["calls"] += 1

    def counting_init(t, *args, **kwargs):
        made["tensors"] += 1
        init(t, *args, **kwargs)

    def counting_encode(encoder, seq):
        made["served"] += 1
        return encode(encoder, seq)

    def counts():
        memos = len(setup.model.ref_encoder._rows) + len(setup.model.tgt_encoder._rows)
        return Counter(made, computed=memos, minor_faults=getrusage(RUSAGE_SELF).ru_minflt)

    for op in ops[:warm]:
        op()
    tensor.Tensor.__init__, ImageEncoder.encode = counting_init, counting_encode
    nodes, reads, work = Counter(), Counter(), Counter()
    for op in ops[warm:]:
        reads.subtract(read_totals(setup.model))
        work.subtract(counts())
        sys.setprofile(count_call)
        out = op()  # a step's loss, None on a NonFiniteError, or a pass's report
        sys.setprofile(None)
        work.update(counts())
        reads.update(read_totals(setup.model))
        if isinstance(out, tensor.Tensor):
            nodes += graph_census(out)
        del out  # as in the benchmark's loop, a step's graph is freed before the next step
    if kind == "train" and trainer.failed:
        raise SystemExit(f"workcount.py: {workload}: {trainer.failed} steps raised NonFiniteError")
    n = len(ops) - warm
    names = [name for name in tensor.__all__ if name[0].islower() and name not in ("no_grad", "unchecked")]
    return {"counted": n, "nodes": {op: nodes[op] / n for op in names},
            "reads": {group: count / n for group, count in sorted(reads.items())},
            "frozen_rows": {key: work[key] / n for key in ("computed", "served")},
            "tensors": work["tensors"] / n, "calls": work["calls"] / n,
            "minor_faults": work["minor_faults"] / n}


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: python tools/workcount.py <checkout> [<workload>]", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    package, bench = root / "src" / "cirtrain" / "__init__.py", root / "cirbench"
    for path in (package, bench / "spec.json", bench / "workloads.py"):
        if not path.is_file():
            print(f"workcount.py: {path} not found; give a checkout of the repository", file=sys.stderr)
            return 2
    spec = json.loads((bench / "spec.json").read_text(encoding="utf-8"))
    kinds = {workload: entry["kind"] for workload, entry in spec["workloads"].items()}
    if argv[1:] and argv[1] not in kinds:
        print(f"usage: python tools/workcount.py <checkout> [{' | '.join(kinds)}]", file=sys.stderr)
        return 2
    if len(argv) == 1:
        rows = {}
        for workload in kinds:
            child = subprocess.run([sys.executable, __file__, str(root), workload],
                                   capture_output=True, text=True)
            if child.returncode:
                print(f"workcount.py: {workload}: child exited with {child.returncode}\n{child.stderr}",
                      end="", file=sys.stderr)
                return 1
            rows[workload] = json.loads(child.stdout)
        print(json.dumps({"seed": SEED, **rows}, indent=1, sort_keys=True))
        return 0
    sys.path[:0] = [str(package.parent.parent), str(bench)]
    import cirtrain

    if Path(cirtrain.__file__).resolve() != package:
        print(f"workcount.py: imported cirtrain from {cirtrain.__file__}, not {package}", file=sys.stderr)
        return 2
    print(json.dumps(workcount(argv[1], kinds[argv[1]]), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
