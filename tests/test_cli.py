import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cirtrain
from cirtrain.cli import cmd_eval, cmd_synth, cmd_train, evaluate_model, main
from cirtrain.config import RunConfig, load_config
from cirtrain.data import generate, read_records, synth_spec_from_config
from cirtrain.metrics import METRIC_KEYS
from cirtrain.model import RetrievalModel
from cirtrain.tensor import no_grad
from cirtrain.train import train_model
from oracles import rank_oracle


def tiny_config(tmp_path, **overrides):
    cfg = RunConfig()
    cfg.model = dataclasses.replace(cfg.model, dim=8, prompts=4, compositor_layers=2)
    cfg.synth = dataclasses.replace(cfg.synth, n_train=48, n_val=24)
    training = {"epochs": 2, "batch_size": 8}
    training.update(overrides)
    cfg.training = dataclasses.replace(cfg.training, **training)
    cfg.paths = dataclasses.replace(
        cfg.paths,
        train_set=str(tmp_path / "train.jsonl"),
        val_set=str(tmp_path / "val.jsonl"),
        checkpoint=str(tmp_path / "ckpt.json"),
        train_log=str(tmp_path / "log.jsonl"),
        report=str(tmp_path / "report.json"),
    )
    return cfg


def test_synth_writes_expected_counts(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert cmd_synth(cfg) == 0
    out = capsys.readouterr().out
    assert "48 train" in out and "24 val" in out
    assert len(read_records(cfg.paths.train_set)) == 48
    val = read_records(cfg.paths.val_set)
    assert len(val) == 24
    assert all(len(r.subset_ids) == 5 for r in val)


def test_synth_deterministic_files(tmp_path):
    cfg = tiny_config(tmp_path)
    cmd_synth(cfg)
    first = (Path(cfg.paths.train_set).read_bytes(), Path(cfg.paths.val_set).read_bytes())
    cmd_synth(cfg)
    second = (Path(cfg.paths.train_set).read_bytes(), Path(cfg.paths.val_set).read_bytes())
    assert first == second


def test_train_writes_checkpoint_log_and_decreasing_loss(tmp_path, capsys):
    cfg = tiny_config(tmp_path, epochs=3)
    cmd_synth(cfg)
    assert cmd_train(cfg) == 0
    lines = [json.loads(l) for l in Path(cfg.paths.train_log).read_text().splitlines()]
    assert len(lines) == 3
    assert lines[-1]["total"] < lines[0]["total"]
    assert json.loads(Path(cfg.paths.checkpoint).read_text())  # non-empty checkpoint document


def test_train_determinism_bitwise_checkpoints(tmp_path):
    cfg = tiny_config(tmp_path)
    cmd_synth(cfg)
    cmd_train(cfg)
    first = Path(cfg.paths.checkpoint).read_bytes()
    cmd_train(cfg)
    second = Path(cfg.paths.checkpoint).read_bytes()
    assert first == second


def test_eval_report_keys_and_missing_checkpoint(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    cmd_synth(cfg)
    with pytest.raises(FileNotFoundError):
        cmd_eval(cfg)
    cmd_train(cfg)
    assert cmd_eval(cfg) == 0
    report = json.loads(Path(cfg.paths.report).read_text())
    assert set(report) == set(METRIC_KEYS)
    table = capsys.readouterr().out
    assert "recall_at_1" in table


def full_sort_report(model, val_records):
    """The eval report recomputed straight-line: a full sort per query and per subset."""
    ids = [r.id for r in val_records]
    with no_grad():
        gallery = np.vstack([model.target_embedding(r.target_tokens).data for r in val_records])
        queries = [model.query_embedding(r.ref_tokens, r.text_tokens).data.reshape(-1)
                   for r in val_records]
    full, subset = [], []
    for record, query in zip(val_records, queries):
        scores = (gallery @ query).tolist()
        score_of = dict(zip(ids, scores))
        full.append(rank_oracle(ids, scores, record.id)[1])
        subset_scores = [score_of[s] for s in record.subset_ids]
        subset.append(rank_oracle(list(record.subset_ids), subset_scores, record.id)[1])

    def recall(ranks, k):
        return sum(rank <= k for rank in ranks) / len(ranks)

    report = {f"recall_at_{k}": recall(full, k) for k in (1, 5, 10)}
    report.update({f"recall_subset_at_{k}": recall(subset, k) for k in (1, 2, 3)})
    report["avg_recall5_subset1"] = (report["recall_at_5"] + report["recall_subset_at_1"]) / 2
    return report, gallery


def test_evaluate_model_matches_full_sort_oracle(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg.synth = dataclasses.replace(cfg.synth, n_val=64)
    _, val = generate(synth_spec_from_config(cfg))
    model = RetrievalModel(cfg)
    expected, gallery = full_sort_report(model, val)
    assert len({row.tobytes() for row in gallery}) == len(val)
    assert evaluate_model(model, val) == expected

    # a zero target encoder embeds every target alike, so every score ties
    # and only the ascending-id tie-break orders the gallery
    for name, p in model.parameters().items():
        if name.startswith("tgt_encoder."):
            p.data[...] = 0.0
    expected, gallery = full_sort_report(model, val)
    assert len({row.tobytes() for row in gallery}) == 1
    assert evaluate_model(model, val) == expected


def test_evaluate_model_rejects_repeated_and_unknown_ids(tmp_path):
    cfg = tiny_config(tmp_path)
    _, val = generate(synth_spec_from_config(cfg))
    val = [dataclasses.replace(r, subset_ids=(r.id,)) for r in val[:16]]
    model = RetrievalModel(cfg)
    repeated = list(val)
    repeated[1] = dataclasses.replace(val[1], id=val[0].id, subset_ids=(val[0].id,))
    with pytest.raises(ValueError, match=f"{val[0].id!r} is repeated"):
        evaluate_model(model, repeated)
    unknown = list(val)
    unknown[2] = dataclasses.replace(val[2], subset_ids=(val[2].id, "val-99999"))
    with pytest.raises(ValueError, match="'val-99999'] missing from the gallery"):
        evaluate_model(model, unknown)


def test_disabled_auxiliaries_logged_as_null(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg.ablation = dataclasses.replace(cfg.ablation, use_alignment=False, use_reasoning=False)
    cmd_synth(cfg)
    cmd_train(cfg)
    row = json.loads(Path(cfg.paths.train_log).read_text().splitlines()[0])
    assert row["alignment"] is None and row["reasoning"] is None


def test_train_refuses_dataset_smaller_than_one_batch(tmp_path):
    cfg = tiny_config(tmp_path, batch_size=16)
    cfg.synth = dataclasses.replace(cfg.synth, n_train=10)
    cmd_synth(cfg)
    with pytest.raises(ValueError, match="batch_size 16 exceeds the 10 records"):
        cmd_train(cfg)
    assert not Path(cfg.paths.checkpoint).exists()
    assert not Path(cfg.paths.train_log).exists()


def test_train_with_zero_epochs_writes_no_checkpoint(tmp_path):
    cfg = tiny_config(tmp_path)
    cmd_synth(cfg)
    sets = []
    for key, value in dataclasses.asdict(cfg.paths).items():
        sets += ["--set", f"paths.{key}={value}"]
    with pytest.raises(ValueError, match="training.epochs must be >= 1"):
        main(["train", *sets, "--set", "training.epochs=0"])
    assert not Path(cfg.paths.checkpoint).exists()
    assert not Path(cfg.paths.train_log).exists()


def test_train_failing_in_its_first_batch_writes_no_log(tmp_path):
    cfg = tiny_config(tmp_path)
    cmd_synth(cfg)
    # the synthetic images carry 7 tokens, so the first encode refuses them
    cfg.model = dataclasses.replace(cfg.model, max_tokens=4)
    with pytest.raises(ValueError, match="sequence length 7 exceeds maximum 4"):
        cmd_train(cfg)
    assert not Path(cfg.paths.checkpoint).exists()
    assert not Path(cfg.paths.train_log).exists()


def test_training_aborts_with_diagnostic_on_nonfinite(tmp_path):
    cfg = tiny_config(tmp_path)
    cmd_synth(cfg)
    records = read_records(cfg.paths.train_set)
    model = RetrievalModel(cfg)
    # poison one trainable parameter so a matmul overflows during the forward pass
    model.parameters()["text_encoder.embedding"].data[...] = 1e200
    with pytest.raises(RuntimeError, match="non-finite") as err:
        train_model(model, records, cfg)
    assert "op '" in str(err.value)  # diagnostic names the producing op


def test_main_smoke_via_argv(tmp_path, capsys):
    paths = [
        f"paths.train_set={tmp_path / 'train.jsonl'}",
        f"paths.val_set={tmp_path / 'val.jsonl'}",
        f"paths.checkpoint={tmp_path / 'ckpt.json'}",
        f"paths.train_log={tmp_path / 'log.jsonl'}",
        f"paths.report={tmp_path / 'report.json'}",
    ]
    sets = []
    for assignment in paths + ["model.dim=8", "model.prompts=2", "model.compositor_layers=1",
                               "synth.n_train=32", "synth.n_val=16",
                               "training.epochs=1", "training.batch_size=8"]:
        sets += ["--set", assignment]
    assert main(["synth"] + sets) == 0
    assert main(["train"] + sets) == 0
    assert main(["eval"] + sets) == 0
    out = capsys.readouterr().out
    assert "wrote report" in out


def test_config_file_plus_override(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert load_config(cfg_path) == cfg
    assert main(["synth", "--config", str(cfg_path), "--set", "synth.n_train=16"]) == 0
    assert len(read_records(cfg.paths.train_set)) == 16


def test_cli_entry_point_subprocess(tmp_path):
    # one end-to-end through the installed console script path; the child finds
    # the package where this process did, installed or not
    src = str(Path(cirtrain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "cirtrain.cli", "synth",
         "--set", f"paths.train_set={tmp_path / 't.jsonl'}",
         "--set", f"paths.val_set={tmp_path / 'v.jsonl'}",
         "--set", "synth.n_train=8", "--set", "synth.n_val=6"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "wrote 8 train records" in result.stdout


def test_unknown_override_fails_fast():
    with pytest.raises(ValueError):
        main(["synth", "--set", "synth.n_trian=8"])


def test_invalid_objective_fails_before_synth_writes(tmp_path):
    train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    with pytest.raises(ValueError, match="objective.tau"):
        main(["synth", "--set", f"paths.train_set={train}", "--set", f"paths.val_set={val}",
              "--set", "objective.tau=0"])
    assert not train.exists() and not val.exists()


def test_gradcheck_exit_codes(monkeypatch, capsys):
    import cirtrain.cli as cli

    def fake_rows(status, err):
        return lambda: [
            {"name": "ref_encoder.cls", "status": "skipped (frozen)", "max_rel_err": None},
            {"name": "bridge.w_ref", "status": status, "max_rel_err": err},
        ]

    monkeypatch.setattr(cli, "run_gradient_check", fake_rows("ok", 1e-6))
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "skipped (frozen)" in out and "PASS" in out
    monkeypatch.setattr(cli, "run_gradient_check", fake_rows("FAIL", 1.0))
    assert main(["gradcheck"]) == 1
    assert "FAIL" in capsys.readouterr().out
    # fault injection stays a library hook, not a command-line flag
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--corrupt", "bridge.w_ref"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--set", "model.dim=4"], ["--set", "bogus.key=1"],
                                  ["--config", "cfg.json"]])
def test_gradcheck_rejects_config_options(argv):
    # gradcheck runs at its own pinned geometry; accepting options it ignores would hide typos
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck"] + argv)
    assert exc.value.code == 2
