import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cirtrain
import cirtrain.cli as cli
from cirtrain.cli import cmd_eval, cmd_synth, cmd_train, evaluate_model, main
from cirtrain.config import RunConfig, load_config
from cirtrain.data import generate, read_records, synth_spec_from_config
from cirtrain.model import RetrievalModel
from cirtrain.tensor import NonFiniteError, no_grad
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
    # the checkpoint's own `open` refuses, naming the path
    with pytest.raises(FileNotFoundError, match=re.escape(cfg.paths.checkpoint)):
        cmd_eval(cfg)
    assert not Path(cfg.paths.report).exists()
    cmd_train(cfg)
    assert cmd_eval(cfg) == 0
    report = json.loads(Path(cfg.paths.report).read_text())
    assert set(report) == {"recall_at_1", "recall_at_5", "recall_at_10", "recall_subset_at_1",
                           "recall_subset_at_2", "recall_subset_at_3", "avg_recall5_subset1"}
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
        if record.subset_ids is not None:
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
            p.assign(np.zeros(p.shape))
    expected, gallery = full_sort_report(model, val)
    assert len({row.tobytes() for row in gallery}) == 1
    assert evaluate_model(model, val) == expected


def _embedded_batch_sizes(monkeypatch):
    """Record the number of records each query_embedding call embeds."""
    sizes = []
    original = RetrievalModel.query_embedding

    def spy(model, ref_tokens, text_tokens):
        out = original(model, ref_tokens, text_tokens)
        sizes.append(out.shape[0])
        return out

    monkeypatch.setattr(RetrievalModel, "query_embedding", spy)
    return sizes


def ragged(val):
    """Interleaved lengths: every 3rd reference loses a token, every 4th text gains one,
    every 6th target loses one, so runs of equal lengths are 1 to 3 records long."""
    return [dataclasses.replace(
        r,
        ref_tokens=r.ref_tokens[:-1] if i % 3 == 0 else r.ref_tokens,
        text_tokens=r.text_tokens + (0,) if i % 4 == 0 else r.text_tokens,
        target_tokens=r.target_tokens[:-1] if i % 6 == 0 else r.target_tokens,
    ) for i, r in enumerate(val)]


def test_evaluate_model_embeds_a_ragged_set_in_length_runs(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    _, val = generate(synth_spec_from_config(cfg))
    val = ragged(val)
    model = RetrievalModel(cfg)
    expected, _ = full_sort_report(model, val)
    sizes = _embedded_batch_sizes(monkeypatch)
    assert evaluate_model(model, val) == expected
    assert sum(sizes) == len(val) and 1 < max(sizes) < 4 and len(sizes) < len(val)


def test_evaluate_model_across_chunk_boundaries(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    _, val = generate(synth_spec_from_config(cfg))
    model = RetrievalModel(cfg)
    expected, _ = full_sort_report(model, val)
    monkeypatch.setattr(cli, "EVAL_CHUNK", 5)
    sizes = _embedded_batch_sizes(monkeypatch)
    assert evaluate_model(model, val) == expected
    assert sizes == [5, 5, 5, 5, 4]


def test_run_scores_are_bitwise_rows_of_one_full_product(tmp_path):
    cfg = tiny_config(tmp_path)
    _, val = generate(synth_spec_from_config(cfg))
    val = ragged(val)
    runs = list(cli._length_runs(val))
    # consecutive (start, stop) ranges that cover the set
    assert [start for start, _ in runs] == [0] + [stop for _, stop in runs[:-1]]
    assert runs[-1][1] == len(val)
    assert min(stop - start for start, stop in runs) == 1
    assert max(stop - start for start, stop in runs) > 1
    model = RetrievalModel(cfg)
    with no_grad():
        gallery = np.vstack([model.target_embedding([r.target_tokens for r in val[a:b]]).data
                             for a, b in runs])
        queries = [model.query_embedding([r.ref_tokens for r in val[a:b]],
                                         [r.text_tokens for r in val[a:b]]) for a, b in runs]
    full = np.vstack([q.data for q in queries]) @ gallery.T
    for (start, stop), q in zip(runs, queries):
        scores = cli.score_query_against_gallery(q, gallery)
        assert scores.shape == (stop - start, len(val))
        assert scores.tobytes() == full[start:stop].tobytes()


def tie_heavy(val):
    """Each group of three records shares the group's first target, so their gallery rows tie
    exactly; record i holds 1 + i % 6 candidates, and every fifth record holds none."""
    ids = [r.id for r in val]
    return [dataclasses.replace(
        r,
        target_tokens=val[i - i % 3].target_tokens,
        subset_ids=None if i % 5 == 4 else
        (r.id, *(ids[(i + 7 * j) % len(ids)] for j in range(1, 1 + i % 6))),
    ) for i, r in enumerate(val)]


def test_evaluate_model_on_a_ragged_tie_heavy_set_in_chunks_of_five(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    _, val = generate(synth_spec_from_config(cfg))
    val = tie_heavy(ragged(val[:12]) + val[12:])
    assert {len(r.subset_ids or ()) for r in val} == {0, 1, 2, 3, 4, 5, 6}
    model = RetrievalModel(cfg)
    expected, gallery = full_sort_report(model, val)
    assert len({row.tobytes() for row in gallery}) == len(val) // 3
    monkeypatch.setattr(cli, "EVAL_CHUNK", 5)
    sizes = _embedded_batch_sizes(monkeypatch)
    assert evaluate_model(model, val) == expected
    assert sum(sizes) == len(val) and min(sizes) == 1 and max(sizes) == 5


def test_evaluate_model_ranks_exact_ties_across_chunks(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    _, val = generate(synth_spec_from_config(cfg))
    val, ids = val[:16], [r.id for r in val[:16]]
    # two groups of records share a target tuple, so their gallery rows tie exactly;
    # every subset holds tied rows, and two records (one alone in the last chunk) have none
    ties = {3: 0, 7: 0, 15: 0, 9: 5, 12: 5}
    val = [dataclasses.replace(
        r,
        target_tokens=val[ties.get(i, i)].target_tokens,
        subset_ids=None if i in (6, 15) else tuple(dict.fromkeys(
            (ids[(i + 7) % 16], r.id, ids[(i + 12) % 16], ids[(i + 3) % 16], ids[0], ids[5]))),
    ) for i, r in enumerate(val)]
    model = RetrievalModel(cfg)
    expected, gallery = full_sort_report(model, val)
    assert len({row.tobytes() for row in gallery}) == len(val) - len(ties)
    monkeypatch.setattr(cli, "EVAL_CHUNK", 5)
    sizes = _embedded_batch_sizes(monkeypatch)
    assert evaluate_model(model, val) == expected
    assert sizes == [5, 5, 5, 1]


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


def test_evaluate_model_names_the_first_record_at_fault_before_embedding(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    _, val = generate(synth_spec_from_config(cfg))
    a, b, c = (r.id for r in val[:3])
    model = RetrievalModel(cfg)
    sizes = _embedded_batch_sizes(monkeypatch)

    def evaluate(subsets):
        # a gallery of three, each record's subset holding its own id, as a record must
        records = [dataclasses.replace(r, subset_ids=s) for r, s in zip(val[:3], subsets)]
        return evaluate_model(model, records)

    with pytest.raises(ValueError, match=r"^candidate subset ids \['zz'\] missing from the gallery$"):
        evaluate([(a, "zz"), None, (c, b)])
    with pytest.raises(ValueError, match=r"^candidate subset ids \['zz'\] missing from the gallery$"):
        evaluate([(a, b), (b, c, "zz"), (c, "yy")])
    with pytest.raises(ValueError, match=r"^candidate subset ids \['zz', 'yy'\] missing from"):
        evaluate([(a, "zz", b, "yy"), None, None])
    with pytest.raises(ValueError, match="^validation records carry no candidate subsets$"):
        evaluate([None, None, None])
    assert sizes == []


def _returns(monkeypatch, name):
    """Record every value `cli.<name>` returns."""
    values, original = [], getattr(cli, name)

    def spy(*args):
        values.append(original(*args))
        return values[-1]

    monkeypatch.setattr(cli, name, spy)
    return values


def test_ids_differing_by_a_trailing_nul_rank_in_string_order(tmp_path, monkeypatch):
    # numpy's string order drops trailing NULs and reads "v0\0" as "v0"; Python's puts "v0" first
    cfg = tiny_config(tmp_path)
    _, val = generate(synth_spec_from_config(cfg))
    ids = [f"v{i // 2}" + "\x00" * (1 - i % 2) for i in range(len(val))]  # "v0\0", "v0", "v1\0", ...
    val = [dataclasses.replace(r, id=ids[i], subset_ids=(ids[i ^ 1], ids[i], ids[(i + 2) % len(ids)]))
           for i, r in enumerate(val)]
    model = RetrievalModel(cfg)
    # a zero target encoder embeds every target alike, so only the id order ranks
    for name, p in model.parameters().items():
        if name.startswith("tgt_encoder."):
            p.assign(np.zeros(p.shape))
    scores, full, subset = (_returns(monkeypatch, name) for name in
                            ("score_query_against_gallery", "rank_gallery", "rank_within_subset"))
    report = evaluate_model(model, val)
    scores = np.vstack(scores)
    assert (scores == scores[:, :1]).all()
    position = {rid: column for column, rid in enumerate(ids)}
    assert np.concatenate(full).tolist() == [
        rank_oracle(ids, row.tolist(), rid)[1] for row, rid in zip(scores, ids)]
    assert np.concatenate(subset).tolist() == [
        rank_oracle(list(r.subset_ids), [row[position[s]] for s in r.subset_ids], r.id)[1]
        for row, r in zip(scores, val)]
    assert report == full_sort_report(model, val)[0]


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


def _train_paths(tmp_path):
    cfg = tiny_config(tmp_path)
    cmd_synth(cfg)
    sets = []
    for key, value in dataclasses.asdict(cfg.paths).items():
        sets += ["--set", f"paths.{key}={value}"]
    return cfg, sets


def test_train_with_zero_epochs_writes_no_checkpoint(tmp_path, capsys):
    cfg, sets = _train_paths(tmp_path)
    assert main(["train", *sets, "--set", "training.epochs=0"]) == 2
    assert capsys.readouterr().err == "cirtrain: training.epochs must be >= 1, got 0\n"
    assert not Path(cfg.paths.checkpoint).exists()
    assert not Path(cfg.paths.train_log).exists()


def test_train_at_batch_size_1_writes_no_file(tmp_path, capsys):
    # a batch of one has no in-batch negatives: every loss is log 1 = 0 and no parameter moves
    cfg, sets = _train_paths(tmp_path)
    assert main(["train", *sets, "--set", "training.batch_size=1"]) == 2
    assert capsys.readouterr().err == "cirtrain: training.batch_size must be >= 2, got 1\n"
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
    # poison one trainable parameter so the text encoder's attention overflows in the forward pass
    model.parameters()["text_encoder.embedding"].data[...] = 1e200
    with pytest.raises(RuntimeError) as err:
        train_model(model, records, cfg, log_path=cfg.paths.train_log)
    assert str(err.value) == ("training aborted at epoch 0, step 0: "
                              "non-finite values in output of op 'attention'")
    assert isinstance(err.value.__cause__, NonFiniteError)
    assert not Path(cfg.paths.train_log).exists()


def test_main_reports_a_training_abort_with_status_1_and_writes_nothing(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    cmd_synth(cfg)
    capsys.readouterr()
    sets = [f"paths.train_set={cfg.paths.train_set}", f"paths.checkpoint={cfg.paths.checkpoint}",
            f"paths.train_log={cfg.paths.train_log}", "objective.tau=1e-308"]
    assert main(["train", *(arg for s in sets for arg in ("--set", s))]) == 1
    assert capsys.readouterr().err == ("cirtrain: training aborted at epoch 0, step 0: non-finite "
                                       "values in output of op 'diagonal_nll'\n")
    assert not Path(cfg.paths.checkpoint).exists() and not Path(cfg.paths.train_log).exists()


def test_main_lets_any_other_runtime_error_surface(monkeypatch):
    def fail(cfg):
        raise RuntimeError("not a training abort")

    monkeypatch.setattr(cli, "cmd_train", fail)
    with pytest.raises(RuntimeError, match="not a training abort"):
        main(["train"])


def test_main_refuses_an_override_that_is_not_a_boolean(capsys):
    assert main(["synth", "--set", "ablation.use_alignment=maybe"]) == 2
    assert capsys.readouterr().err == ("cirtrain: ablation.use_alignment: expected a boolean, "
                                       "got 'maybe'\n")


def test_evaluate_model_refuses_an_empty_validation_set():
    with pytest.raises(ValueError, match="^validation set is empty$"):
        evaluate_model(RetrievalModel(RunConfig()), [])


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


def _cli_subprocess(*args, **env):
    """`python -m cirtrain.cli *args` in a child process with `env` added to this one's
    environment; the child finds the package where this process did, installed or not."""
    src = str(Path(cirtrain.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "cirtrain.cli", *args],
                          capture_output=True, text=True, env=env)


def test_cli_entry_point_subprocess(tmp_path):
    # one end-to-end through the installed console script path
    result = _cli_subprocess("synth",
                             "--set", f"paths.train_set={tmp_path / 't.jsonl'}",
                             "--set", f"paths.val_set={tmp_path / 'v.jsonl'}",
                             "--set", "synth.n_train=8", "--set", "synth.n_val=6")
    assert result.returncode == 0, result.stderr
    assert "wrote 8 train records" in result.stdout


@pytest.mark.parametrize("name,logs_epochs", [("basic_format", False), ("no_such_level", False),
                                              ("info", True)])
def test_a_log_name_that_is_not_a_level_falls_back_to_warning(name, logs_epochs, tmp_path):
    # in a child process: pytest's logging plugin gives this process's root logger
    # handlers, so `basicConfig` here would never read the level
    sets = []
    for assignment in [f"paths.train_set={tmp_path / 't.jsonl'}",
                       f"paths.val_set={tmp_path / 'v.jsonl'}",
                       f"paths.checkpoint={tmp_path / 'ckpt.json'}",
                       f"paths.train_log={tmp_path / 'log.jsonl'}",
                       "synth.n_train=8", "synth.n_val=6", "model.dim=8",
                       "training.epochs=1", "training.batch_size=8"]:
        sets += ["--set", assignment]
    assert main(["synth"] + sets) == 0
    result = _cli_subprocess("train", *sets, CIRTRAIN_LOG=name)
    assert result.returncode == 0, result.stderr
    assert ("INFO cirtrain.train: epoch 0" in result.stderr) is logs_epochs, result.stderr


def test_missing_dataset_is_reported_not_raised(tmp_path, capsys):
    missing = tmp_path / "absent.jsonl"
    assert main(["train", "--set", f"paths.train_set={missing}"]) == 2
    assert capsys.readouterr().err == f"cirtrain: [Errno 2] No such file or directory: '{missing}'\n"


def test_unknown_override_fails_fast(capsys):
    assert main(["synth", "--set", "synth.n_trian=8"]) == 2
    assert capsys.readouterr().err == "cirtrain: unknown config keys: ['synth.n_trian']\n"


def test_invalid_objective_fails_before_synth_writes(tmp_path, capsys):
    train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    assert main(["synth", "--set", f"paths.train_set={train}", "--set", f"paths.val_set={val}",
                 "--set", "objective.tau=0"]) == 2
    assert capsys.readouterr().err == "cirtrain: objective.tau must be > 0, got 0.0\n"
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
    # faults are injected from outside the library, never through a command-line flag
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
