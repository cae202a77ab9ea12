"""Command line staging: every subcommand on a tiny corpus, plus failures."""
import csv
import json
import subprocess
import sys

import pytest

from svpo.cli import main
from svpo.evaluate import build_corpus, experiment_config_from_dict
from svpo.pairs import load_pairs, positive_negative_ratio, save_pairs
from svpo.train import parse_kv_text

TINY = """\
seed = 0
n_train = 20
n_test = 8
difficulty = easy
search_max_simulations = 40
search_max_trees = 6
pretrain_epochs = 2
svpo_epochs = 1
max_value_targets = 1200
"""


def run_staged(config, out):
    for command in ("gen", "annotate", "pairs", "pretrain", "svpo", "eval"):
        assert main([command, "--config", str(config),
                     "--out", str(out)]) == 0, command


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """Run the staged flow once; individual tests inspect the leftovers."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "tiny.cfg"
    config.write_text(TINY)
    out = root / "out"
    run_staged(config, out)
    base = ["--config", str(config), "--out", str(out)]
    assert main(["infer"] + base + ["--mode", "greedy"]) == 0
    assert main(["infer"] + base + ["--mode", "sbs", "--b1", "3"]) == 0
    return config, out


def test_staged_flow_artifacts(staged):
    _, out = staged
    for name in ["questions_train.jsonl", "questions_test.jsonl",
                 "forests.jsonl", "pairs.jsonl",
                 "value_targets.jsonl", "solutions.jsonl",
                 "ckpt_pretrain.json", "pretrain_log.csv",
                 "ckpt_svpo.json", "svpo_log.csv",
                 "inference_greedy.jsonl", "inference_sbs_b3.jsonl",
                 "pairs_heldout.jsonl", "summary.json"]:
        assert (out / name).exists(), name


def test_staged_flow_contents(staged):
    _, out = staged
    data = json.loads((out / "summary.json").read_text())["data"]
    assert data["n_pairs"] > 0
    assert data["pos_neg_ratio"] > 1  # negatives outnumber positives
    records = [json.loads(line) for line in
               (out / "inference_greedy.jsonl").read_text().splitlines()]
    assert len(records) == 8
    assert all(r["mode"] == "greedy" for r in records)
    report = json.loads((out / "summary.json").read_text())["metrics"]
    assert 0.0 <= report["accuracy"]["svpo"]["greedy"] <= 1.0
    assert 0.0 <= report["win_rate"]["heldout"]["explicit"] <= 1.0


def test_reloaded_pairs_keep_their_ratio(tmp_path):
    """Each pair record keeps its tree, so the ratio, which counts one
    positive per (question, tree, winner), reads the same from pairs.jsonl
    as from the pairs it was written from."""
    corpus = build_corpus(experiment_config_from_dict(parse_kv_text(TINY)))
    save_pairs(corpus.pairs, tmp_path / "pairs.jsonl")
    reloaded = load_pairs(tmp_path / "pairs.jsonl")
    assert reloaded == corpus.pairs
    assert len({p.tree for p in reloaded}) > 1
    assert positive_negative_ratio(reloaded) == \
        positive_negative_ratio(corpus.pairs)


def test_pairs_file_without_trees_is_refused(staged, tmp_path, capsys):
    """A pairs.jsonl written before pairs kept their tree fails its first
    reader, as a stage failure; re-running `svpo pairs` mends it."""
    config, out = staged
    for name in ("questions_train.jsonl", "questions_test.jsonl",
                 "value_targets.jsonl", "solutions.jsonl"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    records = [json.loads(line)
               for line in (out / "pairs.jsonl").read_text().splitlines()]
    (tmp_path / "pairs.jsonl").write_text("".join(
        json.dumps({k: v for k, v in r.items() if k != "tree"}) + "\n"
        for r in records))
    assert main(["pretrain", "--config", str(config),
                 "--out", str(tmp_path)]) == 3
    assert "'tree'" in capsys.readouterr().err
    assert not (tmp_path / "ckpt_pretrain.json").exists()


@pytest.mark.parametrize("extra", ["", "solution_level_only = true\n"])
def test_staged_flow_equals_pipeline(tmp_path, capsys, extra):
    """Every file `svpo pipeline` writes, the staged commands write with
    the same bytes."""
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY + extra)
    run_staged(config, tmp_path / "staged")
    assert main(["pipeline", "--config", str(config),
                 "--out", str(tmp_path / "pipeline")]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in (tmp_path / "pipeline").iterdir())
    assert "summary.json" in names and "pair_stats.json" not in names
    for name in names:
        assert (tmp_path / "staged" / name).read_bytes() == \
            (tmp_path / "pipeline" / name).read_bytes(), name


def test_pipeline_command_deterministic(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    texts = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["pipeline", "--config", str(config),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        texts.append((out / "summary.json").read_bytes())
    assert texts[0] == texts[1]


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("flux_capacitor = 1.21\n")
    assert main(["gen", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    missing = tmp_path / "nope.cfg"
    assert main(["gen", "--config", str(missing),
                 "--out", str(tmp_path)]) == 2
    # a non-finite number would pass every range check, an unknown
    # difficulty would fail only inside the gen stage, and so would a seed
    # of 1.5 or 2.5 children; "no" is a truthy string and true would run
    # on one question; a key set twice (TINY sets the seed) would keep
    # its last value. All are refused before any stage runs
    out = tmp_path / "out"
    for line in ("svpo_lr = nan", "pretrain_lr = inf", "difficulty = hrad",
                 "solution_level_only = no", "n_train = true",
                 "search_n_children = 2.5", "seed = 1"):
        bad.write_text(TINY + line + "\n")
        capsys.readouterr()
        assert main(["pipeline", "--config", str(bad),
                     "--out", str(out)]) == 2, line
        assert "config error" in capsys.readouterr().err
    # the float seed replaces TINY's, so the type check (not the
    # repeated-key rule) is what refuses it
    bad.write_text(TINY.replace("seed = 0", "seed = 1.5"))
    assert main(["pipeline", "--config", str(bad), "--out", str(out)]) == 2
    assert "'seed' needs type int" in capsys.readouterr().err
    # a negative seed, in the file or from --seed, would fail inside gen
    for text, seed in ((TINY.replace("seed = 0", "seed = -1"), []),
                       (TINY, ["--seed", "-1"])):
        bad.write_text(text)
        assert main(["pipeline", "--config", str(bad), "--out", str(out)]
                    + seed) == 2
        assert "seed and max_value_targets must be >= 0" in \
            capsys.readouterr().err
    # pretraining's config holds only the fields its loss reads, and the
    # preference stage has neither a coupling weight nor a value MSE
    for line in ("pretrain_beta = 1", "pretrain_gamma = 1",
                 "pretrain_w_margin = 1", "pretrain_stage = 1",
                 "svpo_w_reg = 0.001", "svpo_w_mse = 0.25"):
        bad.write_text(TINY + line + "\n")
        capsys.readouterr()
        assert main(["pipeline", "--config", str(bad),
                     "--out", str(out)]) == 2, line
        assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_missing_artifacts_exit_3(tmp_path, capsys):
    # annotate before gen: no question files to load
    assert main(["annotate", "--out", str(tmp_path / "empty")]) == 3
    err = capsys.readouterr().err
    assert "error in stage 'annotate'" in err


def test_out_of_range_question_file_exits_2(tmp_path, capsys):
    """An edited question whose start lies outside the Env's bounds, or a
    test question that reuses a training question's id, is refused when
    the next stage loads the questions, before any search."""
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    for case in ("start", "id"):
        out = tmp_path / case
        assert main(["gen", "--config", str(config), "--out", str(out)]) == 0
        paths = [out / "questions_train.jsonl", out / "questions_test.jsonl"]
        train, test = [[json.loads(line) for line in p.read_text().splitlines()]
                       for p in paths]
        if case == "start":
            train[3]["spec"]["start"] = 0
            bad = train[3]["id"]
        else:
            test[0]["id"] = bad = train[0]["id"]
        for p, records in zip(paths, (train, test)):
            p.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert main(["annotate", "--config", str(config),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and f"question {bad}:" in err
        assert not (out / "forests.jsonl").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("ablate", "--arms", "full,warp_drive"),
    ("ablate", "--seeds", "x"),
    ("sweep", "--seeds", "x"),
    ("sweep", "--gammas", "0.5,wide"),
    ("sweep", "--gammas", "0.5,nan"),
    ("sweep", "--gammas", "inf"),
    ("sweep", "--gammas", "-1"),
    ("ablate", "--seeds", "0,-1"),
    ("infer", "--b1", "0"),
], ids=["unknown_arm", "ablate_seeds", "sweep_seeds", "sweep_gammas",
        "sweep_gamma_nan", "sweep_gamma_inf", "sweep_gamma_negative",
        "ablate_seed_negative", "infer_b1_zero"])
def test_usage_errors_exit_2(tmp_path, capsys, command, flag, value):
    """A malformed list, an out-of-range seed, gamma or beam width, or an
    unknown arm is a usage error, refused before any work: not even --out
    is created."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_infer_b1_defaults_to_the_config(staged, tmp_path, capsys):
    """Without --b1, `svpo infer --mode sbs` keeps the config's sbs_b1."""
    config, out = staged
    b3 = tmp_path / "b3.cfg"
    b3.write_text(config.read_text() + "sbs_b1 = 3\n")
    for name in ("questions_train.jsonl", "questions_test.jsonl",
                 "ckpt_svpo.json"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    assert main(["infer", "--config", str(b3), "--out", str(tmp_path),
                 "--mode", "sbs"]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in
               (tmp_path / "inference_sbs_b3.jsonl").read_text().splitlines()]
    assert len(records) == 8 and all(r["b1"] == 3 for r in records)


@pytest.fixture(scope="module")
def ablated(staged):
    """Run `svpo ablate` once over the sft and full arms, seed 0."""
    config, out = staged
    code = main(["ablate", "--config", str(config), "--out", str(out),
                 "--arms", "sft,full", "--seeds", "0"])
    return code, out


def test_ablate_smoke(ablated):
    code, out = ablated
    assert code == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    assert rows[0].startswith("arm,seed,")
    assert len(rows) == 3  # header + 2 arms x 1 seed
    blob = json.loads((out / "ablation.json").read_text())
    assert set(blob) == {"sft", "full"}


def test_sft_arm_implicit_win_rate_is_not_applicable(ablated):
    """The sft arm scores the pretrain params, which have no reference
    policy of their own: its implicit win rates read null in
    ablation.json and empty in ablation.csv, not a constant 0.5. Its
    explicit win rates and the full arm's implicit ones are reported."""
    code, out = ablated
    assert code == 0
    blob = json.loads((out / "ablation.json").read_text())
    sft, full = blob["sft"]["0"]["win_rate"], blob["full"]["0"]["win_rate"]
    for split in ("train", "heldout", "gap"):
        assert sft[split]["implicit"] is None
        assert isinstance(sft[split]["explicit"], float)
        assert isinstance(full[split]["implicit"], float)
    with open(out / "ablation.csv", newline="") as fh:
        rows = {row["arm"]: row for row in csv.DictReader(fh)}
    for column in ("wr_train_implicit", "wr_heldout_implicit"):
        assert rows["sft"][column] == ""
        assert rows["full"][column] != ""
    assert rows["sft"]["wr_train_explicit"] != ""


def test_sweep_smoke(staged, capsys):
    config, out = staged
    code = main(["sweep", "--config", str(config), "--out", str(out),
                 "--gammas", "0.25,0.5", "--seeds", "0"])
    assert code == 0
    capsys.readouterr()
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    blob = json.loads((out / "sweep.json").read_text())
    assert set(blob) == {"0.25", "0.5"}


def test_module_entrypoint(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    proc = subprocess.run(
        [sys.executable, "-m", "svpo.cli", "gen",
         "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "questions_train.jsonl").exists()


def test_seed_override(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    for seed, sub in (("0", "s0"), ("7", "s7")):
        assert main(["gen", "--config", str(config), "--seed", seed,
                     "--out", str(tmp_path / sub)]) == 0
    capsys.readouterr()
    a = (tmp_path / "s0" / "questions_train.jsonl").read_text()
    b = (tmp_path / "s7" / "questions_train.jsonl").read_text()
    assert a != b
