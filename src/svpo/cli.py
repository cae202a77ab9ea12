"""Command-line front end.

The staged subcommands run the pipeline one stage at a time. Each reads
its inputs from --out, calls the stage function `svpo pipeline` calls
and writes that stage's files, so gen, annotate, pairs, pretrain, svpo
and eval in turn leave every file `svpo pipeline` writes, byte for byte,
plus pretrain_log.csv, which the pipeline does not write:

    gen       reads  -
              writes questions_train.jsonl, questions_test.jsonl
    annotate  reads  questions_*.jsonl
              writes forests.jsonl
    pairs     reads  questions_*.jsonl, forests.jsonl
              writes pairs.jsonl, value_targets.jsonl, solutions.jsonl
    pretrain  reads  questions_*.jsonl, pairs.jsonl, value_targets.jsonl,
                     solutions.jsonl
              writes ckpt_pretrain.json, pretrain_log.csv
    svpo      reads  what pretrain reads, ckpt_pretrain.json
              writes ckpt_svpo.json, svpo_log.csv
    eval      reads  what svpo reads, ckpt_svpo.json, svpo_log.csv
              writes pairs_heldout.jsonl, summary.json

infer decodes the test split with a checkpoint (inference_*.jsonl); in
sbs mode --b1 defaults to the config's sbs_b1. eval reports SBS at
b1 = 1 and 3 whatever sbs_b1 holds.
ablate, sweep, and pipeline are self-contained drivers. An ablation arm
is a set of config overrides applied before the preference stage:
full (none), pref_off (svpo_beta = 1e-9 and svpo_w_margin = 0, the
control with the same schedule that trains only the carried SFT term),
no_margin (svpo_w_margin = 0) and solution_dpo (no_margin trained on
solution-level pairs only); the arm sft scores the pretrain checkpoint.
A sweep arm sets svpo_gamma. Exit codes: 0 success; 2 for a
configuration error (an unknown or repeated key, a value outside its
field's range or type: `seed = -1`, nan, `seed = 1.5`), a malformed or
out-of-range --seed, --seeds, --gammas or --b1, an empty list or one
that repeats an entry, or an unknown arm (all before any work), or a
question file outside the Env's bounds; 3 stage failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .evaluate import (
    ARMS, ExperimentConfig, StageFailure, _round, annotate_stage,
    eval_stage, experiment_config_from_dict, gen_stage, heldout_stage,
    load_corpus, load_training_checkpoint, load_training_log, pairs_stage,
    pretrain_stage, run_matrix, run_pipeline, save_corpus,
    save_eval, save_training, seed_config, summary_text, svpo_stage,
)
from .env import InvalidQuestion
from .infer import inference_record
from .pairs import positive_negative_ratio
from .records import save_csv, save_jsonl
from .train import load_checkpoint, parse_kv_text

DEFAULT_SEEDS = "0,1,2,3,4"
DEFAULT_GAMMAS = "0,0.25,0.5,0.75,1.0"


def load_experiment_config(args) -> ExperimentConfig:
    items: dict = {}
    if args.config:
        items = parse_kv_text(Path(args.config).read_text())
    config = experiment_config_from_dict(items)
    return config if args.seed is None else seed_config(config, args.seed)


def cmd_gen(args, config: ExperimentConfig, out: Path) -> int:
    save_corpus(gen_stage(config), out, ("gen",))
    print(f"wrote questions_train.jsonl and questions_test.jsonl to {out}")
    return 0


def cmd_annotate(args, config: ExperimentConfig, out: Path) -> int:
    corpus = load_corpus(out, config)
    annotate_stage(corpus, config)
    save_corpus(corpus, out, ("annotate",))
    print(f"annotated {len(corpus.forests)} questions -> forests.jsonl")
    return 0


def cmd_pairs(args, config: ExperimentConfig, out: Path) -> int:
    corpus = load_corpus(out, config, ("gen", "annotate"))
    pairs_stage(corpus, config)
    save_corpus(corpus, out, ("pairs",))
    print(f"extracted {len(corpus.pairs)} pairs "
          f"(1:{positive_negative_ratio(corpus.pairs):.4f}) -> pairs.jsonl")
    return 0


def cmd_pretrain(args, config: ExperimentConfig, out: Path) -> int:
    corpus = load_corpus(out, config, ("gen", "pairs"))
    log: list = []
    ckpt = pretrain_stage(corpus, config, log=log)
    save_training(out, "pretrain", ckpt, log)
    print(f"pretrained for {ckpt.step} steps -> ckpt_pretrain.json")
    return 0


def cmd_svpo(args, config: ExperimentConfig, out: Path) -> int:
    corpus = load_corpus(out, config, ("gen", "pairs"))
    sft_ckpt = load_training_checkpoint(out, "pretrain")
    log: list = []
    ckpt = svpo_stage(corpus, sft_ckpt, config, log=log)
    save_training(out, "svpo", ckpt, log)
    print(f"preference-trained to step {ckpt.step} -> ckpt_svpo.json")
    return 0


def cmd_infer(args, config: ExperimentConfig, out: Path) -> int:
    corpus = load_corpus(out, config)
    ckpt = load_checkpoint(out / args.ckpt)
    sbs_config = None
    name = f"inference_{args.mode}.jsonl"
    if args.mode == "sbs":
        sbs_config = config.sbs if args.b1 is None \
            else dataclasses.replace(config.sbs, b1=args.b1)
        name = f"inference_sbs_b{sbs_config.b1}.jsonl"
    records = [inference_record(corpus.model, ckpt.params, q, sbs_config,
                                rng_seed=config.seed)
               for q in corpus.test_questions]
    save_jsonl(records, out / name)
    acc = sum(r["correct"] for r in records) / len(records)
    print(f"{args.mode} accuracy {acc:.4f} over {len(records)} questions "
          f"-> {name}")
    return 0


def cmd_eval(args, config: ExperimentConfig, out: Path) -> int:
    corpus = load_corpus(out, config, ("gen", "pairs"))
    sft_ckpt = load_training_checkpoint(out, "pretrain")
    svpo_ckpt = load_training_checkpoint(out, "svpo")
    heldout = heldout_stage(corpus, sft_ckpt, config)
    summary = eval_stage(corpus, sft_ckpt, svpo_ckpt, heldout,
                         load_training_log(out, "svpo"), config)
    save_eval(out, heldout, summary)
    print(json.dumps(summary["metrics"]["accuracy"], sort_keys=True))
    return 0


# argparse types: a bad list or value is a usage error (exit 2) before any work

def _list_of(parse, ok, what: str):
    """An argparse type: distinct comma-separated `what`, at least one."""
    def entries(text: str) -> list:
        try:
            items = [parse(part.strip()) for part in text.split(",")
                     if part.strip()]
        except ValueError:
            items = []
        if not (items and len(set(items)) == len(items)
                and all(map(ok, items))):
            raise argparse.ArgumentTypeError(
                f"need distinct comma-separated {what}: {text!r}")
        return items
    return entries


_seed_list = _list_of(int, lambda seed: seed >= 0, "seeds >= 0")
_gamma_list = _list_of(float, lambda gamma: 0 <= gamma < float("inf"),
                       "finite gammas >= 0")  # nan fails both comparisons
_arm_list = _list_of(str, ARMS.__contains__, f"arms among {', '.join(ARMS)}")


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text!r}")
    return int(text)


def cmd_ablate(args, config: ExperimentConfig, out: Path) -> int:
    arms, seeds = args.arms, args.seeds
    results = run_matrix(config, seeds, {arm: ARMS[arm] for arm in arms},
                         with_win_rates=True)
    rows = []
    for arm in arms:
        for seed in seeds:
            metrics = results[arm][seed]
            rates = metrics["win_rate"]
            rows.append({"arm": arm, "seed": seed, **metrics["accuracy"],
                         "wr_train_implicit": rates["train"]["implicit"],
                         "wr_train_explicit": rates["train"]["explicit"],
                         "wr_heldout_implicit": rates["heldout"]["implicit"],
                         "wr_heldout_explicit": rates["heldout"]["explicit"]})
    _write_csv(out / "ablation.csv", rows)
    (out / "ablation.json").write_text(
        summary_text(_round(_stringify_keys(results))))
    print(f"ablation over arms {arms} and seeds {seeds} -> ablation.csv")
    return 0


def cmd_sweep(args, config: ExperimentConfig, out: Path) -> int:
    gammas, seeds = args.gammas, args.seeds
    results = run_matrix(config, seeds,
                         {gamma: {"svpo_gamma": gamma} for gamma in gammas})
    rows = [{"gamma": gamma, "seed": seed,
             **results[gamma][seed]["accuracy"]}
            for gamma in gammas for seed in seeds]
    _write_csv(out / "sweep.csv", rows)
    (out / "sweep.json").write_text(
        summary_text(_round(_stringify_keys(results))))
    print(f"gamma sweep over {gammas} -> sweep.csv")
    return 0


def cmd_pipeline(args, config: ExperimentConfig, out: Path) -> int:
    bundle = run_pipeline(config, out_dir=out)
    print(summary_text(bundle.summary), end="")
    return 0


def _stringify_keys(value):
    if isinstance(value, dict):
        return {str(k): _stringify_keys(v) for k, v in value.items()}
    return value


def _write_csv(path: Path, rows: list[dict]) -> None:
    save_csv(rows, path, list(rows[0]) if rows else [])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svpo",
        description="Step-level value preference optimization on a "
                    "synthetic arithmetic-chain environment.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--config", default=None,
                       help="flat key=value config file")
        p.add_argument("--out", default="out",
                       help="artifact directory (default: ./out)")
        p.set_defaults(func=func)
        return p

    add("gen", cmd_gen, "generate train/test question sets")
    add("annotate", cmd_annotate, "build search forests for the train set")
    add("pairs", cmd_pairs, "extract preference pairs, targets, solutions")
    add("pretrain", cmd_pretrain, "multi-task pretraining stage")
    add("svpo", cmd_svpo, "preference optimization stage")
    p = add("infer", cmd_infer, "decode the test set with a checkpoint")
    p.add_argument("--mode", choices=("greedy", "sbs"), default="greedy")
    p.add_argument("--b1", type=_positive_int, default=None,
                   help="beams kept (sbs mode; default: the config's sbs_b1)")
    p.add_argument("--ckpt", default="ckpt_svpo.json",
                   help="checkpoint filename under --out")
    add("eval", cmd_eval, "accuracy and win-rate report for both stages")
    p = add("ablate", cmd_ablate, "train and score ablation arms")
    p.add_argument("--arms", type=_arm_list,
                   default="full,pref_off,no_margin,sft",
                   help=f"comma-separated arms among {', '.join(ARMS)}; "
                        "each is a set of config overrides, and sft "
                        "scores the pretrain checkpoint")
    p.add_argument("--seeds", type=_seed_list, default=DEFAULT_SEEDS)
    p = add("sweep", cmd_sweep, "margin-width sensitivity sweep")
    p.add_argument("--gammas", type=_gamma_list, default=DEFAULT_GAMMAS)
    p.add_argument("--seeds", type=_seed_list, default=DEFAULT_SEEDS)
    add("pipeline", cmd_pipeline, "run every stage end to end")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_experiment_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, config, out)
    except InvalidQuestion as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except StageFailure as exc:
        print(f"error in stage {exc.stage!r}: {exc.cause}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error in stage {args.command!r}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
