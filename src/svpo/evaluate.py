"""Evaluation harness: accuracy, preference win-rates, ablation arms,
gamma sweeps, and the end-to-end pipeline.

The pipeline runs one seed end to end: generate questions, annotate the
training split with search trees under the initial policy, extract the
preference corpus, pretrain, run the preference stage, then score both
checkpoints with greedy decoding and beam search and with implicit and
explicit win-rates on training and held-out pairs. Held-out pairs are
built once from the post-pretraining policy and reused for every arm, so
ablations stay comparable.

The pairs stage (or `load_corpus` reading its files) compiles the feature
rows of every prefix of the corpus once, into `Corpus.rows`: both
training stages, every ablation arm and the training-pair win rates read
them. The held-out pairs are compiled once per seed, where they are
scored.
"""
from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import (
    DIFFICULTY_STEPS, Env, EnvConfig, Question, TERMINAL, gen_dataset,
    load_dataset,
)
from .infer import SBSConfig, greedy_decode, sbs
from .mcts import Forest, SearchConfig, build_forest, load_forests
from .model import Model, PolicyValueParams, PrefixRows
from .pairs import (
    PairCounts, PreferencePair, ValueTarget, extract_pairs,
    extract_sft_solutions, extract_value_targets, label_correct, load_pairs,
    load_solutions, load_value_targets, positive_negative_ratio,
)
from .records import load_csv
from .train import (
    Checkpoint, PretrainConfig, SVPOConfig, TrainData, load_checkpoint,
    pair_logprobs, stage_rows, train_loop,
)

SUMMARY_SCHEMA_VERSION = 1


class EmptyDataset(Exception):
    pass


class StageFailure(Exception):
    """Wraps any error raised inside a named pipeline stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure(name, exc) from exc


# -- metrics ------------------------------------------------------------------

def accuracy(model: Model, params: PolicyValueParams,
             questions: list[Question], sbs_config: SBSConfig | None,
             rng_seed: int = 0) -> float:
    """Fraction of questions whose decoded answer equals the truth, decoded
    greedily when `sbs_config` is None and by beam search otherwise."""
    if not questions:
        raise EmptyDataset("no questions to evaluate")
    correct = 0
    for question in questions:
        if sbs_config is None:
            solution = greedy_decode(model, params, question)
        else:
            solution = sbs(model, params, question, sbs_config, rng_seed)
        correct += int(solution.correct)
    return correct / len(questions)


def win_rate(model: Model, params: PolicyValueParams,
             ref_params: PolicyValueParams | None,
             pairs: list[PreferencePair], beta: float,
             rows: PrefixRows) -> dict:
    """Fraction of pairs each scorer ranks the winner strictly above the
    loser ("implicit", "explicit"), and "n_pairs"; exact ties earn half
    credit. Both policies score `rows`, compiled rows covering the pairs'
    prefixes, in the same kernel batches, so equal policies tie exactly.
    Without a reference policy the implicit reward does not apply and
    "implicit" is None."""
    if not pairs:
        raise EmptyDataset("no pairs to evaluate")
    logprobs, values = pair_logprobs(model, params, pairs, rows)
    n = len(pairs)
    implicit = None
    if ref_params is not None:
        ratio = logprobs - pair_logprobs(model, ref_params, pairs, rows)[0]
        implicit = _credit(beta * (ratio[:, 0] - ratio[:, 1])) / n
    return {"implicit": implicit,
            "explicit": _credit(values[:, 0] - values[:, 1]) / n,
            "n_pairs": n}


def _credit(diff: np.ndarray) -> float:
    return float(np.count_nonzero(diff > 0)
                 + 0.5 * np.count_nonzero(diff == 0))


# -- experiment configuration -------------------------------------------------

@dataclass
class ExperimentConfig:
    seed: int = 0
    n_train: int = 500
    n_test: int = 200
    difficulty: str = "medium"
    sft_k: int = 4
    max_value_targets: int = 20000
    search: SearchConfig = field(default_factory=SearchConfig)
    counts: PairCounts = field(default_factory=PairCounts)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    svpo: SVPOConfig = field(default_factory=SVPOConfig)
    sbs: SBSConfig = field(default_factory=SBSConfig)
    solution_level_only: bool = False

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        if self.difficulty not in DIFFICULTY_STEPS:
            raise ValueError(f"unknown difficulty {self.difficulty!r}")
        if self.sft_k < 1:
            raise ValueError("sft_k must be >= 1")
        if self.max_value_targets < 0:
            raise ValueError("max_value_targets must be >= 0")
        # train_loop runs the stage its config's type names
        if (isinstance(self.pretrain, SVPOConfig)
                or not isinstance(self.svpo, SVPOConfig)):
            raise ValueError("stage configs do not match their slots")


_SUBCONFIGS = {"search": SearchConfig, "counts": PairCounts,
               "pretrain": PretrainConfig, "svpo": SVPOConfig,
               "sbs": SBSConfig}


# the value types each annotated field type takes; a bool, which
# subclasses int, passes only where a bool is meant
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


def _config_keys() -> dict:
    """Flat config key -> (sub-config slot or None, dataclass field);
    sub-config keys are prefixed with their slot, e.g. search_c_puct."""
    keys: dict = {}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in _SUBCONFIGS:
            for sub in dataclasses.fields(_SUBCONFIGS[f.name]):
                keys[f"{f.name}_{sub.name}"] = (f.name, sub)
        else:
            keys[f.name] = (None, f)
    return keys


def experiment_config_to_dict(config: ExperimentConfig) -> dict:
    """Flatten to primitive key=value entries."""
    return {key: getattr(config if slot is None else getattr(config, slot),
                         f.name)
            for key, (slot, f) in _config_keys().items()}


def experiment_config_from_dict(items: dict) -> ExperimentConfig:
    """The config of flat key=value entries (see experiment_config_to_dict).
    Refuses an unknown key, and a value whose type is not its field's: a
    bool field takes a bool, an int field an int, a float field an int or
    a float (stored as a float, so 0 and 0.0 agree), a str field a str."""
    slots = _config_keys()
    top: dict = {}
    nested: dict[str, dict] = {name: {} for name in _SUBCONFIGS}
    for key, value in items.items():
        if key not in slots:
            raise ValueError(f"unknown config key {key!r}")
        slot, f = slots[key]
        if not (isinstance(value, _FIELD_TYPES[f.type])
                and isinstance(value, bool) == (f.type == "bool")):
            raise ValueError(f"config key {key!r} needs type {f.type}, "
                             f"not {value!r}")
        if f.type == "float":
            value = float(value)
        (top if slot is None else nested[slot])[f.name] = value
    for name, cls in _SUBCONFIGS.items():
        top[name] = cls(**nested[name])
    return ExperimentConfig(**top)


def solution_level_pairs(env: Env,
                         pairs: list[PreferencePair]) -> list[PreferencePair]:
    """Pairs whose two sides are both complete solutions: terminal kind
    with the winner itself ending in an answer."""
    return [p for p in pairs
            if p.kind == "terminal" and p.winner
            and env.vocab[p.winner[-1]].kind == TERMINAL]


# -- pipeline stages ----------------------------------------------------------

@dataclass
class Corpus:
    """One seed's questions, model and training data. The gen stage fills
    the fields up to init_params, annotate adds the forests and pairs the
    rest, including `rows`, the compiled prefixes of the pairs, solutions
    and value targets."""
    env: Env
    model: Model
    train_questions: list[Question]
    test_questions: list[Question]
    init_params: PolicyValueParams
    forests: list[Forest] = field(default_factory=list)
    pairs: list[PreferencePair] = field(default_factory=list)
    solutions: list = field(default_factory=list)
    value_targets: list[ValueTarget] = field(default_factory=list)
    rows: PrefixRows | None = None


def new_corpus(config: ExperimentConfig, train_questions: list[Question],
               test_questions: list[Question]) -> Corpus:
    """A corpus over both splits with its Env, Model and initial params."""
    env = Env(EnvConfig(), train_questions + test_questions)
    model = Model(env)
    return Corpus(env, model, train_questions, test_questions,
                  model.init_params(seed=config.seed))


def gen_stage(config: ExperimentConfig) -> Corpus:
    with _stage("gen"):
        # even/odd split keeps question ids disjoint across splits and seeds
        seed = config.seed * 2
        return new_corpus(
            config, gen_dataset(seed, config.n_train, config.difficulty),
            gen_dataset(seed + 1, config.n_test, config.difficulty))


def labeled_forests(model: Model, params: PolicyValueParams,
                    questions: list[Question], search: SearchConfig,
                    rng_seed: int):
    """Yield each question's search forest under `params`, its correct
    solutions labeled, one question at a time."""
    for question in questions:
        # mixing the id keeps per-question search entropy independent
        yield label_correct(build_forest(model, question, params, search,
                                         rng_seed + question.id))


def annotate_stage(corpus: Corpus, config: ExperimentConfig) -> None:
    """Search every training question under the initial policy."""
    with _stage("annotate"):
        corpus.forests = list(labeled_forests(
            corpus.model, corpus.init_params, corpus.train_questions,
            config.search, config.seed))


def pairs_stage(corpus: Corpus, config: ExperimentConfig) -> None:
    """Extract the preference pairs, value targets and SFT solutions."""
    with _stage("pairs"):
        pairs, targets, solutions = [], [], []
        for forest in corpus.forests:
            pairs.extend(extract_pairs(forest, config.counts,
                                       rng_seed=config.seed))
            targets.extend(extract_value_targets(forest))
            solutions.extend(extract_sft_solutions(corpus.env, forest,
                                                   config.sft_k))
        if config.max_value_targets and len(targets) > config.max_value_targets:
            # deterministic thinning keeps the pretrain stage bounded
            stride = len(targets) / config.max_value_targets
            targets = [targets[int(i * stride)]
                       for i in range(config.max_value_targets)]
        corpus.pairs, corpus.value_targets, corpus.solutions = (
            pairs, targets, solutions)
        compile_rows(corpus)


def compile_rows(corpus: Corpus) -> None:
    """One compile serves both training stages, every ablation arm (the
    solution_dpo pairs are a subset) and the training-pair win rates."""
    corpus.rows = stage_rows(corpus.model, TrainData(
        corpus.pairs, corpus.solutions, corpus.value_targets))


def build_corpus(config: ExperimentConfig) -> Corpus:
    """Generate both splits, annotate the training split with search under
    the initial (untrained) policy and extract the training data."""
    corpus = gen_stage(config)
    annotate_stage(corpus, config)
    pairs_stage(corpus, config)
    return corpus


def pretrain_stage(corpus: Corpus, config: ExperimentConfig,
                   log: list | None = None) -> Checkpoint:
    with _stage("pretrain"):
        data = TrainData(solutions=corpus.solutions,
                         value_targets=corpus.value_targets)
        init = Checkpoint(params=corpus.init_params, ref_params=None, step=0,
                          config=dict(vars(config.pretrain)))
        return train_loop(corpus.model, data, config.pretrain, config.seed,
                          init, corpus.rows, log)


def svpo_stage(corpus: Corpus, sft_ckpt: Checkpoint,
               config: ExperimentConfig,
               log: list | None = None) -> Checkpoint:
    with _stage("svpo"):
        pairs = corpus.pairs
        if config.solution_level_only:
            pairs = solution_level_pairs(corpus.env, pairs)
        data = TrainData(pairs, corpus.solutions, corpus.value_targets)
        return train_loop(corpus.model, data, config.svpo, config.seed,
                          sft_ckpt, corpus.rows, log)


def build_heldout_pairs(model: Model, params: PolicyValueParams,
                        test_questions: list[Question],
                        search: SearchConfig, counts: PairCounts,
                        rng_seed: int,
                        train_ids: set[int]) -> list[PreferencePair]:
    """Search the held-out questions with the given policy and extract
    pairs; refuses question sets that overlap the training ids."""
    overlap = train_ids & {q.id for q in test_questions}
    if overlap:
        raise ValueError(f"held-out questions overlap training ids: "
                         f"{sorted(overlap)[:3]}")
    pairs: list[PreferencePair] = []
    for forest in labeled_forests(model, params, test_questions, search,
                                  rng_seed):
        pairs.extend(extract_pairs(forest, counts, rng_seed))
    return pairs


def heldout_stage(corpus: Corpus, sft_ckpt: Checkpoint,
                  config: ExperimentConfig) -> list[PreferencePair]:
    with _stage("heldout"):
        train_ids = {q.id for q in corpus.train_questions}
        return build_heldout_pairs(corpus.model, sft_ckpt.params,
                                   corpus.test_questions, config.search,
                                   config.counts, config.seed, train_ids)


def eval_accuracy_suite(corpus: Corpus, params: PolicyValueParams,
                        config: ExperimentConfig) -> dict:
    model, questions = corpus.model, corpus.test_questions
    out = {"greedy": accuracy(model, params, questions, None)}
    for b1 in (1, 3):
        sbs_config = dataclasses.replace(config.sbs, b1=b1)
        out[f"sbs_b{b1}"] = accuracy(model, params, questions, sbs_config,
                                     rng_seed=config.seed)
    return out


def eval_win_rates(corpus: Corpus, params: PolicyValueParams,
                   ref_params: PolicyValueParams | None,
                   heldout: list[PreferencePair], heldout_rows: PrefixRows,
                   beta: float) -> dict:
    """Win rates on the training pairs (scored on `corpus.rows`) and on
    the held-out pairs (on `heldout_rows`), and their gap; see `win_rate`
    for a missing reference policy."""
    train = win_rate(corpus.model, params, ref_params, corpus.pairs, beta,
                     corpus.rows)
    held = win_rate(corpus.model, params, ref_params, heldout, beta,
                    heldout_rows)
    return {"train": train, "heldout": held,
            "gap": {key: None if train[key] is None
                    else train[key] - held[key]
                    for key in ("implicit", "explicit")}}


# -- the pipeline -------------------------------------------------------------

@dataclass
class ReportBundle:
    config: ExperimentConfig
    summary: dict
    out_dir: Path | None
    corpus: Corpus
    sft_ckpt: Checkpoint
    svpo_ckpt: Checkpoint
    heldout: list[PreferencePair]


def _round(value, places=4):
    if isinstance(value, float):
        return round(value, places)
    if isinstance(value, dict):
        return {k: _round(v, places) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v, places) for v in value]
    return value


def summary_text(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def pair_stats(corpus: Corpus) -> dict:
    return {"n_pairs": len(corpus.pairs),
            "n_value_targets": len(corpus.value_targets),
            "n_solutions": len(corpus.solutions),
            "pos_neg_ratio": positive_negative_ratio(corpus.pairs)}


def eval_stage(corpus: Corpus, sft_ckpt: Checkpoint, svpo_ckpt: Checkpoint,
               heldout: list[PreferencePair], svpo_log: list[dict],
               config: ExperimentConfig) -> dict:
    """Score both checkpoints; returns the contents of summary.json.
    `svpo_log` holds the preference stage's log rows, as train_loop
    appends them or as read back from svpo_log.csv."""
    with _stage("eval"):
        heldout_rows = stage_rows(corpus.model, TrainData(pairs=heldout))
        metrics = {
            "accuracy": {
                "sft": eval_accuracy_suite(corpus, sft_ckpt.params, config),
                "svpo": eval_accuracy_suite(corpus, svpo_ckpt.params, config),
            },
            "win_rate": eval_win_rates(
                corpus, svpo_ckpt.params, svpo_ckpt.ref_params, heldout,
                heldout_rows, config.svpo.beta),
            "max_abs_dr": max((float(row["max_abs_dr"]) for row in svpo_log),
                              default=0.0),
        }
    # only measured figures are rounded: the config block must read back
    # as the config that ran (a beta of 1e-9 would round to 0.0)
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "config": experiment_config_to_dict(config),
        "data": _round({"n_train": len(corpus.train_questions),
                        "n_test": len(corpus.test_questions),
                        "n_heldout_pairs": len(heldout),
                        **pair_stats(corpus)}),
        "metrics": _round(metrics),
    }


def run_pipeline(config: ExperimentConfig,
                 out_dir: str | Path | None = None) -> ReportBundle:
    """Every stage end to end, artifacts written to `out_dir` if given.
    Seeded outputs repeat at a fixed BLAS thread count: the preference
    stage's checkpoint and log differ between 1 and 2 threads. The
    benchmark pins one thread."""
    corpus = build_corpus(config)
    sft_ckpt = pretrain_stage(corpus, config)
    log: list = []
    svpo_ckpt = svpo_stage(corpus, sft_ckpt, config, log=log)
    heldout = heldout_stage(corpus, sft_ckpt, config)
    summary = eval_stage(corpus, sft_ckpt, svpo_ckpt, heldout, log, config)
    bundle = ReportBundle(config, summary, None, corpus, sft_ckpt, svpo_ckpt,
                          heldout)
    if out_dir is not None:
        bundle.out_dir = Path(out_dir)
        _write_artifacts(bundle, log)
    return bundle


# -- artifacts ----------------------------------------------------------------
# Every file a run leaves under its output directory is named, written
# and read here, by run_pipeline and the staged CLI commands alike. Each
# module's save_*/load_* pair maps its objects to records; the bytes of
# the JSON-lines and CSV files come from `records`, those of the JSON
# reports from `summary_text`. The save_* functions are imported when
# called, so a wrapper installed on their modules (as svpobench's tracing
# does) sees every write.

def save_corpus(corpus: Corpus, out: Path,
                stages=("gen", "annotate", "pairs")) -> None:
    """gen: questions_{train,test}.jsonl; annotate: forests.jsonl; pairs:
    pairs.jsonl, value_targets.jsonl, solutions.jsonl."""
    from .env import save_dataset
    from .mcts import save_forests
    from .pairs import save_pairs, save_solutions, save_value_targets

    if "gen" in stages:
        save_dataset(corpus.train_questions, out / "questions_train.jsonl")
        save_dataset(corpus.test_questions, out / "questions_test.jsonl")
    if "annotate" in stages:
        save_forests(corpus.forests, out / "forests.jsonl")
    if "pairs" in stages:
        save_pairs(corpus.pairs, out / "pairs.jsonl")
        save_value_targets(corpus.value_targets, out / "value_targets.jsonl")
        save_solutions(corpus.solutions, out / "solutions.jsonl")


def load_corpus(out: Path, config: ExperimentConfig,
                stages=("gen",)) -> Corpus:
    """The corpus as save_corpus left it for the given stages ("gen" is
    always read); forest-free stages skip the large forests file."""
    corpus = new_corpus(config, load_dataset(out / "questions_train.jsonl"),
                        load_dataset(out / "questions_test.jsonl"))
    if "annotate" in stages:
        corpus.forests = load_forests(corpus.env, out / "forests.jsonl")
    if "pairs" in stages:
        corpus.pairs = load_pairs(out / "pairs.jsonl")
        corpus.value_targets = load_value_targets(out / "value_targets.jsonl")
        corpus.solutions = load_solutions(out / "solutions.jsonl")
        compile_rows(corpus)
    return corpus


def save_training(out: Path, stage: str, ckpt: Checkpoint,
                  log: list[dict] | None) -> None:
    """ckpt_<stage>.json, and <stage>_log.csv when a log is given."""
    from .train import save_checkpoint, save_log_csv

    save_checkpoint(ckpt, out / f"ckpt_{stage}.json")
    if log is not None:
        save_log_csv(log, out / f"{stage}_log.csv")


def load_training_checkpoint(out: Path, stage: str) -> Checkpoint:
    return load_checkpoint(out / f"ckpt_{stage}.json")


def load_training_log(out: Path, stage: str) -> list[dict]:
    """A training stage's log rows, values as strings."""
    return load_csv(out / f"{stage}_log.csv")


def save_eval(out: Path, heldout: list[PreferencePair],
              summary: dict) -> None:
    """pairs_heldout.jsonl and summary.json."""
    from .pairs import save_pairs

    save_pairs(heldout, out / "pairs_heldout.jsonl")
    (out / "summary.json").write_text(summary_text(summary))


def _write_artifacts(bundle: ReportBundle, svpo_log: list[dict]) -> None:
    # no pretrain_log.csv yet: svpobench's tracing test pins ten wrapped
    # artifact writes per run (ROADMAP item 5)
    out = bundle.out_dir
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(bundle.corpus, out)
    save_training(out, "pretrain", bundle.sft_ckpt, None)
    save_training(out, "svpo", bundle.svpo_ckpt, svpo_log)
    save_eval(out, bundle.heldout, bundle.summary)


# -- seed-averaged experiment matrices ---------------------------------------

# An ablation arm is a set of config-file overrides applied to the
# experiment config before the preference stage; None scores the pretrain
# checkpoint instead.
ARMS = {
    "full": {},
    "no_margin": {"svpo_w_margin": 0.0},
    "no_mse": {"svpo_w_mse": 0.0},
    "solution_dpo": {"svpo_w_margin": 0.0, "svpo_w_mse": 0.0,
                     "solution_level_only": True},
    "sft": None,
}


def seed_config(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    return dataclasses.replace(config, seed=seed)


def run_matrix(config: ExperimentConfig, seeds: list[int], arms: dict,
               with_win_rates: bool = False) -> dict:
    """arm -> seed -> metrics. `arms` maps a name to its config overrides
    (see ARMS), or to None to score the pretrain checkpoint itself, whose
    implicit win rates are None (no reference policy). Arms share each
    seed's corpus and its compiled prefix rows, the pretrain checkpoint,
    and the held-out pairs and their rows, compiled once per seed. Every
    arm's config is built before any work, so a bad override fails
    first."""
    # through the config-file key space, so a bad key or value fails
    flat = experiment_config_to_dict(config)
    arm_configs = {arm: None if overrides is None
                   else experiment_config_from_dict({**flat, **overrides})
                   for arm, overrides in arms.items()}
    results: dict = {arm: {} for arm in arms}
    for seed in seeds:
        cfg = seed_config(config, seed)
        corpus = build_corpus(cfg)
        sft_ckpt = pretrain_stage(corpus, cfg)
        heldout = heldout_stage(corpus, sft_ckpt, cfg) if with_win_rates \
            else []
        heldout_rows = stage_rows(corpus.model, TrainData(pairs=heldout)) \
            if heldout else None
        for arm, arm_config in arm_configs.items():
            arm_cfg = cfg
            # the pretrain checkpoint has no reference policy of its own
            params, ref = sft_ckpt.params, None
            if arm_config is not None:
                arm_cfg = seed_config(arm_config, seed)
                ckpt = svpo_stage(corpus, sft_ckpt, arm_cfg)
                params, ref = ckpt.params, ckpt.ref_params
            out = {"accuracy": eval_accuracy_suite(corpus, params, arm_cfg)}
            if heldout:
                out["win_rate"] = eval_win_rates(corpus, params, ref, heldout,
                                                 heldout_rows,
                                                 arm_cfg.svpo.beta)
            results[arm][seed] = out
    return results
