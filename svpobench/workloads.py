"""The benchmark's two workloads.

pipeline-medium
    ``evaluate.run_pipeline`` on medium questions with the default search,
    pair, loss and SBS settings, writing artifacts. It is the researcher's
    main job: training (batched forward and backward passes through the
    model) does most of the work, search little. It is sized down from the
    default 500/200 questions to 48/50 so that a pass takes about six
    seconds on a 2-core machine and a run repeats it several times; 50
    test questions give the 100 SBS b1=3 decodes (both checkpoints) that
    a p90 needs. The number of value targets and the pretrain epochs, not
    the question count, set the pretrain length: 512 targets give 128
    pretrain steps, enough for a p90 of the per-step time.

search-hard
    MCTS annotation of hard questions (6 to 8 steps) under the untrained
    initial policy, the policy the pipeline's annotate stage starts from,
    then greedy decoding and SBS with b1=1 and b1=3 on a disjoint test
    split. The model runs forward only, one state per call, and no
    backward pass runs, so a training-kernel change should leave it alone
    while search or SBS batching shows here. The featurizer cache grows
    with every visited state, so cache policy shows in peak memory. It
    annotates 200 questions and decodes 300, whose SBS b1=3 decodes give
    a p90 thirty samples beyond it.

Both derive every input from the workload seed. One pass of a workload
re-creates its inputs (untimed, but measured as set-up) and then runs the
timed part; a run repeats passes on the same inputs.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from time import perf_counter

from svpo import evaluate, infer, mcts, pairs
from svpo.env import Env, EnvConfig, gen_dataset
from svpo.evaluate import ExperimentConfig
from svpo.model import Model

from .checks import (
    CheckReport, check_log, check_pair, check_params, check_solution,
    check_tree, pipeline_digest, search_digest,
)
from .speed import slowdown_now
from .tracing import Recorder, instrument

PIPELINE_SIZE = dict(n_train=48, n_test=50, max_value_targets=512)
HARD_TRAIN = 200
HARD_TEST = 300


@dataclass
class PassResult:
    setup_s: float
    wall_s: float
    traced: bool
    rec: Recorder
    quality: dict
    checks: CheckReport
    digest: str
    steps: dict = field(default_factory=dict)


def _inputs(seed: int, difficulty: str, n_train: int, n_test: int):
    """Questions, Env, Model and initial params, as the pipeline makes
    them: even dataset seed for training, odd for test, so the two splits
    never share a question id."""
    train_qs = gen_dataset(2 * seed, n_train, difficulty)
    test_qs = gen_dataset(2 * seed + 1, n_test, difficulty)
    env = Env(EnvConfig(), train_qs + test_qs)
    model = Model(env)
    return env, train_qs, test_qs, model, model.init_params(seed=seed)


def _timed_inputs(*args):
    """Build the inputs; their time is in reference seconds."""
    slowdown = slowdown_now()
    t0 = perf_counter()
    inputs = _inputs(*args)
    return (perf_counter() - t0) / slowdown, inputs


class PipelineMedium:
    name = "pipeline-medium"

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.config = ExperimentConfig(seed=seed, difficulty="medium",
                                       **PIPELINE_SIZE)
        self.out_dir = out_root / f"{self.name}-{seed}"

    def run_pass(self, traced: bool) -> PassResult:
        # run_pipeline builds its inputs from the config itself; the same
        # construction is timed here so that set-up cost stays visible
        setup_s, _ = _timed_inputs(self.seed, "medium",
                                   self.config.n_train, self.config.n_test)
        rec = Recorder()
        with instrument(rec, traced):
            t0 = perf_counter()
            bundle = evaluate.run_pipeline(self.config, self.out_dir)
            wall_s = perf_counter() - t0
        corpus = bundle.corpus
        checks = CheckReport()
        for _, question, solution, _ in rec.decodes:
            checks.record(check_solution(question, solution))
        for pair in corpus.pairs + bundle.heldout:
            checks.record(check_pair(corpus.env.question(pair.question_id),
                                     pair))
        for forest in corpus.forests:
            for tree in forest.trees:
                checks.record(check_tree(tree))
        checks.record(check_params(bundle.sft_ckpt.params)
                      + check_params(bundle.svpo_ckpt.params))
        checks.record(check_log(self.out_dir / "svpo_log.csv"))
        metrics = bundle.summary["metrics"]
        quality = {
            "solve_rate": fmean(bool(mcts.correct_solutions(f))
                                for f in corpus.forests),
            "acc_greedy_pretrain": metrics["accuracy"]["sft"]["greedy"],
            "acc_greedy": metrics["accuracy"]["svpo"]["greedy"],
            "acc_sbs_b1": metrics["accuracy"]["svpo"]["sbs_b1"],
            "acc_sbs_b3": metrics["accuracy"]["svpo"]["sbs_b3"],
            "winrate_heldout_implicit":
                metrics["win_rate"]["heldout"]["implicit"],
            "winrate_heldout_explicit":
                metrics["win_rate"]["heldout"]["explicit"],
        }
        steps = {"pretrain": bundle.sft_ckpt.step,
                 "svpo": bundle.svpo_ckpt.step - bundle.sft_ckpt.step}
        return PassResult(setup_s, wall_s, traced, rec, quality, checks,
                          pipeline_digest(self.out_dir), steps)


class SearchHard:
    name = "search-hard"

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.search = mcts.SearchConfig()
        self.counts = pairs.PairCounts()
        self.sbs_configs = [dataclasses.replace(infer.SBSConfig(), b1=b1)
                            for b1 in (1, 3)]

    def run_pass(self, traced: bool) -> PassResult:
        setup_s, (env, train_qs, test_qs, model, params) = _timed_inputs(
            self.seed, "hard", HARD_TRAIN, HARD_TEST)
        rec = Recorder()
        checks = CheckReport()
        found: list = []
        solved = 0
        wall_s = 0.0
        # the per-question output checks run between the timed calls
        with instrument(rec, traced):
            for question in train_qs:
                t0 = perf_counter()
                forest = mcts.build_forest(model, question, params,
                                           self.search,
                                           rng_seed=self.seed + question.id)
                pairs.label_correct(forest)
                extracted = pairs.extract_pairs(forest, self.counts,
                                                rng_seed=self.seed)
                wall_s += perf_counter() - t0
                for tree in forest.trees:
                    checks.record(check_tree(tree))
                solved += bool(mcts.correct_solutions(forest))
                found.extend(extracted)
            for question in test_qs:
                t0 = perf_counter()
                infer.greedy_decode(model, params, question)
                for config in self.sbs_configs:
                    infer.sbs(model, params, question, config, self.seed)
                wall_s += perf_counter() - t0
        for pair in found:
            checks.record(check_pair(env.question(pair.question_id), pair))
        for _, question, solution, _ in rec.decodes:
            checks.record(check_solution(question, solution))
        quality = {"solve_rate": solved / len(train_qs)}
        for kind in ("greedy", "sbs_b1", "sbs_b3"):
            quality[f"acc_{kind}"] = fmean(
                s.correct for k, _, s, _ in rec.decodes if k == kind)
        return PassResult(setup_s, wall_s, traced, rec, quality, checks,
                          search_digest(found, rec.decodes))


WORKLOADS = {w.name: w for w in (PipelineMedium, SearchHard)}
