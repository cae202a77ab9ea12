"""Two-stage training: multi-task pretraining and step-level value
preference optimization.

Pretraining (`PretrainConfig`) minimizes mean negative sequence
log-probability over correct solutions plus a small mean squared error
pulling the value head toward frozen search targets (reward at terminals,
Q inside the tree).

The preference stage (`SVPOConfig`, which adds beta, gamma and the margin
weight) scores each winner/loser pair two ways: an implicit reward
difference from policy log-ratios against a frozen reference policy, and
an explicit difference of value-head outputs at the two end states. Its
loss combines a sigmoid preference term on the implicit difference, a
hinge pushing the explicit difference past a margin, plus the reweighted
SFT term over the stage's solutions (the corpus's SFT solutions, which
cycle alongside the pair batches). It reads no value targets.

The paper's abstract says the explicit value model is trained, from the
perspective of learning-to-rank, to replicate the behavior of the
implicit reward model; its full text is not in this repository. This
code reads that as: the value head learns the same pairwise ranking the
implicit reward is trained on, through the margin hinge over the same
winner/loser pairs the sigmoid term ranks. No term ties the two
differences' magnitudes together. This repository once also carried
pretraining's value MSE into this stage; dropping it departs from that
earlier reading of the loss, not from a checked equation.

Every loss is coefficient arithmetic over one call per batch of the
model's batched prefix kernel, `Model.seq_logprob_grad`: it returns each
prefix's log-probability and end-state value, and the gradient of
sum_i a_i * logprob_i + b_i * value_i for per-prefix coefficients that
the loss derives from them. A corpus's prefixes (pairs, solutions and
value targets) are compiled once (`stage_rows`); `train_loop` takes
those rows and its starting checkpoint from the caller, looks the
stage's prefix ids up once, and every batch is then an id array.
Reference log-probabilities are computed once per stage. The optimizer
is plain mini-batch gradient descent.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import Solution
from .model import (
    Gradients, Model, PolicyValueParams, PrefixRows, params_from_record,
    params_to_record, spawn_generator,
)
from .pairs import PreferencePair, ValueTarget
from .records import save_csv

_TRAIN_STREAM = 0x7A1

LOG_FIELDS = ["step", "stage", "dpo", "margin", "sft", "mse", "total",
              "grad_norm", "max_abs_dr"]


class EmptyBatch(Exception):
    pass


@dataclass
class StageConfig:
    """What both training stages share: the SFT weight and plain
    mini-batch gradient descent. Every loss weight is a `w_` field."""

    w_sft: float = 1.0
    lr: float = 0.05
    batch_size: int = 32
    epochs: int = 8

    def __post_init__(self):
        if min(v for k, v in vars(self).items() if k.startswith("w_")) < 0:
            raise ValueError("loss weights must be >= 0")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


@dataclass
class PretrainConfig(StageConfig):
    """Pretraining: imitation plus a lightly weighted value MSE."""

    w_mse: float = 0.01


@dataclass
class SVPOConfig(StageConfig):
    """The preference stage: the SFT term, reweighted, plus the step-level
    preference term (inverse temperature beta) and the value margin hinge
    (margin gamma, weight w_margin)."""

    w_sft: float = 5.0
    epochs: int = 4
    beta: float = 0.1
    gamma: float = 0.5
    w_margin: float = 0.25

    def __post_init__(self):
        super().__post_init__()
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


# the earlier factory names, which svpobench's tests import
default_pretrain_config = PretrainConfig
default_svpo_config = SVPOConfig


@dataclass(frozen=True)
class LossBreakdown:
    """Unweighted term values; total carries the configured weights."""

    dpo: float = 0.0
    margin: float = 0.0
    sft: float = 0.0
    mse: float = 0.0
    total: float = 0.0


@dataclass
class Checkpoint:
    params: PolicyValueParams
    ref_params: PolicyValueParams | None
    step: int
    config: dict


@dataclass
class TrainData:
    pairs: list[PreferencePair] = field(default_factory=list)
    solutions: list[Solution] = field(default_factory=list)
    value_targets: list[ValueTarget] = field(default_factory=list)


# -- prefix batches ------------------------------------------------------------

PAIR_CHUNK = 256  # pairs per kernel call in whole-dataset passes


def first_appearance(ids: np.ndarray):
    """(the distinct entries of `ids` in order of first appearance, read
    column by column, and each entry's index among them, in the shape of
    `ids`). For (n, 2) pair ids: winners first, then losers."""
    flat = ids.ravel(order="F")
    _, first, inverse = np.unique(flat, return_index=True,
                                  return_inverse=True)
    rank = np.argsort(np.argsort(first))  # first-appearance rank
    return flat[np.sort(first)], rank[inverse].reshape(ids.shape, order="F")


def pair_ids(rows: PrefixRows, pairs: list[PreferencePair]) -> np.ndarray:
    """The (len(pairs), 2) ids of each pair's winner and loser prefix."""
    return rows.lookup((p.question_id, steps) for p in pairs
                       for steps in (p.winner, p.loser)).reshape(-1, 2)


def stage_rows(model: Model, data: TrainData) -> PrefixRows:
    """Every prefix of the pairs, solutions and targets, compiled."""
    return model.prefix_rows(
        [(p.question_id, p.winner) for p in data.pairs]
        + [(p.question_id, p.loser) for p in data.pairs]
        + [(s.question_id, s.steps) for s in data.solutions]
        + [(t.question_id, t.prefix) for t in data.value_targets])


def pair_logprobs(model: Model, params: PolicyValueParams, ids: np.ndarray,
                  rows: PrefixRows):
    """(log-probs, end-state values) of the (n, 2) pair ids `ids`, each
    (n, 2), PAIR_CHUNK pairs per kernel call over `rows`."""
    out = np.empty((2, len(ids), 2))
    for start in range(0, len(ids), PAIR_CHUNK):
        distinct, at = first_appearance(ids[start:start + PAIR_CHUNK])
        lp, v, _ = model.seq_logprob_grad(params, rows, distinct)
        out[:, start:start + PAIR_CHUNK] = np.stack([lp, v])[:, at]
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x), overflow-safe
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sft_loss(w_sft: float, logprobs: np.ndarray):
    """Mean solution NLL and its weighted log-prob coefficients."""
    n = len(logprobs)
    sft = float(-logprobs.sum() / n) if n else 0.0
    return sft, np.full(n, -w_sft / max(n, 1))


# -- batch losses and gradients ----------------------------------------------

def svpo_batch_grad(model: Model, params: PolicyValueParams,
                    ref_logprobs: np.ndarray, ids: np.ndarray,
                    config: SVPOConfig, sol_ids: np.ndarray,
                    rows: PrefixRows):
    """Mean loss terms and mean weighted gradient for one svpo step.

    The preference terms (dpo, margin) come from the pair batch, whose
    (n, 2) winner and loser ids `ids` holds, the carried sft term from
    the solution ids `sol_ids`; no solutions make it zero.
    `ref_logprobs` holds the batch's reference log-probs as pair_logprobs
    returns them, and `rows` the compiled prefixes of both batches.

    Also reports the largest |implicit difference| seen: the probability
    ratio bound never binds while this stays inside the value range.

    Every term folds into per-prefix coefficients of one kernel call over
    the distinct winner and loser prefixes plus the solutions: the
    preference term's on the log-prob path, the hinge's on the value
    path."""
    if not len(ids):
        raise EmptyBatch("empty pair batch")
    distinct, at = first_appearance(ids)
    w, l = at.T
    n, n_pre = len(ids), len(distinct)
    terms: dict = {}

    def coef(logprobs, values):
        lp, v = logprobs[:n_pre], values[:n_pre]
        dr_pi = config.beta * ((lp[w] - ref_logprobs[:, 0])
                               - (lp[l] - ref_logprobs[:, 1]))
        dr_phi = v[w] - v[l]
        pi = config.beta * (_sigmoid(dr_pi) - 1.0)
        hinge = np.where(dr_phi < config.gamma, -config.w_margin, 0.0)
        terms["sft"], a_sol = _sft_loss(config.w_sft, logprobs[n_pre:])
        terms.update(
            dpo=float(_softplus(-dr_pi).sum() / n),
            margin=float(np.maximum(0.0, config.gamma - dr_phi).sum() / n))
        terms["max_abs_dr"] = float(np.abs(dr_pi).max())
        a = np.zeros(n_pre)
        b = np.zeros(n_pre + len(a_sol))
        np.add.at(a, w, pi / n)
        np.add.at(a, l, -pi / n)
        np.add.at(b, w, hinge / n)
        np.add.at(b, l, -hinge / n)
        return np.concatenate([a, a_sol]), b

    _, _, grad = model.seq_logprob_grad(
        params, rows, np.concatenate([distinct, sol_ids]), coef)
    max_abs_dr = terms.pop("max_abs_dr")
    total = (terms["dpo"] + config.w_margin * terms["margin"]
             + config.w_sft * terms["sft"])
    breakdown = LossBreakdown(total=total, **terms)
    return breakdown, grad, max_abs_dr


def pretrain_batch_grad(model: Model, params: PolicyValueParams,
                        sol_ids: np.ndarray, tgt_ids: np.ndarray,
                        target_values: np.ndarray, config: PretrainConfig,
                        rows: PrefixRows):
    """Mean solution NLL plus weighted mean squared value error, and its
    gradient, from one kernel call over the solution ids, then the value
    target ids (whose targets `target_values` holds), of `rows`."""
    if not len(sol_ids) and not len(tgt_ids):
        raise EmptyBatch("nothing to pretrain on")
    n_sol, n_tgt = len(sol_ids), len(tgt_ids)
    terms: dict = {}

    def coef(logprobs, values):
        terms["sft"], a_sol = _sft_loss(config.w_sft, logprobs[:n_sol])
        err = values[n_sol:] - target_values
        terms["mse"] = float((err * err).sum() / n_tgt) if n_tgt else 0.0
        b_tgt = config.w_mse * 2.0 * err / max(n_tgt, 1)
        return (np.concatenate([a_sol, np.zeros(n_tgt)]),
                np.concatenate([np.zeros(n_sol), b_tgt]))

    _, _, grad = model.seq_logprob_grad(
        params, rows, np.concatenate([sol_ids, tgt_ids]), coef)
    total = config.w_sft * terms["sft"] + config.w_mse * terms["mse"]
    breakdown = LossBreakdown(total=total, **terms)
    return breakdown, grad


# -- the loop -----------------------------------------------------------------

def train_loop(model: Model, data: TrainData, config: StageConfig,
               rng_seed: int, init: Checkpoint, rows: PrefixRows,
               log: list | None = None) -> Checkpoint:
    """Run the stage that `config`'s type names from `init` and return
    the final checkpoint.

    In the svpo stage the `init` params (normally the pretrain result)
    also become the frozen reference policy; that stage reads the pairs
    and solutions of `data`. `rows` are compiled prefix rows covering
    every prefix of `data`; a superset gives the same bits.
    Deterministic in (data, config, rng_seed, init).
    """
    svpo = isinstance(config, SVPOConfig)
    stage = "svpo" if svpo else "pretrain"
    if svpo and not data.pairs:
        raise EmptyBatch("svpo stage needs preference pairs")
    if not svpo and not data.solutions and not data.value_targets:
        raise EmptyBatch("pretrain stage needs solutions or targets")
    params = init.params.copy()
    ref_params = init.params.copy() if svpo else None
    sols, tgts = data.solutions, data.value_targets
    pairs = pair_ids(rows, data.pairs)
    sol_ids = rows.lookup((s.question_id, s.steps) for s in sols)
    tgt_ids = rows.lookup((t.question_id, t.prefix) for t in tgts)
    tgt_values = np.array([t.target for t in tgts], dtype=float)
    if svpo:
        ref_logprobs, _ = pair_logprobs(model, ref_params, pairs, rows)

    step, size = init.step, config.batch_size
    n_sol, n_tgt = len(sol_ids), len(tgt_ids)
    for epoch in range(config.epochs):
        rng = spawn_generator(_TRAIN_STREAM, rng_seed, epoch)
        # pair batches (preference stage only) set the epoch length there,
        # the larger dataset in pretraining; solutions and pretraining's
        # targets cycle alongside (permutations drawn in this order)
        pair_order = rng.permutation(len(pairs)) if svpo else None
        sol_order = rng.permutation(n_sol)
        tgt_order = rng.permutation(n_tgt)
        n_steps = -(-(len(pairs) if svpo else max(n_sol, n_tgt)) // size)
        for b in range(n_steps):
            at = b * size + np.arange(size)
            sol_at = sol_order[at % n_sol] if n_sol else sol_order
            if svpo:
                idx = pair_order[b * size:(b + 1) * size]
                breakdown, grad, max_dr = svpo_batch_grad(
                    model, params, ref_logprobs[idx], pairs[idx], config,
                    sol_ids[sol_at], rows)
            else:
                tgt_at = tgt_order[at % n_tgt] if n_tgt else tgt_order
                breakdown, grad = pretrain_batch_grad(
                    model, params, sol_ids[sol_at], tgt_ids[tgt_at],
                    tgt_values[tgt_at], config, rows)
                max_dr = 0.0
            _apply(params, grad, config.lr)
            step += 1
            _log_row(log, step, stage, breakdown, grad, max_dr)
    return Checkpoint(params=params, ref_params=ref_params, step=step,
                      config=dict(vars(config)))


def _apply(params: PolicyValueParams, grad: Gradients, lr: float) -> None:
    params.w_shared -= lr * grad.w_shared
    params.w_policy -= lr * grad.w_policy
    params.w_value -= lr * grad.w_value


def _log_row(log, step: int, stage: str, breakdown: LossBreakdown,
             grad: Gradients, max_abs_dr: float) -> None:
    if log is None:
        return
    log.append({"step": step, "stage": stage, **vars(breakdown),
                "grad_norm": grad.norm(), "max_abs_dr": max_abs_dr})


# -- serialization ------------------------------------------------------------

def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    rec = {"step": ckpt.step, "config": ckpt.config,
           "params": params_to_record(ckpt.params),
           "ref_params": (params_to_record(ckpt.ref_params)
                          if ckpt.ref_params is not None else None)}
    Path(path).write_text(json.dumps(rec))


def load_checkpoint(path: str | Path) -> Checkpoint:
    rec = json.loads(Path(path).read_text())
    return Checkpoint(
        params=params_from_record(rec["params"]),
        ref_params=(params_from_record(rec["ref_params"])
                    if rec["ref_params"] is not None else None),
        step=rec["step"], config=rec["config"])


def save_log_csv(log: list[dict], path: str | Path) -> None:
    save_csv(log, path, LOG_FIELDS)


# -- flat key=value config files ----------------------------------------------

def parse_kv_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment. Values are coerced
    to int, float, or bool when they look like one; a key set twice is
    refused."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"line {lineno}: {key} is set twice")
        out[key] = _coerce(value)
    return out


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value
