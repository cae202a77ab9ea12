"""Two-stage training: multi-task pretraining and step-level value
preference optimization.

Pretraining minimizes mean negative sequence log-probability over correct
solutions plus a small mean squared error pulling the value head toward
frozen search targets (reward at terminals, Q inside the tree).

The preference stage scores each winner/loser pair two ways: an implicit
reward difference from policy log-ratios against a frozen reference
policy, and an explicit difference of value-head outputs at the two end
states. Its loss combines a sigmoid preference term on the implicit
difference, a hinge pushing the explicit difference past a margin, a
squared coupling term tying the implicit difference to the explicit one
(the explicit side enters as a constant: the value head receives no
gradient from it), plus the reweighted pretraining terms. In the
training loop those carried terms range over the solutions and value
targets of the stage's TrainData. The pipeline and the staged CLI build
the preference stage's TrainData from pairs alone, so there both carried
terms are exactly zero and `w_sft` and `w_mse` have no effect
(ROADMAP.md, open item 1).

Every loss is coefficient arithmetic over one call per batch of the
model's batched prefix kernel, `Model.seq_logprob_grad`: it returns each
prefix's log-probability and end-state value, and the gradient of
sum_i a_i * logprob_i + b_i * value_i for per-prefix coefficients that
the loss derives from them. Reference log-probabilities are computed
once per stage. The optimizer is plain mini-batch gradient descent.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import Solution
from .model import (
    Gradients, Model, PolicyValueParams, params_from_record, params_to_record,
    spawn_generator,
)
from .pairs import PreferencePair, ValueTarget

_TRAIN_STREAM = 0x7A1

PRETRAIN = "pretrain"
SVPO = "svpo"

LOG_FIELDS = ["step", "stage", "dpo", "margin", "reg", "sft", "mse", "total",
              "grad_norm", "max_abs_dr"]


class EmptyBatch(Exception):
    pass


class MissingCheckpoint(Exception):
    pass


@dataclass
class TrainConfig:
    stage: str = SVPO
    beta: float = 0.1
    gamma: float = 0.5
    w_margin: float = 0.25
    w_mse: float = 0.25
    w_reg: float = 0.001
    w_sft: float = 5.0
    lr: float = 0.05
    batch_size: int = 32
    epochs: int = 4

    def __post_init__(self):
        if self.stage not in (PRETRAIN, SVPO):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if min(self.w_margin, self.w_mse, self.w_reg, self.w_sft) < 0:
            raise ValueError("loss weights must be >= 0")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


def default_pretrain_config(**overrides) -> TrainConfig:
    """Pretraining: imitation plus a lightly weighted value MSE."""
    base = dict(stage=PRETRAIN, w_sft=1.0, w_mse=0.01, w_margin=0.0,
                w_reg=0.0, lr=0.05, batch_size=32, epochs=8)
    base.update(overrides)
    return TrainConfig(**base)


def default_svpo_config(**overrides) -> TrainConfig:
    base = dict(stage=SVPO, epochs=4)
    base.update(overrides)
    return TrainConfig(**base)


@dataclass(frozen=True)
class LossBreakdown:
    """Unweighted term values; total carries the configured weights."""

    dpo: float = 0.0
    margin: float = 0.0
    reg: float = 0.0
    sft: float = 0.0
    mse: float = 0.0
    total: float = 0.0


def combine_total(config: TrainConfig, dpo: float, margin: float, reg: float,
                  sft: float, mse: float) -> float:
    """The weighted total; pretraining passes zero preference terms."""
    return (dpo + config.w_margin * margin + config.w_reg * reg
            + config.w_sft * sft + config.w_mse * mse)


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


def pair_prefixes(pairs: list[PreferencePair]):
    """(question ids, prefixes) of the distinct winner and loser prefixes
    of a pair list, and each pair's winner and loser index among them."""
    index: dict[tuple[int, tuple[int, ...]], int] = {}
    winners = [index.setdefault((p.question_id, p.winner), len(index))
               for p in pairs]
    losers = [index.setdefault((p.question_id, p.loser), len(index))
              for p in pairs]
    return ([qid for qid, _ in index], [steps for _, steps in index],
            np.array(winners, dtype=np.intp), np.array(losers, dtype=np.intp))


def pair_logprobs(model: Model, params: PolicyValueParams,
                  pairs: list[PreferencePair]) -> np.ndarray:
    """(len(pairs), 2) winner and loser prefix log-probs, PAIR_CHUNK pairs
    per kernel call."""
    out = np.empty((len(pairs), 2))
    for start in range(0, len(pairs), PAIR_CHUNK):
        qids, prefixes, w, l = pair_prefixes(pairs[start:start + PAIR_CHUNK])
        logprobs, _, _ = model.seq_logprob_grad(params, qids, prefixes)
        out[start:start + PAIR_CHUNK, 0] = logprobs[w]
        out[start:start + PAIR_CHUNK, 1] = logprobs[l]
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x), overflow-safe
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _dataset_prefixes(solutions: list[Solution], targets: list[ValueTarget]):
    """(question ids, prefixes): the solutions, then the value targets."""
    return ([s.question_id for s in solutions]
            + [t.question_id for t in targets],
            [s.steps for s in solutions] + [t.prefix for t in targets])


def _dataset_loss(config: TrainConfig, sol_logprobs: np.ndarray,
                  tgt_values: np.ndarray, targets: list[ValueTarget]):
    """Mean solution NLL and value-target squared error, and their weighted
    kernel coefficients (a, b) over the solutions, then the targets."""
    n_sol, n_tgt = len(sol_logprobs), len(tgt_values)
    err = tgt_values - np.array([t.target for t in targets], dtype=float)
    sft = float(-sol_logprobs.sum() / n_sol) if n_sol else 0.0
    mse = float((err * err).sum() / n_tgt) if n_tgt else 0.0
    a = np.zeros(n_sol + n_tgt)
    b = np.zeros(n_sol + n_tgt)
    if n_sol:
        a[:n_sol] = -config.w_sft / n_sol
    if n_tgt:
        b[n_sol:] = config.w_mse * 2.0 * err / n_tgt
    return sft, mse, a, b


# -- batch losses and gradients ----------------------------------------------

def svpo_batch_grad(model: Model, params: PolicyValueParams,
                    ref_logprobs: np.ndarray, batch: list[PreferencePair],
                    config: TrainConfig, solutions: list[Solution],
                    targets: list[ValueTarget]):
    """Mean loss terms and mean weighted gradient for one svpo step.

    The preference terms (dpo, margin, reg) come from the pair batch, the
    carried pretraining terms (sft, mse) from the solution and value-target
    batches; an empty dataset makes its term zero. `ref_logprobs` holds the
    batch's reference log-probs as pair_logprobs returns them.

    Also reports the largest |implicit difference| seen: the probability
    ratio bound never binds while this stays inside the value range.

    Every term folds into per-prefix coefficients of one kernel call over
    the distinct winner and loser prefixes plus the carried datasets. The
    coupling term's coefficient lands on the log-prob path only, so the
    value head stays structurally untouched by it."""
    if not batch:
        raise EmptyBatch("empty pair batch")
    qids, prefixes, w, l = pair_prefixes(batch)
    data_qids, data_prefixes = _dataset_prefixes(solutions, targets)
    n, n_pre, n_sol = len(batch), len(prefixes), len(solutions)
    terms: dict = {}

    def coef(logprobs, values):
        lp, v = logprobs[:n_pre], values[:n_pre]
        dr_pi = config.beta * ((lp[w] - ref_logprobs[:, 0])
                               - (lp[l] - ref_logprobs[:, 1]))
        dr_phi = v[w] - v[l]
        pi = config.beta * ((_sigmoid(dr_pi) - 1.0)
                            + config.w_reg * 2.0 * (dr_pi - dr_phi))
        hinge = np.where(dr_phi < config.gamma, -config.w_margin, 0.0)
        terms["sft"], terms["mse"], a_data, b_data = _dataset_loss(
            config, logprobs[n_pre:n_pre + n_sol], values[n_pre + n_sol:],
            targets)
        terms.update(
            dpo=float(_softplus(-dr_pi).sum() / n),
            margin=float(np.maximum(0.0, config.gamma - dr_phi).sum() / n),
            reg=float(((dr_pi - dr_phi) ** 2).sum() / n))
        terms["max_abs_dr"] = float(np.abs(dr_pi).max())
        a = np.zeros(n_pre)
        b = np.zeros(n_pre)
        np.add.at(a, w, pi / n)
        np.add.at(a, l, -pi / n)
        np.add.at(b, w, hinge / n)
        np.add.at(b, l, -hinge / n)
        return np.concatenate([a, a_data]), np.concatenate([b, b_data])

    _, _, grad = model.seq_logprob_grad(params, qids + data_qids,
                                        prefixes + data_prefixes, coef)
    max_abs_dr = terms.pop("max_abs_dr")
    breakdown = LossBreakdown(total=combine_total(config, **terms), **terms)
    return breakdown, grad, max_abs_dr


def pretrain_batch_grad(model: Model, params: PolicyValueParams,
                        solutions: list[Solution],
                        targets: list[ValueTarget], config: TrainConfig):
    """Mean solution NLL plus weighted mean squared value error, and its
    gradient, from one kernel call."""
    if not solutions and not targets:
        raise EmptyBatch("nothing to pretrain on")
    n_sol = len(solutions)
    terms: dict = {}

    def coef(logprobs, values):
        terms["sft"], terms["mse"], a, b = _dataset_loss(
            config, logprobs[:n_sol], values[n_sol:], targets)
        return a, b

    _, _, grad = model.seq_logprob_grad(
        params, *_dataset_prefixes(solutions, targets), coef)
    breakdown = LossBreakdown(total=combine_total(config, 0, 0, 0, **terms),
                              **terms)
    return breakdown, grad


# -- the loop -----------------------------------------------------------------

def _batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def _order(n: int, rng) -> np.ndarray:
    return rng.permutation(n) if n else np.array([], int)


def train_loop(model: Model, data: TrainData, config: TrainConfig,
               rng_seed: int, init: Checkpoint | None = None,
               log: list | None = None) -> list[Checkpoint]:
    """Run one stage; returns a checkpoint per epoch (last one is final).

    The svpo stage requires an `init` checkpoint (normally the pretrain
    result); its params become both the starting point and the frozen
    reference policy. Deterministic in (data, config, rng_seed, init).
    """
    svpo = config.stage == SVPO
    if svpo:
        if init is None:
            raise MissingCheckpoint("svpo stage needs a pretrain checkpoint")
        if not data.pairs:
            raise EmptyBatch("svpo stage needs preference pairs")
        params = init.params.copy()
        ref_params = init.params.copy()
        ref_logprobs = pair_logprobs(model, ref_params, data.pairs)
    else:
        if not data.solutions and not data.value_targets:
            raise EmptyBatch("pretrain stage needs solutions or targets")
        params = init.params.copy() if init else model.init_params(
            seed=rng_seed)
        ref_params = None

    checkpoints: list[Checkpoint] = []
    step = init.step if init else 0
    size = config.batch_size
    n_sol, n_tgt = len(data.solutions), len(data.value_targets)
    for epoch in range(config.epochs):
        rng = spawn_generator(_TRAIN_STREAM, rng_seed, epoch)
        # pair batches (preference stage only) set the epoch length there,
        # the larger dataset sets it in pretraining; the solution and
        # target datasets cycle alongside (permutations drawn in this order)
        pair_batches = _batches(len(data.pairs), size, rng) if svpo else []
        sol_order = _order(n_sol, rng)
        tgt_order = _order(n_tgt, rng)
        n_steps = len(pair_batches) if svpo else max(
            _ceil_div(n_sol, size), _ceil_div(n_tgt, size))
        for b in range(n_steps):
            sols = _cycle_slice(data.solutions, sol_order, b, size)
            tgts = _cycle_slice(data.value_targets, tgt_order, b, size)
            if svpo:
                idx = pair_batches[b]
                breakdown, grad, max_dr = svpo_batch_grad(
                    model, params, ref_logprobs[idx],
                    [data.pairs[i] for i in idx], config, sols, tgts)
            else:
                breakdown, grad = pretrain_batch_grad(model, params, sols,
                                                      tgts, config)
                max_dr = 0.0
            _apply(params, grad, config.lr)
            step += 1
            _log_row(log, step, config.stage, breakdown, grad, max_dr)
        checkpoints.append(Checkpoint(
            params=params.copy(),
            ref_params=ref_params.copy() if ref_params is not None else None,
            step=step, config=dict(vars(config))))
    return checkpoints


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _cycle_slice(items: list, order: np.ndarray, batch_index: int,
                 batch_size: int) -> list:
    # Both pretrain datasets advance in lockstep; the shorter one wraps.
    if len(items) == 0:
        return []
    start = batch_index * batch_size
    return [items[order[(start + i) % len(order)]] for i in range(batch_size)]


def _apply(params: PolicyValueParams, grad: Gradients, lr: float) -> None:
    params.w_shared -= lr * grad.w_shared
    params.w_policy -= lr * grad.w_policy
    params.w_value -= lr * grad.w_value


def _log_row(log, step: int, stage: str, breakdown: LossBreakdown,
             grad: Gradients, max_abs_dr: float) -> None:
    if log is None:
        return
    log.append({"step": step, "stage": stage, "dpo": breakdown.dpo,
                "margin": breakdown.margin, "reg": breakdown.reg,
                "sft": breakdown.sft, "mse": breakdown.mse,
                "total": breakdown.total, "grad_norm": grad.norm(),
                "max_abs_dr": max_abs_dr})


# -- serialization ------------------------------------------------------------

def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    rec = {"step": ckpt.step, "config": ckpt.config,
           "params": params_to_record(ckpt.params),
           "ref_params": (params_to_record(ckpt.ref_params)
                          if ckpt.ref_params is not None else None)}
    with open(path, "w") as fh:
        json.dump(rec, fh)


def load_checkpoint(path: str | Path) -> Checkpoint:
    with open(path) as fh:
        rec = json.load(fh)
    return Checkpoint(
        params=params_from_record(rec["params"]),
        ref_params=(params_from_record(rec["ref_params"])
                    if rec["ref_params"] is not None else None),
        step=rec["step"], config=rec["config"])


def save_log_csv(log: list[dict], path: str | Path) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_FIELDS)
        writer.writeheader()
        writer.writerows(log)


# -- flat key=value config files ----------------------------------------------

def parse_kv_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment. Values are coerced
    to int, float, or bool when they look like one."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
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
