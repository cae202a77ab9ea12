"""The exact bytes of every artifact format, written from hand-built
objects: separators, key order, float reprs, nulls, trailing newlines and
the CSV line ends."""
import numpy as np

from svpo.cli import _write_csv
from svpo.env import Question, Solution, save_dataset
from svpo.evaluate import summary_text
from svpo.mcts import Forest, SearchTree, save_forests
from svpo.model import PolicyValueParams
from svpo.pairs import (
    PreferencePair, ValueTarget, load_pairs, save_pairs, save_solutions,
    save_value_targets,
)
from svpo.records import save_jsonl
from svpo.train import LOG_FIELDS, Checkpoint, save_checkpoint, save_log_csv


def _forest() -> Forest:
    tree = SearchTree(question_id=7)
    root = tree.add_node(None, None, None, 1.0)
    root.N, root.Q, root.correct = 3, 0.1 + 0.2, True
    child = tree.add_node(0, 5, None, 0.25, terminal=True, reward=-1)
    child.N, child.Q = 2, -1.0
    return Forest(question_id=7, trees=[tree], labeled=True)


def test_every_artifact_writer_keeps_its_bytes(tmp_path):
    def written(name, write, items):
        write(items, tmp_path / name)
        return (tmp_path / name).read_bytes()

    assert written("questions.jsonl", save_dataset, [
        Question(7, 3, (4, 9), 11, "easy"),
        Question(8, -2, (), -2, "hard"),
    ]) == (
        b'{"id": 7, "spec": {"start": 3, "chain": [4, 9]}, "truth": 11, '
        b'"difficulty": "easy"}\n'
        b'{"id": 8, "spec": {"start": -2, "chain": []}, "truth": -2, '
        b'"difficulty": "hard"}\n')

    assert written("forests.jsonl", save_forests, [_forest()]) == (
        b'{"question_id": 7, "labeled": true, "trees": [{"nodes": ['
        b'{"id": 0, "parent": null, "action": null, "N": 3, '
        b'"Q": 0.30000000000000004, "prior": 1.0, "terminal": false, '
        b'"reward": null, "correct": true}, '
        b'{"id": 1, "parent": 0, "action": 5, "N": 2, "Q": -1.0, '
        b'"prior": 0.25, "terminal": true, "reward": -1, '
        b'"correct": false}]}]}\n')

    pairs = [PreferencePair(7, (1, 2), (1, 3), "sibling", 0.5, -1 / 3, 1,
                            tree=0),
             PreferencePair(8, (), (6,), "terminal", 1.0, -1.0, 0, tree=2)]
    assert written("pairs.jsonl", save_pairs, pairs) == (
        b'{"question_id": 7, "winner": [1, 2], "loser": [1, 3], '
        b'"kind": "sibling", "q_w": 0.5, "q_l": -0.3333333333333333, '
        b'"level": 1, "tree": 0}\n'
        b'{"question_id": 8, "winner": [], "loser": [6], '
        b'"kind": "terminal", "q_w": 1.0, "q_l": -1.0, "level": 0, '
        b'"tree": 2}\n')

    assert written("value_targets.jsonl", save_value_targets, [
        ValueTarget(7, (1, 2), 1e-05), ValueTarget(8, (), -0.0),
    ]) == (
        b'{"question_id": 7, "prefix": [1, 2], "target": 1e-05}\n'
        b'{"question_id": 8, "prefix": [], "target": -0.0}\n')

    assert written("solutions.jsonl", save_solutions, [
        Solution(7, (1, 2, 12), 11, True), Solution(8, (3,), None, False),
    ]) == (
        b'{"question_id": 7, "steps": [1, 2, 12], "predicted": 11, '
        b'"correct": true}\n'
        b'{"question_id": 8, "steps": [3], "predicted": null, '
        b'"correct": false}\n')

    params = PolicyValueParams(w_shared=np.array([[0.1, -0.5]]),
                               w_policy=np.array([[2.0], [1e-07]]),
                               w_value=np.array([0.0, 3.0]))
    params_bytes = (b'{"d": 1, "h": 2, "vocab": 1, "w_shared": [[0.1, -0.5]], '
                    b'"w_policy": [[2.0], [1e-07]], "w_value": [0.0, 3.0]}')
    config = {"lr": 0.05, "stage": "svpo"}
    config_bytes = b'"config": {"lr": 0.05, "stage": "svpo"}'
    assert written("ckpt_pretrain.json", save_checkpoint,
                   Checkpoint(params, None, 3, config)) == (
        b'{"step": 3, ' + config_bytes + b', "params": ' + params_bytes
        + b', "ref_params": null}')
    assert written("ckpt_svpo.json", save_checkpoint,
                   Checkpoint(params, params, 4, config)) == (
        b'{"step": 4, ' + config_bytes + b', "params": ' + params_bytes
        + b', "ref_params": ' + params_bytes + b'}')

    row = dict(zip(LOG_FIELDS, [1, "svpo", 0.6931471805599453, 1e-07, 2.5,
                                0.1, 3.3, 12.0, 0.1 + 0.2]))
    assert written("svpo_log.csv", save_log_csv, [row, row]) == (
        b"step,stage,dpo,margin,sft,mse,total,grad_norm,max_abs_dr\r\n"
        + b"1,svpo,0.6931471805599453,1e-07,2.5,0.1,3.3,12.0,"
        b"0.30000000000000004\r\n" * 2)

    assert written("inference_sbs_b3.jsonl", save_jsonl, [
        {"question_id": 7, "mode": "sbs", "b1": 3, "b2": 5, "steps": [1, 12],
         "predicted": 11, "truth": 11, "correct": True, "score": 0.75},
        {"question_id": 8, "mode": "greedy", "b1": None, "b2": None,
         "steps": [], "predicted": None, "truth": 4, "correct": False,
         "score": None},
    ]) == (
        b'{"question_id": 7, "mode": "sbs", "b1": 3, "b2": 5, '
        b'"steps": [1, 12], "predicted": 11, "truth": 11, "correct": true, '
        b'"score": 0.75}\n'
        b'{"question_id": 8, "mode": "greedy", "b1": null, "b2": null, '
        b'"steps": [], "predicted": null, "truth": 4, "correct": false, '
        b'"score": null}\n')

    _write_csv(tmp_path / "ablation.csv", [
        {"arm": "full", "seed": 0, "greedy": 0.25, "wr_heldout_explicit": None},
        {"arm": "sft", "seed": 1, "greedy": 1 / 3, "wr_heldout_explicit": 0.5},
    ])
    assert (tmp_path / "ablation.csv").read_bytes() == (
        b"arm,seed,greedy,wr_heldout_explicit\r\n"
        b"full,0,0.25,\r\n"
        b"sft,1,0.3333333333333333,0.5\r\n")
    _write_csv(tmp_path / "empty.csv", [])
    assert (tmp_path / "empty.csv").read_bytes() == b""

    assert summary_text({"b": [1, 0.5], "a": {"z": None, "y": True}}) == (
        '{\n  "a": {\n    "y": true,\n    "z": null\n  },\n'
        '  "b": [\n    1,\n    0.5\n  ]\n}\n')

    # readers skip blank and whitespace-only lines
    path = tmp_path / "pairs.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n" + lines[0] + "\n  \n" + lines[1] + "\n\n")
    assert load_pairs(path) == pairs
