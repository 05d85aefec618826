"""A standing robustness gate: seeded mutations of the corpus through the CLI.

About a thousand calls run in process through `cli.main`, each on a corpus
descriptor with a few leaves changed.  Every call must end in a verdict or
a report (exit 0 or 2, nothing on stderr) or in one named error (exit 1 and
a single `error:` line that is not `error: unexpected`): never a traceback.

Excluded until the searches have an element budget, because they are
unbounded today and not because they pass: a large radius on free groups,
huge HNN exponents, and groups of large rank at radius 2 or more.  So the
draw moves integers by at most 3, runs `enumerate` and `witness` at radius
at most 3, and at radius at most 1 on a group of more than four generators.
"""

import copy
import json
import random

from iccdec.cli import _enumerable_group, main
from iccdec.descriptors import DescriptorError, parse_descriptor_data
from iccdec.groups import GroupUsageError

SEED = 1313
LEAF_CALLS = 600
INTEGER_CALLS = 400
# what a replaced leaf becomes: a value of each JSON type, and a few
# integers the parser's bounds sit beside
REPLACEMENTS = [0, 1, -1, 2, 3, 65, 10**6, 2.5, "", "x", "a^2", None, True, False, [], {}, [1, 2]]


def _corpus(manifest, corpus_dir):
    return [
        (entry["file"], json.loads((corpus_dir / entry["file"]).read_text()))
        for section in sorted(manifest)
        for entry in manifest[section]
    ]


def _leaves(data, path=()):
    """The paths to every scalar and empty container below the root."""
    children = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in children:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data, path[-1]


def _mutate_leaves(rng, data):
    """data with 1-3 leaves replaced, deleted or duplicated."""
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, 3)):
        leaves = list(_leaves(data))
        if not leaves:
            break
        parent, key = _parent(data, rng.choice(leaves))
        action = rng.choice(("replace", "delete", "duplicate"))
        if action == "replace":
            parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[rng.choice(sorted(parent))] = copy.deepcopy(parent[key])
    return data


def _move_integers(rng, data):
    """data with 1-3 integer leaves moved by at most 3 (booleans and the
    schema version kept, so that most calls reach the decision or search)."""
    data = copy.deepcopy(data)
    integers = [
        path for path in _leaves(data)
        if type(_parent(data, path)[0][path[-1]]) is int and path != ("schema_version",)
    ]
    for path in rng.sample(integers, min(len(integers), rng.randint(1, 3))):
        parent, key = _parent(data, path)
        parent[key] += rng.choice((-3, -2, -1, 1, 2, 3))
    return data


def _generator_names(data):
    """The generator names of the descriptor's group, or [] when it has
    none to enumerate (a link, a parse error, a closed hyperbolic surface)."""
    try:
        group, _ = _enumerable_group(parse_descriptor_data(data))
        return group.generator_names()
    except (DescriptorError, GroupUsageError):
        return []


def _command(rng, kind, data):
    if kind in ("decide", "explain"):
        return [kind, "--json"] if rng.random() < 0.5 else [kind]
    names = _generator_names(data) or ["x"]
    radius = rng.randint(0 if kind == "witness" else 1, 3 if len(names) <= 4 else 1)
    words = [" ".join(rng.choices(names, k=rng.randint(1, 2))) for _ in range(rng.randint(1, 2))]
    json_flag = ["--json"] if rng.random() < 0.5 else []
    if kind == "enumerate":
        window = rng.randint(1, radius)
        return [kind, "--element", words[0], "--radius", str(radius), "--window", str(window)] + json_flag
    length = rng.randint(1, 6)
    return [kind, "--set", ",".join(words), "--length", str(length), "--radius", str(radius)] + json_flag


def _draw(manifest, corpus_dir):
    rng = random.Random(SEED)
    corpus = _corpus(manifest, corpus_dir)
    enumerable = [(name, data) for name, data in corpus if _generator_names(data)]
    calls = []
    for _ in range(LEAF_CALLS):
        name, data = rng.choice(corpus)
        calls.append((name, _mutate_leaves(rng, data), rng.choice(("decide", "explain"))))
    for _ in range(INTEGER_CALLS):
        kind = rng.choice(("decide", "explain", "enumerate", "witness"))
        name, data = rng.choice(corpus if kind in ("decide", "explain") else enumerable)
        calls.append((name, _move_integers(rng, data), kind))
    return [(name, data, _command(rng, kind, data)) for name, data, kind in calls]


def test_mutated_corpus_calls_end_in_an_answer_or_one_named_error(manifest, corpus_dir, tmp_path, capsys):
    path = tmp_path / "descriptor.json"
    outcomes = {0: 0, 1: 0, 2: 0}
    for name, data, command in _draw(manifest, corpus_dir):
        path.write_text(json.dumps(data))
        argv = [command[0], str(path), *command[1:]]
        code = main(argv)
        err = capsys.readouterr().err
        case = (name, argv, json.dumps(data), err)
        assert code in outcomes, case
        outcomes[code] += 1
        if code == 1:
            assert err.count("\n") == 1 and err.startswith("error: "), case
            assert not err.startswith("error: unexpected"), case
        else:
            assert err == "", case
    assert sum(outcomes.values()) == LEAF_CALLS + INTEGER_CALLS
    # the draw reaches every outcome
    assert all(outcomes.values()), outcomes
