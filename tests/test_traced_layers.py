"""The layers the benchmark's traced run wraps exist where it looks for them.

`perfbench/spans.py` replaces each layer function by a timing wrapper,
found by module path and name; a refactor that moves or renames one makes
`perfbench/run.py --trace 1` fail.  The tables are read from that file,
not copied.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TABLES = _spans()
_LAYERS = {**_TABLES.COARSE, **_TABLES.ELEMENT}


@pytest.mark.parametrize("layer", sorted(_LAYERS))
def test_traced_layer_resolves_to_a_callable(layer):
    module_name, attr = _LAYERS[layer]
    assert callable(getattr(importlib.import_module(module_name), attr, None)), layer
