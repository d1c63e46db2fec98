"""Every test starts with the package's per-process memos empty.

The memos (`functools.lru_cache`s in `liealg`, `rationalfn`, `curve`,
`deformation` and `gaudin`: the algebra models, framings, Gram matrices,
point weights of the theta majorants, scalar columns of Theta, chart bases,
pairing forms, model shapes with their chart echelons, compiled projections
and compiled commutator tests) keep what depends on the group, the points,
the framing, the Gram matrix, the window and the matrix size alone.  A test
that patches a function they call (`laurent_row` in `rationalfn`, `curve` or
`deformation`, `rationalfn.comb`, `FramingSpec.__post_init__`) must see it
called, and a result computed under a patch must not reach a later test.  A
model's copy of the Gram matrix (`FramedHiggsModel._gram`) is its own, not a
memo: a test that faults it, through `FramedHiggsModel.__post_init__`,
faults that model alone, and the model's shape, looked up after the fault,
is that model's own too.
"""

import sys

import pytest

import framedhiggs  # noqa: F401  (loads every module whose memos are cleared)


def clear_memos() -> None:
    """Empty every `lru_cache` of every loaded `framedhiggs` module."""
    for name, module in list(sys.modules.items()):
        if name == "framedhiggs" or name.startswith("framedhiggs."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def _cold_memos():
    clear_memos()
