"""The integer residue sampler against the Fraction sampler of the oracles:
equal elements, each in its least-denominator integer form, from the same
rng calls; and its draws against those of ``rng.randint``."""

import random

import pytest

from framedhiggs.exactlinalg import over_common_denominator
from framedhiggs.liealg import AlgebraModel, flatten, framing_specs, trace_form
from framedhiggs.sampling import (_draw, random_algebra_element, random_residue_tuple,
                                  seeded_model)
from oracles import fraction_algebra_element, fraction_residue_tuple, randint_draw

GROUPS = ["gl(2)", "gl(3)", "sl(2)", "sl(3)", "sp(4)", "so(4)", "so(5)"]


def _assert_same(got, want):
    assert list(got) == list(want)
    for el, ref in zip(got, want):
        assert el.matrix == ref.matrix
        den, nums = over_common_denominator(flatten(ref.matrix))
        assert el.integer_form == (den, tuple(nums))


def _subspaces(model):
    form = trace_form(model.group.group_id)
    return {"none": None,
            **{name: framing_specs(model, form, name, 1)[0].perp_coords
               for name in ("trivial", "torus")}}


@pytest.mark.parametrize("gid", GROUPS)
def test_integer_residue_tuples_match_the_fraction_sampler(gid):
    model = AlgebraModel(gid)
    for sub in _subspaces(model).values():
        for zero_sum in (True, False):
            for height in (1, 4, 10):
                for seed in range(30):
                    n = 1 + seed % 4
                    subs = None if sub is None else [sub] * n
                    rng, oracle_rng = random.Random(seed), random.Random(seed)
                    _assert_same(random_residue_tuple(model, rng, n, height, subs, zero_sum),
                                 fraction_residue_tuple(model, oracle_rng, n, height, subs,
                                                        zero_sum))
                    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("gid", GROUPS)
def test_integer_elements_and_seeded_models_match_the_fraction_sampler(gid):
    model = AlgebraModel(gid)
    for sub in _subspaces(model).values():
        rng, oracle_rng = random.Random(5), random.Random(5)
        _assert_same([random_algebra_element(model, rng, 7, sub) for _ in range(10)],
                     [fraction_algebra_element(model, oracle_rng, 7, sub) for _ in range(10)])
        assert rng.random() == oracle_rng.random()
    points = [1, 2, -3, "1/2"]
    for framing, sub in _subspaces(model).items():
        if sub is not None:
            for seed in range(5):
                _assert_same(seeded_model(model, points, framing, seed, 4).residues,
                             fraction_residue_tuple(model, random.Random(seed), 4, 4, [sub] * 4))


@pytest.mark.parametrize("height", [1, 2, 10, 1000, 2 ** 40 + 1])
def test_direct_draws_equal_randint_and_leave_the_same_state(height):
    # the rejection of randint's _randbelow_with_getrandbits, at heights
    # whose 2h + 1 and h lie just above (1, 2, 2^40 + 1), inside (10) and
    # near the middle (1000) of a power of two
    for count in (0, 1, 8, 15):
        for seed in range(50):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            assert _draw(rng, count, height) == randint_draw(oracle_rng, count, height)
            assert rng.getstate() == oracle_rng.getstate()


def test_a_draw_below_height_one_raises_as_randint_does():
    with pytest.raises(ValueError):
        randint_draw(random.Random(0), 1, 0)
    with pytest.raises(ValueError):
        _draw(random.Random(0), 1, 0)
    assert _draw(random.Random(0), 0, 0) == randint_draw(random.Random(0), 0, 0) == (1, [])
