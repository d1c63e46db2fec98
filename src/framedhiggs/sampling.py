"""Seed-deterministic random rational data for models and tests.

Numerators and denominators are bounded by a configured height so exact
arithmetic stays fast and runs are reproducible byte for byte.  The draws
are those of ``rng.randint``, read straight through ``rng.getrandbits``
with `randint`'s own rejection (`_draw`).  Residues are drawn as integers:
each random coefficient p / q is kept as its integer pair, the coefficients
of one element over the lcm of their q, and the element is summed from the
integer support of the basis or of the subspace it is drawn from
(`AlgebraModel.integer_support`; a framing keeps that of its h_x^perp,
`FramingSpec.perp_support`) into its integer form
(`AlgebraElement.integer_form`), with no Fraction; a balancing residue is the
negated sum of the others, added in integers.  The Fraction matrix of a
residue is built only when it is first read.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from .curve import MarkedCurve
from .deformation import FramedHiggsModel
from .exactlinalg import frac
from .liealg import AlgebraElement, AlgebraModel, algebra_model, framing_specs, trace_form


def _draw(rng: random.Random, count: int, height: int) -> tuple[int, list[int]]:
    """count random fractions p / q, |p| <= height and 1 <= q <= height, as
    their integer numerators over the lcm of the q.

    The values, and the bits of rng they consume, are those of
    rng.randint(-height, height) and then rng.randint(1, height) each:
    `randint`'s own draws for a `random.Random`, read here through
    `getrandbits` as its `_randbelow_with_getrandbits` reads them, a value
    below w from k = w.bit_length() bits, redrawn while it is w or more."""
    if count and height < 1:    # randint(1, height) would raise
        raise ValueError(f"height must be at least 1, got {height}")
    bits, width = rng.getrandbits, 2 * height + 1
    kp, kq = width.bit_length(), height.bit_length()
    ps, qs = [], []
    for _ in range(count):
        p = bits(kp)
        while p >= width:
            p = bits(kp)
        q = bits(kq)
        while q >= height:
            q = bits(kq)
        ps.append(p - height)
        qs.append(q + 1)
    den = lcm(*qs)
    return den, [p * (den // q) for p, q in zip(ps, qs)]


def _draw_element(model: AlgebraModel, rng: random.Random, height: int,
                  support: tuple[int, list] | None) -> AlgebraElement:
    """One random coefficient per image of the integer support, by default
    one per basis element, and their combination."""
    den, coeffs = _draw(rng, model.group.dim if support is None else len(support[1]), height)
    return model.from_integer_coords(den, coeffs, support)


def random_algebra_element(model: AlgebraModel, rng: random.Random, height: int = 10,
                           subspace: Sequence[Sequence[Fraction]] | None = None) -> AlgebraElement:
    """Random element, optionally inside the span of given coordinate vectors:
    a random rational coordinate per basis element, or coefficient per vector."""
    return _draw_element(model, rng, height,
                         None if subspace is None else model.integer_support(subspace))


def random_residue_tuple(model: AlgebraModel, rng: random.Random, n: int,
                         height: int = 10,
                         subspaces: Sequence[Sequence[Sequence[Fraction]]] | None = None,
                         zero_sum: bool = True) -> list[AlgebraElement]:
    """n random residues, the last balancing the sum to zero when requested."""
    supports: dict[int, tuple] = {}     # the integer support of each subspace object
    if subspaces is not None:
        for sub in subspaces:
            if sub is not None and id(sub) not in supports:
                supports[id(sub)] = model.integer_support(sub)
    return _residue_tuple(model, rng, n, height,
                          None if subspaces is None else
                          [None if sub is None else supports[id(sub)] for sub in subspaces],
                          zero_sum)


def _residue_tuple(model: AlgebraModel, rng: random.Random, n: int, height: int,
                   supports: Sequence[tuple[int, list] | None] | None,
                   zero_sum: bool = True) -> list[AlgebraElement]:
    """`random_residue_tuple` with the subspaces given by their integer
    supports, None for the whole algebra."""
    count = n - 1 if zero_sum else n
    out = [_draw_element(model, rng, height, None if supports is None else supports[i])
           for i in range(count)]
    if zero_sum:
        out.append(-sum(out[1:], out[0]) if out else model.zero())
    return out


def seeded_model(group: str | AlgebraModel, points: Sequence, framing, seed: int,
                 height: int = 10) -> FramedHiggsModel:
    """Reproducible random framed model: residues drawn from each point's
    h_x^perp (the framing's `perp_support`, kept with the framing), the last
    one balancing the sum to zero.

    group: a group id, or the AlgebraModel of one.  framing: a selector, read
    by `liealg.framing_specs`; the balancing residue must itself be
    framing-compatible, which holds whenever the framing type is uniform.
    """
    rng = random.Random(seed)
    algebra = group if isinstance(group, AlgebraModel) else algebra_model(group)
    form = trace_form(algebra.group.group_id)
    pts = tuple(map(frac, points))
    framings = framing_specs(algebra, form, framing, len(pts))
    residues = _residue_tuple(algebra, rng, len(pts), height,
                              [fr.perp_support for fr in framings])
    return FramedHiggsModel(algebra, form, MarkedCurve(0, pts), framings, tuple(residues))
