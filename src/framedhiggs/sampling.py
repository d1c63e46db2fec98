"""Seed-deterministic random rational data for models and tests.

Numerators and denominators are bounded by a configured height so exact
arithmetic stays fast and runs are reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .curve import MarkedCurve
from .deformation import FramedHiggsModel
from .exactlinalg import frac
from .liealg import AlgebraElement, AlgebraModel, framing_specs, trace_form


def random_fraction(rng: random.Random, height: int = 10) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_algebra_element(model: AlgebraModel, rng: random.Random, height: int = 10,
                           subspace: Sequence[Sequence[Fraction]] | None = None) -> AlgebraElement:
    """Random element, optionally inside the span of given coordinate vectors."""
    if subspace is None:
        coords = [random_fraction(rng, height) for _ in range(model.group.dim)]
        return model.from_coords(coords)
    acc = [Fraction(0)] * model.group.dim
    for vec in subspace:
        c = random_fraction(rng, height)
        acc = [a + c * v for a, v in zip(acc, vec)]
    return model.from_coords(acc)


def random_residue_tuple(model: AlgebraModel, rng: random.Random, n: int,
                         height: int = 10,
                         subspaces: Sequence[Sequence[Sequence[Fraction]]] | None = None,
                         zero_sum: bool = True) -> list[AlgebraElement]:
    """n random residues, the last balancing the sum to zero when requested."""
    count = n - 1 if zero_sum else n
    out = [random_algebra_element(model, rng, height,
                                  None if subspaces is None else subspaces[i])
           for i in range(count)]
    if zero_sum:
        total = out[0] if out else model.zero()
        for el in out[1:]:
            total = total + el
        out.append(total.scale(-1))
    return out


def seeded_model(group: str | AlgebraModel, points: Sequence, framing, seed: int,
                 height: int = 10) -> FramedHiggsModel:
    """Reproducible random framed model: residues drawn from each point's
    h_x^perp, the last one balancing the sum to zero.

    group: a group id, or the AlgebraModel of one.  framing: a selector, read
    by `liealg.framing_specs`; the balancing residue must itself be
    framing-compatible, which holds whenever the framing type is uniform.
    """
    rng = random.Random(seed)
    algebra = group if isinstance(group, AlgebraModel) else AlgebraModel(group)
    form = trace_form(algebra.group.group_id)
    pts = tuple(map(frac, points))
    framings = framing_specs(algebra, form, framing, len(pts))
    residues = random_residue_tuple(algebra, rng, len(pts), height,
                                    [fr.perp_coords for fr in framings])
    return FramedHiggsModel(algebra, form, MarkedCurve(0, pts), framings, tuple(residues))
