"""Pareto-frontier extraction over evaluated design points."""

from __future__ import annotations

import operator
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

__all__ = ["pareto_front"]


def pareto_front(
    points: Sequence[T],
    objectives: Sequence[Callable[[T], float]],
    minimize: Sequence[bool] | None = None,
) -> list[T]:
    """Non-dominated subset of ``points`` under the given objectives.

    ``minimize[i]`` selects the direction of objective ``i`` (default: all
    minimized).  A point is dominated when another point is no worse in every
    objective and strictly better in at least one.  The front keeps the
    points' input order.

    The keyed points are sorted once, and each is checked only against the
    front found so far: a dominator sorts strictly before every point it
    dominates, and dominance is transitive, so a dominated point always
    meets a front member that dominates it.  A point with a NaN objective
    compares false both ways, so it can neither dominate nor be dominated;
    it joins the front without entering the sort, which NaN would break.
    """
    if not objectives:
        raise ValueError("need at least one objective")
    mins = list(minimize) if minimize is not None else [True] * len(objectives)
    if len(mins) != len(objectives):
        raise ValueError("minimize flags must match objectives")

    front: list[int] = []
    ranked: list[tuple[tuple[float, ...], int]] = []
    for index, pt in enumerate(points):
        key = tuple(obj(pt) if mn else -obj(pt) for obj, mn in zip(objectives, mins))
        if any(v != v for v in key):
            front.append(index)
        else:
            ranked.append((key, index))
    ranked.sort()
    kept: list[tuple[float, ...]] = []
    for key, index in ranked:
        for other in kept:
            # no worse everywhere and not equal: strictly better somewhere
            if other != key and all(map(operator.le, other, key)):
                break
        else:
            kept.append(key)
            front.append(index)
    front.sort()
    return [points[i] for i in front]
