"""Idempotent semigroups and aggregation.

Values are combined with an associative, commutative, idempotent binary
operation, so covering a point twice never changes an answer.  Three
semigroups ship: real max, bitwise-or on 64-bit masks, and id-set union.
The id-set semigroup is the verification instrument: combining the id-sets
of a correct cover reproduces exactly the ids inside the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .errors import EmptyAggregate

__all__ = [
    "Semigroup",
    "MAX_REAL",
    "BIT_OR64",
    "ID_SET",
    "SEMIGROUPS",
    "semigroup_by_name",
    "combine_all",
    "fold_values",
    "idset_value",
    "canonical_weights",
    "stored_value",
    "singleton_value",
]


@dataclass(frozen=True)
class Semigroup:
    """A named combine operation; must be associative, commutative, idempotent."""

    name: str
    combine: Callable[[Any, Any], Any]
    # equality on values (id-sets are arrays, == alone won't do)
    equal: Callable[[Any, Any], bool]


def idset_value(ids: Iterable[int]) -> np.ndarray:
    """Canonical id-set value: sorted unique int64 array."""
    return np.unique(np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64))


def _idset_combine(a, b) -> np.ndarray:
    return np.union1d(
        a if isinstance(a, np.ndarray) else np.asarray(sorted(a), dtype=np.int64),
        b if isinstance(b, np.ndarray) else np.asarray(sorted(b), dtype=np.int64),
    ).astype(np.int64)


def _idset_equal(a, b) -> bool:
    return bool(np.array_equal(idset_value(a), idset_value(b)))


MAX_REAL = Semigroup("max", combine=lambda a, b: a if a >= b else b, equal=lambda a, b: a == b)
BIT_OR64 = Semigroup(
    "or",
    combine=lambda a, b: (int(a) | int(b)) & 0xFFFFFFFFFFFFFFFF,
    equal=lambda a, b: int(a) == int(b),
)
ID_SET = Semigroup("idset", combine=_idset_combine, equal=_idset_equal)

SEMIGROUPS = {sg.name: sg for sg in (MAX_REAL, BIT_OR64, ID_SET)}


def semigroup_by_name(name: str) -> Semigroup:
    try:
        return SEMIGROUPS[name]
    except KeyError:
        raise KeyError(f"unknown semigroup {name!r}; choose from {sorted(SEMIGROUPS)}") from None


def combine_all(values: Iterable[Any], sg: Semigroup) -> Any:
    """Left-fold of ``sg.combine``; order-independent by commutativity.

    Raises EmptyAggregate on an empty sequence: there is no identity
    element, an empty range is reported as an absent value instead.
    """
    it = iter(values)
    try:
        acc = next(it)
    except StopIteration:
        raise EmptyAggregate("cannot combine an empty sequence") from None
    for v in it:
        acc = sg.combine(acc, v)
    return acc


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D int64 array by sort and neighbour inequality.

    numpy 2.x's ``np.unique`` takes a hash path for integers, several times
    slower than this at the sizes queries fold.
    """
    ids = np.sort(ids)
    keep = np.empty(ids.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def fold_values(values: Iterable[Any], sg: Semigroup) -> Any:
    """Same result as combine_all (associativity + commutativity), faster.

    Id-set folds concatenate once and deduplicate by one sort instead of
    pairwise unions; structures on hot paths call this, tests pin it
    against combine_all.
    """
    values = list(values)
    if sg.name == "idset" and values:
        return _sorted_unique(
            np.concatenate([np.atleast_1d(np.asarray(sorted(v) if isinstance(v, (set, frozenset)) else v, dtype=np.int64)) for v in values])
        )
    if sg.name == "max" and values:
        return max(values)
    return combine_all(values, sg)


def canonical_weights(sg: Semigroup, points, weights=None) -> np.ndarray:
    """Per-point weight array a structure stores: ids for idset, floats/masks otherwise."""
    if sg.name == "idset":
        return points.ids
    w = points.weights if weights is None else np.asarray(weights)
    if sg.name == "or":
        return w.astype(np.uint64)
    return w.astype(np.float64)


def stored_value(sg: Semigroup, members: np.ndarray, w: np.ndarray):
    """Value of a stored sum over member indices; None contributes nothing."""
    if members.size == 0:
        return None
    if sg.name == "idset":
        return np.sort(w[members]).astype(np.int64)
    if sg.name == "or":
        return int(np.bitwise_or.reduce(w[members]))
    return float(w[members].max())


_ndarray = np.ndarray


def singleton_value(sg: Semigroup, idx, w: np.ndarray):
    """Value of the singleton at index ``idx``.

    Given a 1-D index array instead, one value: the semigroup sum of those
    singletons, as ``stored_value`` builds a stored sum (an id-set also
    drops repeated indices), or None when the array is empty.  The cost
    model still counts one singleton per index.
    """
    if isinstance(idx, _ndarray):  # a global, not np.ndim: the oracle calls this once per point
        if sg.name == "idset" and idx.size:
            return _sorted_unique(w[idx].astype(np.int64))
        return stored_value(sg, idx, w)
    if sg.name == "idset":
        return np.asarray([w[idx]], dtype=np.int64)
    if sg.name == "or":
        return int(w[idx])
    return float(w[idx])
