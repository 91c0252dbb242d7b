"""Idempotent semigroups and aggregation.

Values are combined with an associative, commutative, idempotent binary
operation, so covering a point twice never changes an answer.  Three
semigroups ship: real max, bitwise-or on 64-bit masks, and id-set union.
The id-set semigroup is the verification instrument: combining the id-sets
of a correct cover reproduces exactly the ids inside the query.

Structures hand the fold weight arrays, not values.  A set of stored sums
gives one weight array, its stored weights for max and or and its members'
ids for id-sets, and ``reduce`` of that array is the sum of those sums: by
idempotence, a point held by two of them counts once either way.  A query
folds at most two parts, its sums' ``reduce`` and its singletons'.

All that depends on the semigroup lives on its ``Semigroup`` object, so
adding one is one ``Semigroup(...)`` definition.
"""

from __future__ import annotations

import functools
import operator
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
    "singleton_value",
]


@dataclass(frozen=True)
class Semigroup:
    """A named combine operation; must be associative, commutative, idempotent.

    ``combine`` and ``equal`` are the pairwise reference.  The rest work on
    arrays: ``weights(points, weights=None)`` is the per-point weight array
    a structure stores, ``single`` the value of one weight, ``reduce`` the
    sum of a non-empty weight array, and ``fold`` of a non-empty value list.
    ``op`` is the binary ufunc on weight arrays (``np.maximum``,
    ``np.bitwise_or``), or None when a value is not one array element
    (id-sets).  ``reduce`` of a numeric semigroup is built from it, and
    ``rangetree.box_sums`` stores one weight per box made with it; without
    it, ``box_sums`` stores no value and lists a box's members' weights
    when asked.  Either way ``reduce`` of what it gives is the boxes' sum.
    """

    name: str
    combine: Callable[[Any, Any], Any]
    # equality on values (id-sets are arrays, == alone won't do)
    equal: Callable[[Any, Any], bool]
    weights: Callable[..., np.ndarray]
    single: Callable[[Any], Any]
    reduce: Callable[[np.ndarray], Any]
    fold: Callable[[list], Any]
    op: np.ufunc | None


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


def _ids(v) -> np.ndarray:
    """An id-set value (array, set or frozenset) as a 1-D int64 array."""
    return np.atleast_1d(np.asarray(sorted(v) if isinstance(v, (set, frozenset)) else v, dtype=np.int64))


def _cast_weights(dtype):
    """Weights of a numeric semigroup: the given array, else the points' own, cast.

    One weight per point is required.  NaN is refused: it compares false
    with everything, so a max over it depends on the order of the operands.
    Floats cast to an integer ``dtype`` must be whole numbers in its range,
    which the cast keeps exactly (it would wrap -1.0 and truncate 0.5).
    """
    info = np.iinfo(dtype) if np.dtype(dtype).kind in "iu" else None

    def cast(points, weights=None):
        w = np.asarray(points.weights if weights is None else weights)
        if w.shape != (len(points),):
            raise ValueError(f"weights must have shape ({len(points)},), got {w.shape}")
        if w.dtype.kind == "f":
            if np.isnan(w).any():
                raise ValueError("weights must not be NaN")
            if info is not None and not np.all((w >= info.min) & (w < info.max + 1) & (np.floor(w) == w)):
                raise ValueError(f"{info.dtype} weights must be whole numbers in [{info.min}, {info.max + 1})")
        return w.astype(dtype)

    return cast


def _ufunc_semigroup(name, op, dtype, single, combine, equal, fold) -> "Semigroup":
    """A semigroup whose values are single weights combined by the ufunc ``op``."""
    return Semigroup(
        name,
        combine=combine,
        equal=equal,
        weights=_cast_weights(dtype),
        single=single,
        reduce=lambda a: single(op.reduce(a)),
        fold=fold,
        op=op,
    )


MAX_REAL = _ufunc_semigroup(
    "max",
    np.maximum,
    np.float64,
    single=float,
    combine=lambda a, b: a if a >= b else b,
    equal=lambda a, b: a == b,
    fold=max,
)
BIT_OR64 = _ufunc_semigroup(
    "or",
    np.bitwise_or,
    np.uint64,
    single=int,
    combine=lambda a, b: (int(a) | int(b)) & 0xFFFFFFFFFFFFFFFF,
    equal=lambda a, b: int(a) == int(b),
    fold=lambda values: functools.reduce(operator.or_, map(int, values)),
)
ID_SET = Semigroup(
    "idset",
    combine=lambda a, b: np.union1d(_ids(a), _ids(b)).astype(np.int64),
    equal=lambda a, b: bool(np.array_equal(np.unique(_ids(a)), np.unique(_ids(b)))),
    weights=lambda points, weights=None: points.ids,
    single=lambda x: np.asarray([x], dtype=np.int64),
    reduce=lambda a: _sorted_unique(np.asarray(a, dtype=np.int64)),
    # concatenate once and deduplicate by one sort instead of pairwise unions
    fold=lambda values: _sorted_unique(np.concatenate([_ids(v) for v in values])),
    op=None,  # an id-set is not one array element
)

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


def fold_values(values: Iterable[Any], sg: Semigroup) -> Any:
    """Same result as combine_all (associativity + commutativity), faster:
    structures on hot paths call this, tests pin it against combine_all."""
    values = list(values)
    if not values:
        raise EmptyAggregate("cannot combine an empty sequence")
    return sg.fold(values)


_ndarray = np.ndarray


def singleton_value(sg: Semigroup, idx, w: np.ndarray):
    """Value of the singleton at index ``idx``.

    Given a 1-D index array instead, one value: ``sg.reduce`` of those
    singletons' weights (an id-set also drops repeated indices), or None
    when the array is empty.  The cost model still counts one singleton
    per index.
    """
    if isinstance(idx, _ndarray):  # a global, not np.ndim: the oracle calls this once per point
        return sg.reduce(w[idx]) if idx.size else None
    return sg.single(w[idx])
