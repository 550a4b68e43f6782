"""Symbol-group actions: trivial, cyclic shift, and Frobenius (affine maps).

A group is its table of symbol maps, ``symbol_maps``; orbit tables and
``develop`` derive from it.  The cyclic group acts by addition mod v,
even when v is a prime power; the Frobenius group x -> a*x + b (a != 0) acts
through finite-field arithmetic and so requires a prime-power v.
"""

from __future__ import annotations

import enum
import itertools
import math
from functools import lru_cache

import numpy as np

# Irreducible moduli, as coefficient lists [c0, c1, ..., 1] of
# c0 + c1*x + ... + x^e, kept because they differ from the first one that
# ``field_for`` finds by search.  Any monic irreducible gives an isomorphic
# field; fixing one makes outputs reproducible.
_IRREDUCIBLE = {
    8: [1, 1, 0, 1],         # x^3 + x + 1 over GF(2)
    16: [1, 1, 0, 0, 1],     # x^4 + x + 1 over GF(2)
    25: [3, 0, 1],           # x^2 + 3 over GF(5)
    27: [1, 2, 0, 1],        # x^3 + 2x + 1 over GF(3)
}


class GroupKind(enum.Enum):
    TRIVIAL = "trivial"
    CYCLIC = "cyclic"
    FROBENIUS = "frobenius"

    def shape(self, t: int, v: int) -> tuple[int, int, int]:
        """(order |G|, full orbits per column t-set, constant rows).

        Frobenius short orbits are the v constant tuples, covered by the v
        constant rows that ``develop`` appends.
        """
        if self is GroupKind.TRIVIAL:
            return 1, v**t, 0
        if self is GroupKind.CYCLIC:
            return v, v ** (t - 1), 0
        if prime_power(v) is None:
            raise ValueError(f"Frobenius group requires a prime-power v, got {v}")
        return v * (v - 1), (v ** (t - 1) - 1) // (v - 1), v


def prime_power(v: int):
    """Return (p, e) with v == p**e and p prime, or None."""
    if v < 2:
        return None
    p = next((d for d in range(2, math.isqrt(v) + 1) if v % d == 0), v)
    e = 0
    while v % p == 0:
        v, e = v // p, e + 1
    return (p, e) if v == 1 else None


def _mul(p: int, e: int, modulus, a, b):
    """Product in GF(p^e) of the symbol arrays a and b: symbol s stands for
    the polynomial whose coefficients are the base-p digits of s, and the
    product is reduced by the monic ``modulus`` [c0, ..., c_(e-1), 1]."""
    da = [a // p**i % p for i in range(e)]
    db = [b // p**i % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, j in itertools.product(range(e), repeat=2):
        prod[i + j] += da[i] * db[j]
    for i in range(2 * e - 2, e - 1, -1):
        for j in range(e):
            prod[i - e + j] -= prod[i] % p * modulus[j]
    return sum(prod[i] % p * p**i for i in range(e))


@lru_cache(maxsize=None)
def field_for(v: int) -> tuple[np.ndarray, np.ndarray]:
    """The (add, mul) lookup tables of GF(v), as v x v int64 arrays."""
    pe = prime_power(v)
    if pe is None:
        raise ValueError(f"{v} is not a prime power")
    p, e = pe
    x = np.arange(v, dtype=np.int64)
    # Off the table, the first monic modulus in lexicographic order of
    # (c0, ..., c_(e-1)) with no zero divisor of degree <= e/2, that is, the
    # first irreducible one.
    low = x[1 : p ** (e // 2 + 1), None]
    modulus = _IRREDUCIBLE.get(v) or next(
        [*tail, 1] for tail in itertools.product(range(p), repeat=e)
        if _mul(p, e, [*tail, 1], low, x[1:]).all())
    add = sum((x[:, None] // p**i + x // p**i) % p * p**i for i in range(e))
    return add, _mul(p, e, modulus, x[:, None], x)


def symbol_maps(group: GroupKind, v: int) -> np.ndarray:
    """The group as a |G| x v table: row g sends symbol s to ``maps[g, s]``.

    Row 0 is the identity, and rows follow ``develop``'s block order: cyclic
    row b is x -> x + b mod v, Frobenius row (a-1)*v + b is x -> a*x + b.
    """
    x = np.arange(v, dtype=np.int64)
    if group is GroupKind.TRIVIAL:
        return x[None, :]
    if group is GroupKind.CYCLIC:
        return (x[None, :] + x[:, None]) % v
    add, mul = field_for(v)
    return add[mul[1:, None, :], x[:, None]].reshape(-1, v)


def develop(array: np.ndarray, group: GroupKind, v: int) -> np.ndarray:
    """Expand every row by the group action.

    One block of images per group element, in ``symbol_maps`` row order
    (identity first), then the constant rows that cover the short orbits.
    """
    array = np.asarray(array)
    _, _, constant_rows = group.shape(2, v)  # constant rows do not depend on t
    const = np.repeat(np.arange(constant_rows)[:, None], array.shape[1], axis=1)
    # One block per map: a single |G| x n x k image has the same traced peak
    # but raises peak RSS (81 -> 95 MB over three passes of perfbench's scan specs).
    return np.concatenate([m[array] for m in symbol_maps(group, v)] + [const])


class OrbitTable:
    """Orbit bookkeeping for one (t, v, group): tuple rank <-> orbit index.

    Tuple ranks are mixed-radix big-endian (first column most significant);
    row r of ``tuples`` is the symbol tuple of rank r.
    ``orbit_of[rank]`` gives the orbit index, or -1 for members of a short
    orbit (Frobenius only).  Orbit indices follow the rank order of their
    canonical representatives.
    """

    def __init__(self, t: int, v: int, group: GroupKind):
        self.radix = v ** np.arange(t - 1, -1, -1, dtype=np.int64)
        order, _, constant_rows = group.shape(t, v)
        self.tuples = tuples = np.indices((v,) * t).reshape(t, -1).T
        # An orbit's canonical rank is the least rank among its members.
        canon = np.full(len(tuples), v**t, dtype=np.int64)
        for m in symbol_maps(group, v):
            np.minimum(canon, m[tuples] @ self.radix, out=canon)
        if constant_rows:
            canon[(tuples == tuples[:, :1]).all(axis=1)] = -1
        self.rep_rank = np.unique(canon[canon >= 0])
        self.n_orbits = len(self.rep_rank)
        self.orbit_of = np.where(canon >= 0, np.searchsorted(self.rep_rank, canon), -1)
        by_orbit = np.argsort(self.orbit_of, kind="stable")
        full = by_orbit[np.count_nonzero(canon < 0):]
        self.members = list(full.reshape(self.n_orbits, order))

    def unrank(self, rank: int) -> tuple:
        return tuple(self.tuples[rank].tolist())

    def rep_symbols(self, orbit: int) -> tuple:
        return self.unrank(int(self.rep_rank[orbit]))


@lru_cache(maxsize=None)
def orbit_table(t: int, v: int, group: GroupKind) -> OrbitTable:
    return OrbitTable(t, v, group)
