"""Sparse term arithmetic shared by the package's algebras.

An element of each algebra (Grassmann elements, which also model
polynomial forms and sections; graded polynomials; cohomology-ring
elements) is a dict from a monomial key to an exact coefficient, a
Fraction or a GaussianRational.  The functions here build such dicts and
never store a zero coefficient, so every dict they return is clean.  What
a key means, and how two keys multiply, stays with the algebra that owns
it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

Terms = Dict[Hashable, object]
Combine = Callable[[object, object], Optional[Tuple[Hashable, int]]]


def accumulate(out: Terms, key: Hashable, c) -> None:
    """Add c into out[key], dropping the key when the sum is zero."""
    old = out.get(key)
    if old is not None:
        c = old + c
    if c:
        out[key] = c
    elif old is not None:
        del out[key]


def add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for key, c in b.items():
        accumulate(out, key, c)
    return out


def negate(a: Terms) -> Terms:
    return {key: -c for key, c in a.items()}


def scale(a: Terms, c) -> Terms:
    out = {}
    for key, v in a.items():
        v = v * c
        if v:
            out[key] = v
    return out


def product(a: Iterable[Tuple[object, object]], b: Iterable[Tuple[object, object]],
            combine: Combine) -> Terms:
    """Bilinear product of two term lists of (key, coefficient) pairs; b is
    iterated once per term of a.  combine(ka, kb) returns the key of the
    product monomial and its sign (+1 or -1), or None when it vanishes.
    Work that depends on one operand only belongs in its keys, not in
    combine, which runs once per pair."""
    out: Terms = {}
    for ka, ca in a:
        for kb, cb in b:
            hit = combine(ka, kb)
            if hit is None:
                continue
            key, sign = hit
            accumulate(out, key, ca * cb if sign > 0 else -(ca * cb))
    return out


def merge_signed(a: tuple, b: tuple) -> Optional[Tuple[tuple, int]]:
    """Merge two sorted tuples of anticommuting labels.  Returns the sorted
    union and the sign of the permutation that sorts a + b, or None when a
    label repeats (the product is then zero)."""
    if not a:
        return b, 1
    if not b:
        return a, 1
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i labels of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def nilpotent_series(x, one, coefficient: Callable[[int], object], limit: int):
    """sum_j coefficient(j) x^j for a nilpotent ring element x (anything with
    *, + and is_zero), summed until the power vanishes.  Raises ValueError
    when x^(limit + 1) is still nonzero."""
    acc = power = one
    for j in range(1, limit + 2):
        power = power * x
        if power.is_zero():
            return acc
        acc = acc + power * coefficient(j)
    raise ValueError("series argument is not nilpotent")


def exp_nilpotent(x, one, limit: int):
    """exp(x) = sum_j x^j / j!, as a nilpotent series."""
    return nilpotent_series(x, one, lambda j: Fraction(1, math.factorial(j)), limit)
