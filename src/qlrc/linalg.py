"""Exact Gaussian elimination over a Field.

_rref_ints row-reduces rows of integer encodings in place with the field's
integer operations; the witness search runs it on an instance's rows (the
certification gate in construct.py needs no elimination).  rank, dot and
solve_in_span take lists of field elements, turn them into integer
encodings once, and wrap only what they return.
"""

from __future__ import annotations

from .errors import InputError
from .field import FieldElement


def dot(u: list[FieldElement], v: list[FieldElement]) -> FieldElement:
    if len(u) != len(v):
        raise InputError(f"inner product of lengths {len(u)} and {len(v)}")
    field = u[0].field
    return FieldElement(field, field.dot(field.ints(u), field.ints(v)))


def _rref_ints(field, mat: list) -> list[int]:
    """Row-reduce the integer rows (lists or tuples) of mat in place, each
    changed row written as a new list; returns the pivot columns."""
    if not mat:
        return []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        lead = field.inv(mat[r][c])
        mat[r] = field.axpy([0] * len(mat[r]), lead, mat[r])
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = field.axpy(mat[i], field.neg(mat[i][c]), mat[r])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return pivots


def rank(rows: list[list[FieldElement]]) -> int:
    field = next((x.field for row in rows for x in row), None)
    if field is None:
        return 0
    return len(_rref_ints(field, [field.ints(row) for row in rows]))


def solve_in_span(vectors: list[list[FieldElement]], target: list[FieldElement]):
    """Coefficients expressing target as a combination of the vectors.

    Returns the coefficient list, or None when target is outside the span.
    The result is verified by direct substitution before it is returned.
    """
    if not vectors:
        return None
    field = target[0].field
    vecs = [field.ints(vec) for vec in vectors]
    tgt = field.ints(target)
    # augmented system: columns are the vectors, last column the target
    aug = [[vec[i] for vec in vecs] + [tgt[i]] for i in range(len(tgt))]
    pivots = _rref_ints(field, aug)
    k = len(vecs)
    if k in pivots:
        return None  # inconsistent
    coeffs = [0] * k
    for row, c in zip(aug, pivots):
        coeffs[c] = row[k]
    # exact re-substitution check
    for i, t in enumerate(tgt):
        if field.dot(coeffs, [vec[i] for vec in vecs]) != t:
            return None
    return field.from_ints(coeffs)
