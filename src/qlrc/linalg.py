"""Exact Gaussian elimination over a Field.

Matrices are plain lists of lists of field elements.  Each function turns
its rows into lists of integer encodings once, eliminates on those with the
field's integer operations, and wraps only what it returns.
"""

from __future__ import annotations

from .errors import InputError
from .field import FieldElement


def dot(u: list[FieldElement], v: list[FieldElement]) -> FieldElement:
    if len(u) != len(v):
        raise InputError(f"inner product of lengths {len(u)} and {len(v)}")
    field = u[0].field
    return FieldElement(field, field.dot(field.ints(u), field.ints(v)))


def _rref_ints(field, mat: list[list[int]]) -> list[int]:
    """Row-reduce the integer rows of mat in place; returns the pivot columns."""
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


def _field_of(rows):
    """The field of the first entry, or None when the rows hold no entry."""
    return next((x.field for row in rows for x in row), None)


def rref(rows: list[list[FieldElement]]) -> tuple[list[list[FieldElement]], list[int]]:
    """Reduced row echelon form (a copy) and the pivot column indices."""
    field = _field_of(rows)
    if field is None:
        return [list(r) for r in rows], []
    mat = [field.ints(row) for row in rows]
    pivots = _rref_ints(field, mat)
    return [field.from_ints(row) for row in mat], pivots


def rank(rows: list[list[FieldElement]]) -> int:
    field = _field_of(rows)
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
