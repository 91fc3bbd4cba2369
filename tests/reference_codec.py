"""Scalar reference implementation of the Reed-Solomon and nested codec.

Every operation goes through the scalar ``Field`` methods: Horner
evaluation, Gauss-Jordan elimination on lists and one interpolation per
call.  It is slow and kept only as the oracle that the vectorized codec
in ``tandemnet.coding`` is tested against.
"""

from tandemnet.coding import CorruptCodewordError, InsufficientDataError


def poly_eval(field, coeffs, x):
    """Horner evaluation of a low-degree-first coefficient vector."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def solve_square(field, A, b):
    """Gaussian elimination over GF(q); A is modified in place."""
    n = len(b)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise CorruptCodewordError("singular interpolation system")
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        inv = field.inv(A[col][col])
        A[col] = [field.mul(inv, v) for v in A[col]]
        b[col] = field.mul(inv, b[col])
        for r in range(n):
            if r != col and A[r][col] != 0:
                factor = A[r][col]
                A[r] = [field.sub(v, field.mul(factor, w)) for v, w in zip(A[r], A[col])]
                b[r] = field.sub(b[r], field.mul(factor, b[col]))
    return b


def rs_encode(field, coeffs, eval_set):
    if len(set(eval_set)) != len(eval_set):
        raise ValueError("evaluation points must be pairwise distinct")
    return [poly_eval(field, coeffs, x) for x in eval_set]


def rs_decode(field, values, eval_set, dim):
    if len(values) != len(eval_set):
        raise ValueError("values and eval_set must have equal length")
    if len(set(eval_set)) != len(eval_set):
        raise ValueError("evaluation points must be pairwise distinct")
    if dim == 0:
        if any(v not in (0, None) for v in values):
            raise CorruptCodewordError("nonzero values for a zero-dimension code")
        return []
    survivors = [(x, v) for x, v in zip(eval_set, values) if v is not None]
    if len(survivors) < dim:
        raise InsufficientDataError(f"need {dim} survivors, have {len(survivors)}")
    pts = survivors[:dim]
    A = [[field.pow(x, e) for e in range(dim)] for x, _ in pts]
    coeffs = solve_square(field, A, [v for _, v in pts])
    for x, v in survivors[dim:]:
        if poly_eval(field, coeffs, x) != v:
            raise CorruptCodewordError(
                f"survivor at point {x} disagrees with interpolated polynomial"
            )
    return coeffs


def nested_decode(field, values, eval_set, known_coeffs, known_shift,
                  expected_dim, split_at):
    shifted = [0] * known_shift + list(known_coeffs)
    cleaned = [
        None if v is None else field.sub(v, poly_eval(field, shifted, x))
        for v, x in zip(values, eval_set)
    ]
    coeffs = rs_decode(field, cleaned, eval_set, expected_dim)
    return coeffs[:split_at], coeffs[split_at:]
