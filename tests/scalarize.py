"""A 1 x 1 loss from any engine output, built from the engine's own ops.

The library has no sum op, as no model code needs one; the tests reduce an
output to a scalar by flattening it to one row and multiplying by a weight
column.  With fixed random weights the upstream gradient of every element is
distinct, so a finite-difference check sees a gradient that a plain sum
would cancel (a softmax row sums to one whatever its input).
"""

import numpy as np

from cirtrain import tensor as T


def scalarize(out: T.Tensor, weights=None) -> T.Tensor:
    """sum(out * weights) as `matmul(reshape(out, (1, n)), weights as n x 1)`; ones by default."""
    n = out.data.size
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    return T.matmul(T.reshape(out, (1, n)), T.Tensor(w.reshape(n, 1)))
