"""A tour of the reverse-mode autodiff core.

Inside a Tape context the tape records each primitive, so a single
backward pass can return gradients for the trainable leaves.  Outside
one, primitives just compute their values and record nothing.
"""

import numpy as np

from simxfer.autodiff import (
    Tape,
    Tensor,
    backward,
    cosine,
    elementwise_multiply,
    grad_check,
    matmul,
    softmax,
)

# --- forward primitives (no tape needed) --------------------------------------

product = elementwise_multiply([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
print("elementwise product:", product.values)

uniform = softmax(Tensor([0.0, 0.0, 0.0, 0.0, 0.0]))
print("softmax of equal logits:", uniform.values)

similarity = cosine(Tensor([1.0, 1.0]), Tensor([1.0, 0.0]))
print("cosine([1,1],[1,0]) =", float(similarity.values), "(= 1/sqrt(2))")

# A zero vector cannot produce NaN; the result is 0 with a degeneracy flag.
degenerate = cosine(Tensor([0.0, 0.0]), Tensor([0.0, 0.0]))
print("cosine of zero vectors:", float(degenerate.values),
      "degenerate =", degenerate.degenerate)

# --- gradients ----------------------------------------------------------------

x = Tensor([1.0, 2.0], trainable=True, name="x")
with Tape() as tape:
    loss = matmul(x, x)  # sum of squares
grads = backward(tape, loss)
print("\nd(sum x^2)/dx at [1, 2]:", grads[x], "(expected [2, 4])")

# backward stores nothing in the tensors, so a second call on the same tape
# returns the same gradients; there is nothing to reset between steps.
print("after a second backward:", backward(tape, loss)[x])

# cosine of a vector with itself is constant 1, so its gradient vanishes
u = Tensor([0.3, -1.2, 2.0], trainable=True)
with Tape() as tape:
    loss = cosine(u, u)
print("d cosine(u, u)/du:", backward(tape, loss)[u])

# --- checking against finite differences ----------------------------------------

w = Tensor(np.random.default_rng(0).normal(size=(3, 2)), trainable=True)
v = Tensor([0.5, -0.25])


def quadratic():
    out = matmul(w, v)
    return matmul(out, out)


error = grad_check(quadratic, [w], step=1e-5)
print(f"\ngrad_check on a quadratic: max relative error {error:.2e}")
