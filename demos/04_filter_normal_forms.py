"""Filter normal forms: scale a state until both marginals are Id/k.

A symmetric filter (same invertible matrix on both factors) keeps SPC
states SPC; a conjugate filter keeps invariant states invariant.  The
normal form's largest Schmidt coefficient is exactly 1/k with the
normalized identity as its left operator, in every mode.

Run:  python demos/04_filter_normal_forms.py
"""

import numpy as np

from triadops import (
    BipartiteOperator,
    classify,
    doubly_stochastic_check,
    random_spc,
    reduced_a,
    rng_from_seed,
    sinkhorn_filter,
)

k = 3
rng = rng_from_seed(42)

# hide a random SPC state behind a local distortion (s x s) . (s x s)*
base = random_spc(k, seed=7)
a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
s = a @ a.conj().T + 0.3 * np.eye(k)
big = np.kron(s, s)
hidden = big @ base.mat @ big.conj().T
hidden = BipartiteOperator(hidden / np.trace(hidden).real, k, k)

print("distorted state is still SPC:", classify(hidden).spc)
print("marginal distance from Id/k before filtering:",
      f"{np.linalg.norm(reduced_a(hidden).mat - np.eye(k) / k):.3e}")

result = sinkhorn_filter(hidden, mode="symmetric")
print(f"\nconverged in {result.iterations} iterations")
print("convergence log (first 8 iterations):")
for entry in result.iteration_log[:8]:
    print(
        f"  it {entry['iteration']:3d}  residual_a {entry['residual_a']:.3e}  "
        f"monitor {entry['monitor']:.3e}"
    )

nf = result.normal_form
print("\nnormal form marginal residuals:",
      f"{result.marginal_residual_a:.2e} / {result.marginal_residual_b:.2e}")
print("normal form still SPC (class residual):", f"{result.class_residual:.2e}")
print("doubly stochastic:", doubly_stochastic_check(nf).doubly_stochastic)

sd = result.schmidt_of_normal_form
print("\ntop Schmidt coefficient:", f"{sd.coefficients[0]:.12f}", "(1/k =", f"{1 / k:.12f})")
print("top left operator is Id/sqrt(k):",
      np.allclose(sd.left_ops[0].mat, np.eye(k) / np.sqrt(k), atol=1e-7))

# two independent filters: the expansion again leads with Id/sqrt(k)
general = sinkhorn_filter(hidden, mode="general")
gsd = general.schmidt_of_normal_form
print("\ngeneral mode: top coefficient", f"{gsd.coefficients[0]:.12f}")
print("general mode first left operator (times sqrt(k)):")
print(np.round(gsd.left_ops[0].mat * np.sqrt(k), 9).real + 0.0)  # + 0.0 clears -0

# the one-sided variant: only the first factor is filtered
left = sinkhorn_filter(hidden, mode="left")
lsd = left.schmidt_of_normal_form
print("\nleft mode: coefficients", np.round(lsd.coefficients, 6))
print("left mode leading operator is Id/sqrt(k):",
      np.allclose(lsd.left_ops[0].mat, np.eye(k) / np.sqrt(k), atol=1e-7))
