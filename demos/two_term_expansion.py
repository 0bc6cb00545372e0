"""Two-term expansion and its measured remainder orders.

u = u0 + (u1 + v1)/omega + W.  Doubling omega along a ladder shows
||u - u0|| falling like 1/omega and omega * ||W|| still falling, i.e.
the remainder is genuinely smaller than 1/omega.
"""

import numpy as np

from osckit import (
    FastProfile,
    HeatProblem,
    SineSeries,
    SlowFunction,
    SourceFactor,
    TwoTermExpansion,
    residual_norm,
)

envelope = SineSeries({1: 1.0, 2: 1.0})
mean = SlowFunction.monomial(1.0, 1)
oscillation = FastProfile([(1, 0.0, 1.0)])

expansion = TwoTermExpansion.build(envelope, mean, oscillation)

# components at the trace point x = pi/2
t = np.linspace(0.0, 1.0, 5)
print("u0(pi/2, t) :", np.round(expansion.leading.at_x(np.pi / 2)(t), 6))
print("u1(pi/2, t) :", np.round(expansion.layer.at_x(np.pi / 2)(t), 6))
print("v1(pi/2, t, tau=0):",
      round(expansion.fast.at_x(np.pi / 2)(0.0, 0.0), 6), "(= -cos 0)")

print("\nomega    ||u-u0||      ||W||         omega*||W||")
for omega in (64.0, 128.0, 256.0, 512.0):
    problem = HeatProblem(envelope, SourceFactor(mean, oscillation),
                          omega, horizon=1.0)
    r1, r2 = residual_norm(problem, x_count=33)
    print(f"{omega:6.0f}  {r1:.4e}   {r2:.4e}   {omega * r2:.4e}")

print("\nboth columns shrink: the leading term is o(1)-accurate and the")
print("two-term composition is o(1/omega)-accurate in the sup norm.")
