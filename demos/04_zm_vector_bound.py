"""The Z_m CB-vector bound and the stability condition pair.

For an m-ary symmetric channel the state is the whole vector of pairwise
Bhattacharyya parameters CB(0 -> x).  Check nodes combine vectors by
circular convolution (an upper bound that is exactly attained by some
sparse channel pairs), variable nodes by component-wise products.
"""

import numpy as np

from bpbounds import (CbVector, DegreeEnsemble, MscChannel, cb_vec_convolve,
                      cb_vector_of, convergence_rate, cutoff_rate,
                      gfq_stability, necessary_stability_violated,
                      regular_ensemble, sufficient_stability, zm_iterate)

# the sparse m = 6 pair that attains the convolution bound with equality
u = cb_vector_of(MscChannel(np.array([0.5, 0.5, 0, 0, 0, 0.0])))
v = cb_vector_of(MscChannel(np.array([0.5, 0, 0.5, 0, 0, 0.0])))
print("u          =", u.v)
print("v          =", v.v)
print("u (x) v    =", cb_vec_convolve(u, v).v, " (exact for this pair)")
print("cutoff rate of u:", round(cutoff_rate(u), 5), "bits\n")

# iterate the bound for a clean m = 6 channel under the regular (3,9) code
e = regular_ensemble(3, 9)
ch = MscChannel(np.array([0.999, 2e-4, 2e-4, 2e-4, 2e-4, 2e-4]))
v0 = cb_vector_of(ch)
traj = zm_iterate(v0, e)
print(f"(3,9) over Z_6, clean channel: {traj.verdict} "
      f"in {traj.iterations} iterations (stopped by {traj.reason})")
for it, state in enumerate(traj.states[:4]):
    print(f"  l={it}: max off-zero CB = {state.max_off_zero():.3e}")

# stability: lambda_2 rho'(1) CB(0 -> x) against 1
e2 = DegreeEnsemble(((2, 0.5), (3, 0.5)), ((6, 1.0),))   # lambda_2 rho'(1) = 2.5
for top in (0.35, 0.45):
    w = CbVector(np.array([1.0, top, 0.1, 0.1, top]))
    print(f"\nlambda_2 rho'(1) = 2.5, max CB(0->x) = {top}:")
    print("  sufficient condition holds:", sufficient_stability(e2, w))
    print("  necessary condition violated:", necessary_stability_violated(e2, w))
    print("  asymptotic contraction rate:", round(convergence_rate(e2, w), 3))
    suff, nec = gfq_stability(e2, w, 5)
    print("  GF(5) (averaged) verdicts: sufficient", suff, "/ violated", nec)
