"""Discretized density evolution: the ground truth the bounds are measured against.

The LLR density of the messages, stored on a fixed grid, is pushed through
check (tanh rule) and variable (sum) stages; its error probability either
collapses or sticks.  Every run is deterministic and says which rule ended
it, in the reasons the bounds use: "decoded" (the Bhattacharyya parameter
fell below where the ub-cb step drives it to 0, a proof), "witness" (a
fixed-point witness of the bounds' recursion driver), or "max_iter".
"""

from bpbounds import (Bsc, channel_threshold, de_decodable, measure_threshold,
                      regular_ensemble, ub_sb_star)

e = regular_ensemble(3, 6)

# the ub-cb recursion is exact on the BEC, so its CB* is the BEC threshold
print("exact BEC threshold:", round(measure_threshold("ub-cb", e), 5), "\n")

for p in (0.07, 0.083, 0.085, 0.09):
    run = de_decodable(Bsc(p), e)
    shown = " ".join(f"{x:.4f}" for x in run.pe[:: max(1, len(run.pe) // 6)])
    print(f"BSC({p}): decodable={run.decodable} after {run.iterations} iterations "
          f"(stopped by {run.reason}); pe: {shown} ... {run.pe[-1]:.4f}")

# the bounds bound BP: ub-cb certifies every p below its threshold, lb-cb
# proves every p above its own undecodable, so a probe runs DE only in between
ub = channel_threshold("ub-cb", "bsc", e, tol=1e-5).value
lb = channel_threshold("lb-cb", "bsc", e, tol=1e-5).value
de = channel_threshold("de", "bsc", e)
print(f"\nub-cb and lb-cb bracket the BSC threshold: [{ub:.4f}, {lb:.4f}]")
print(f"DE BSC threshold inside it: {de.value:.5f} "
      f"({de.iterations} bisection steps, final bracket [{de.lo:.5f}, {de.hi:.5f}])")
print("that crossover feeds the non-iterative bound: any symmetric channel")
print(f"with SB <= 4 p* (1-p*) = {ub_sb_star(de.value):.4f} is decodable too.")
