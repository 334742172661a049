"""Sampled density evolution: the ground truth the bounds are measured against.

A population of LLR samples is pushed through check (tanh rule) and variable
(sum) stages; the error fraction either collapses to zero or sticks.  The
population here is kept small so the demo runs in seconds -- thresholds then
carry a little extra Monte Carlo noise compared to the acceptance settings.
"""

from bpbounds import (Bsc, DeConfig, channel_threshold, de_decodable,
                      initial_llr_sampler, measure_threshold, new_population,
                      de_step, population_pe, regular_ensemble, ub_sb_star)

e = regular_ensemble(3, 6)
cfg = DeConfig(population_size=30_000, max_iter=300, seed=1)

# the ub-cb recursion is exact on the BEC, so its CB* is the BEC threshold
print("exact BEC threshold:", round(measure_threshold("ub-cb", e), 5), "\n")

for p in (0.07, 0.09):
    sampler = initial_llr_sampler(Bsc(p))
    pop = new_population(sampler, cfg)
    trace = []
    for _ in range(40):
        pop = de_step(pop, e, sampler)
        trace.append(population_pe(pop))
    ok, its = de_decodable(Bsc(p), e, cfg)
    print(f"BSC({p}): decodable={ok} ({its} iterations); "
          f"pe after 10/20/40 iters: {trace[9]:.4f} {trace[19]:.4f} {trace[39]:.4f}")

# the bounds bound BP: ub-cb certifies every p below its threshold, lb-cb
# proves every p above its own undecodable, so DE bisects only in between
ub = channel_threshold("ub-cb", "bsc", e, tol=1e-5).value
lb = channel_threshold("lb-cb", "bsc", e, tol=1e-5).value
de = channel_threshold("de", "bsc", e, de_config=cfg)
print(f"\nub-cb and lb-cb bracket the BSC threshold: [{ub:.4f}, {lb:.4f}]")
print(f"sampled BSC threshold inside it: {de.value:.4f} "
      f"({de.iterations} DE probes, final bracket [{de.lo:.5f}, {de.hi:.5f}])")
print("that crossover feeds the non-iterative bound: any symmetric channel")
print(f"with SB <= 4 p* (1-p*) = {ub_sb_star(de.value):.4f} is decodable too.")
