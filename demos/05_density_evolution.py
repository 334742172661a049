"""Sampled density evolution: the ground truth the bounds are measured against.

A population of LLR samples is pushed through check (tanh rule) and variable
(sum) stages; the error fraction either collapses to zero or sticks.  The
population here is kept small so the demo runs in seconds -- thresholds then
carry a little extra Monte Carlo noise compared to the acceptance settings.
"""

from bpbounds import (Bsc, CHANNEL_FAMILIES, DeConfig, de_decodable,
                      de_threshold, initial_llr_sampler, measure_threshold,
                      new_population, de_step, population_pe,
                      regular_ensemble, ub_sb_star)

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

value, lo, hi = de_threshold(CHANNEL_FAMILIES["bsc"], e, cfg, lo=0.05, hi=0.12)
print(f"\nsampled BSC threshold: {value:.4f} (bracket [{lo:.4f}, {hi:.4f}])")
print("that crossover feeds the non-iterative bound: any symmetric channel")
print(f"with SB <= 4 p* (1-p*) = {ub_sb_star(value):.4f} is decodable too.")
