"""The four bound recursions on one channel, side by side.

A bound recursion starts from the uncoded channel's noise measure and tracks
an upper (or lower) bound on that measure for the depth-2l decoding tree.
If the tracked measure is driven to zero the channel is certified decodable.
A run ends "not-decodable" at a fixed-point witness: a state s* below the
current one that the recursion maps to at least s*, so the measure can
never fall below it.

The BiAWGN sigma below sits between the ub-cb threshold (0.7690) and the
ub-cbsb threshold (0.7826): the CB-only bound cannot certify it, the joint
(CB, SB) bound can.  Density evolution puts the true threshold at 0.8790,
so neither bound is tight here -- they are universal over all channels with
the same measures, which is the price and the point.
"""

from bpbounds import (BiAwgn, NoisePair, cb_of, sb_of, iterate_bound,
                      regular_ensemble)

e = regular_ensemble(3, 6)
ch = BiAwgn(0.7750)
cb, sb = cb_of(ch), sb_of(ch)
print(f"channel: BiAWGN(sigma=0.7750), CB = {cb:.4f}, SB = {sb:.4f}\n")

for kind, start in [
    ("ub-cb", NoisePair(cb=cb)),
    ("lb-cb", NoisePair(cb=cb)),
    ("ub-sb", NoisePair(sb=sb)),
    ("ub-cbsb", NoisePair(cb, sb)),
]:
    traj = iterate_bound(kind, start, e)
    head = ", ".join(
        "(" + ", ".join("--" if v is None else f"{v:.4f}" for v in s) + ")"
        for s in traj.states[:4])
    print(f"{kind:8s} -> {traj.verdict:14s} ({traj.reason}) after "
          f"{traj.iterations:3d} iterations; first states: {head}")

print("""
Readings:
 * ub-cb meets a witness after one step: CB alone cannot separate this
   channel from a worse one, and its recursion has a nonzero fixed point.
 * lb-cb converges: the lower bound only rules channels out, and this one
   is not ruled out.
 * ub-sb meets a witness after one step as well; SB alone is also too
   coarse here.
 * ub-cbsb converges: knowing the (CB, SB) pair pins the channel down
   enough to certify decodability.""")
