"""How the truncation region is built: losses along a line, their lower envelope.

Conditioning on everything orthogonal to the test direction restricts the
data to a line a + b z.  Every alignment's loss is then a parabola in z, the
optimal loss is their lower envelope, and the region where the observed
alignment stays optimal is the union of envelope segments that carry it.
"""

import numpy as np

from dtwsi import (
    TimeSeriesPair,
    dtw,
    enumerate_alignments,
    envelope_bruteforce,
    nuisance_decomposition,
    para_dtw,
    quadratic_loss,
    sign_vector,
    test_direction,
    z1_region,
    z2_region,
)

rng = np.random.default_rng(3)
n = m = 4
pair = TimeSeriesPair(rng.normal(size=n), rng.normal(size=m))

alignment, distance = dtw(pair)
signs = sign_vector(alignment, pair)
direction = test_direction(alignment, signs)
line = nuisance_decomposition(pair, direction)
z_obs = float(direction.eta @ pair.stacked())
print(f"observed statistic z_obs = {z_obs:.4f}")

# brute force: all alignments, every parabola
alignments = enumerate_alignments(n, m)
print(f"\n{len(alignments)} alignments in total; a few of their loss parabolas:")
for M in alignments[:4]:
    w0, w1, w2 = quadratic_loss(M, line)
    print(f"  {str(M.path):55s} {w0:7.3f} {w1:+7.3f} z {w2:+6.3f} z^2")

env_slow = envelope_bruteforce(alignments, line)
env_fast = para_dtw(line, n, m)  # same envelope without touching all paths
assert env_fast.breakpoints == env_slow.breakpoints

print(f"\nlower envelope has {len(env_fast.segments)} segments:")
for k, (M, q) in enumerate(env_fast.segments):
    lo, hi = env_fast.breakpoints[k], env_fast.breakpoints[k + 1]
    marker = " <- observed" if M.path == alignment.path else ""
    print(f"  [{lo:9.3f}, {hi:9.3f}]  {str(M.path):55s}{marker}")

region_signs = z2_region(line, alignment, signs)
(window,) = region_signs.intervals
# The window-only envelope, unpruned: every cell is walked, as on the full
# line.  It is the reference the tests hold inference's region to; inference
# (si_dtw_region) walks the same table on a witness hull inside the window and
# skips the cells the witnesses' losses rule out.
env_window = para_dtw(line, n, m, window)
print(f"\nsign-preserving window {region_signs}; window-only envelope:")
for k, (M, q) in enumerate(env_window.segments):
    lo, hi = env_window.breakpoints[k], env_window.breakpoints[k + 1]
    marker = " <- observed" if M.path == alignment.path else ""
    print(f"  [{lo:9.3f}, {hi:9.3f}]  {str(M.path):55s}{marker}")

# the full-line envelope clipped to the window is the windowed envelope
clipped = [
    (max(lo, window[0]), min(hi, window[1]), M.path)
    for (M, _), lo, hi in zip(env_fast.segments, env_fast.breakpoints, env_fast.breakpoints[1:])
    if hi > window[0] and lo < window[1]
]
assert [c[2] for c in clipped] == [M.path for M, _ in env_window.segments]
window_bps = env_window.breakpoints
assert np.allclose([c[:2] for c in clipped], list(zip(window_bps, window_bps[1:])))
print(
    f"inside the window both envelopes carry the same paths; the window removes "
    f"{len(env_fast.segments) - len(env_window.segments)} of {len(env_fast.segments)} segments"
)

region_alignment = z1_region(env_fast, alignment)
region = region_alignment.intersect(region_signs)
assert region == z1_region(env_window, alignment)
print(f"\nalignment-preserving region: {region_alignment}")
print(f"sign-preserving region     : {region_signs}")
print(f"selection region           : {region}")
print(f"contains z_obs             : {region.contains(z_obs, tol=1e-9)}")
