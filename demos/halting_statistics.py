"""Until-halt runs: the halting time is geometric with mean 12.

Each round halts the experiment when both labs report ok, which happens
with probability 1/12 per round.  Repeating the whole experiment many times
therefore gives a geometric distribution of halting times.
"""

import numpy as np

from frsim import ProtocolConfig, ProtocolVariant, enumerate_exact, rounds_to_halt

REPEATS = 1500
SEED = 4

config = ProtocolConfig(variant=ProtocolVariant(), seed=SEED, max_rounds=10000)
joint = enumerate_exact(config.variant)
p_halt = joint.joint_wbar_w("ok", "ok")
print(f"per-round halting probability: {p_halt:.6f} (exactly 1/12)")
print(f"running {REPEATS} independent until-halt experiments, seed {SEED}")

lengths = rounds_to_halt(config, REPEATS)
assert lengths.all(), "a run reached max_rounds without halting"

print(f"mean rounds to halt : {lengths.mean():.3f}   (geometric mean 1/p = 12)")
print(f"median              : {np.median(lengths):.1f}")
print(f"longest run         : {lengths.max()} rounds")
print()

print("halting-time histogram (empirical vs geometric):")
edges = [(1, 4), (5, 8), (9, 12), (13, 16), (17, 24), (25, 40), (41, 10000)]
for lo, hi in edges:
    observed = int(((lengths >= lo) & (lengths <= hi)).sum())
    expected = REPEATS * ((1 - p_halt) ** (lo - 1) - (1 - p_halt) ** hi)
    bar = "#" * round(50 * observed / REPEATS)
    label = f"{lo}-{hi}" if hi < 10000 else f">{lo - 1}"
    print(f"  {label:>7}: {observed:5d}  (expected {expected:7.1f})  {bar}")
