"""Walk through every agent's description of one round, step by step.

The round: a friend measures a biased quantum coin and prepares a spin
particle accordingly; a second friend measures the spin; then two
superobservers measure the two labs in entangled ok/fail bases.  Each agent
keeps its own state for the systems it models (everything except itself),
and the descriptions agree on every prediction that can actually be tested.
"""

from frsim import (
    Given,
    PerspectiveLimit,
    ProtocolVariant,
    agent_model_at,
    standard_predictions,
)

MODIFIED = ProtocolVariant(announce_wbar=False)   # coin-lab outcome stays secret
ORIGINAL = ProtocolVariant(announce_wbar=True)    # outcome announced at t=2

AGENT_LABELS = {
    "Fbar": "coin friend",
    "F": "spin friend",
    "Wbar": "coin-lab observer",
    "W": "spin-lab observer",
    "C": "external observer",
}


def show(agent, time, given, variant, note=""):
    """Print the agent's description and return its standard predictions
    (None where it has no description)."""
    title = f"t={time}  {AGENT_LABELS[agent]} ({agent})"
    if note:
        title += f"  [{note}]"
    print(f"\n--- {title} ---")
    try:
        model = agent_model_at(agent, time, given, variant)
    except PerspectiveLimit as exc:
        print(f"  cannot describe this step: {exc}")
        return
    except ValueError as exc:
        print(f"  undetermined: {exc}")
        return
    print(f"  models: {', '.join(model.layout.names)}")
    for labels, amp in model.state.nonzero_terms():
        print(f"  {amp.real:+.6f}  |{','.join(labels)}>")
    predictions = standard_predictions(model)
    for name in ("coin_lab", "spin_lab"):
        if name in predictions:
            ok = predictions[name]["ok"]
            print(f"  predicts {name}: ok with probability {ok:.6f}")
    return predictions


print("=" * 72)
print("MODIFIED PROTOCOL: the coin-lab outcome is kept secret")
print("=" * 72)

# Before anything is sampled, the friends' own outcomes fix their branch:
# the coin friend saw tail, the spin friend saw up.
branch = Given(r="t", s="up")

for time in (0, 1):
    for agent in ("Fbar", "F", "Wbar", "W", "C"):
        show(agent, time, branch, MODIFIED)

# At t=2 the coin lab is measured. We follow the interesting branch: ok.
branch_ok = Given(r="t", s="up", wbar="ok")
for agent in ("Fbar", "F", "Wbar", "W", "C"):
    show(agent, 2, branch_ok, MODIFIED, note="coin lab read ok, not announced")

# At t=3 the spin lab is measured; nobody outside the spin-lab observer
# conditions on announcements in this variant.
branch_ok_ok = Given(r="t", s="up", wbar="ok", w="ok")
for agent in ("Wbar", "W", "C"):
    show(agent, 3, branch_ok_ok, MODIFIED, note="spin lab read ok")

print()
print("=" * 72)
print("ORIGINAL PROTOCOL: the ok announcement updates everyone at t=2")
print("=" * 72)

heard_ok = {agent: show(agent, 2, branch_ok, ORIGINAL, note="after hearing ok")
            for agent in ("Wbar", "W", "C")}

# Everyone who heard the announcement now gives the spin lab even odds,
# and after the second ok all descriptions collapse to the same product.
for agent in ("Wbar", "W", "C"):
    show(agent, 3, branch_ok_ok, ORIGINAL, note="after hearing both")

# The note below, checked: each observer that heard ok gives the spin lab
# even odds, so none is certain of either of its readings.
for agent, predictions in heard_ok.items():
    assert abs(predictions["spin_lab"]["ok"] - 0.5) < 1e-10, (agent, predictions["spin_lab"])

print()
print("Note the agreement: the observers and the external observer all")
print("assign probability 1/2 to the spin lab reporting ok once the coin")
print("lab announced ok. No contradictory certainty ever appears.")
