"""The exact joint distribution of one round, as fractions, independent of frsim.

After t=1 the round is an equal superposition of three branches (r, s):
(t, up), (t, down) and (h, down), each of amplitude 1/sqrt(3).  Each friend
holds a record equal to r or s, and a kept notebook copies it.  A lab
measurement projects a correlated (system, friend) pair on ok or fail:
|t,t> = (|fail> - |ok>)/sqrt(2) and |h,h> = (|fail> + |ok>)/sqrt(2), and the
spin lab alike with up in the role of t and down of h.  So each projection
multiplies an amplitude by +-1/sqrt(2), and after k of them every amplitude
is an integer over sqrt(3 * 2**k).  The expansion tracks those integers,
adds the ones that share every record left, and returns each probability
as the sum of their squares over 3 * 2**k: integers and Fractions only.
Nothing here imports the package under test.
"""

from fractions import Fraction


def joint(notebooks, intrusion):
    """P(wbar, w, intrusion) as Fractions, keyed like ``enumerate_exact``;
    only outcomes of nonzero probability.  The announcement and cheat mode
    leave the true dynamics alone, so they are not arguments."""
    out = {}
    for wbar in ("ok", "fail"):
        # Integer amplitudes over sqrt(6) after the coin lab reads wbar,
        # keyed by the records left: Nbar's, N's, and the spin with F's copy.
        coin = {}
        for r, s in (("t", "up"), ("t", "down"), ("h", "down")):
            key = (r if "Fbar" in notebooks else None, s if "F" in notebooks else None, s)
            coin[key] = coin.get(key, 0) + (-1 if wbar == "ok" and r == "t" else 1)
        if intrusion and wbar == "ok":
            for spin in ("up", "down"):
                weight = sum(c * c for (_, _, s), c in coin.items() if s == spin)
                out[(wbar, None, spin)] = Fraction(weight, 6)
            continue
        for w in ("ok", "fail"):
            # Over sqrt(12) once the spin lab reads w, keyed by the notebooks.
            lab = {}
            for (nbar, n, s), c in coin.items():
                lab[nbar, n] = lab.get((nbar, n), 0) + (-c if w == "ok" and s == "up" else c)
            out[(wbar, w, None)] = Fraction(sum(c * c for c in lab.values()), 12)
    return {key: p for key, p in out.items() if p}
