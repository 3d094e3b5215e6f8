"""``Generator.choice(n, d, replace=False)`` for many (d, n) pairs at once,
replayed bit for bit from one stream of bounded draws.

choice makes every draw with the bounded draw that ``rng.integers(0,
high)`` makes element by element for an int64 ``high`` array (a bound of 1
consumes nothing). So ``draw_bounds`` lists the bounds of every pair's
draws in turn, one ``rng.integers`` call over them (or a caller's own calls
over pieces of them, in order) is the whole stream, and ``picks_from_draws``
runs choice's Floyd, Fisher–Yates and tail-shuffle steps on the draws.
"""

import numpy as np

# Generator.choice(n, d, replace=False) shuffles the tail of arange(n) when
# n > _TAIL_MIN_POP and d > n // _TAIL_RATIO, else it runs Floyd's algorithm
_TAIL_MIN_POP = 10000
_TAIL_RATIO = 50


def _layout(deg, n):
    """(deg, n, tail branch, draws per pair, first draw of each pair)."""
    deg = np.asarray(deg, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    tail = (n > _TAIL_MIN_POP) & (deg > n // _TAIL_RATIO)
    count = np.where(tail, np.minimum(deg, n - 1), np.maximum(2 * deg - 1, 0))
    return deg, n, tail, count, np.cumsum(count) - count


def draw_bounds(deg, n) -> np.ndarray:
    """The exclusive bounds of the draws ``rng.choice(n, d, replace=False)``
    makes for each (d, n) pair in turn, concatenated: Floyd's n-d+1 .. n
    then the shuffle's d .. 2, or the tail's n .. max(n-d, 1)+1."""
    deg, n, tail, count, seg = _layout(deg, n)
    o = np.repeat(np.arange(deg.size), count)
    k = np.arange(o.size) - seg[o]
    d, m = deg[o], n[o]
    return np.where(tail[o], m - k, np.where(k < d, m - d + 1 + k, 2 * d - k))


def picks_from_draws(draws, deg, n) -> np.ndarray:
    """Each pair's ``rng.choice(n, d, replace=False)``, concatenated, from
    the draws made with ``draw_bounds(deg, n)``.

    Floyd's branch draws pick t from [0, n-d+t], replaces a pick already
    taken by n-d+t, then swaps position i with a draw from [0, i] for
    i = d-1 .. 1. The tail branch swaps position i of arange(n) with a draw
    from [0, i] for i = n-1 .. max(n-d, 1) and keeps the last d entries.
    """
    deg, n, tail, count, seg = _layout(deg, n)
    pairs = np.arange(deg.size)

    # Floyd's picks are the raw draws unless a pair's draws repeat
    start = np.cumsum(deg) - deg
    owner = np.repeat(pairs, deg)
    local = np.arange(owner.size) - start[owner]
    floyd = ~tail[owner]
    ranks = np.empty(owner.size, dtype=np.int64)
    ranks[floyd] = draws[(seg[owner] + local)[floyd]]
    span = int(n.max(initial=0)) + 1
    keys = np.sort((owner * span + ranks)[floyd])
    repeats = keys[1:][keys[1:] == keys[:-1]] // span
    for u in np.unique(repeats).tolist():
        du, nu, s = int(deg[u]), int(n[u]), int(seg[u])
        picks, taken = draws[s:s + du].tolist(), set()
        for t, v in enumerate(picks):
            if v in taken:
                picks[t] = v = nu - du + t
            taken.add(v)
        ranks[start[u]:start[u] + du] = picks

    # Fisher–Yates, one numpy round per level i, from the largest degree
    # down, over the pairs with d > i, by degree descending; the draw for
    # level i sits at seg + 2d - 1 - i
    fy = np.nonzero(~tail)[0]
    fy = fy[np.argsort(-deg[fy], kind="stable")]
    fdeg = deg[fy]
    active = fy.size - np.cumsum(np.bincount(fdeg))
    base, last = start[fy], seg[fy] + 2 * fdeg - 1
    for i in range(int(fdeg.max(initial=0)) - 1, 0, -1):
        a = base[:active[i]]
        hi, lo = a + i, a + draws[last[:active[i]] - i]
        ranks[hi], ranks[lo] = ranks[lo], ranks[hi]

    # tail pairs: the swaps on arange(n), kept sparse in a dict
    for u in np.nonzero(tail)[0].tolist():
        du, nu, s = int(deg[u]), int(n[u]), int(seg[u])
        moved = {}
        for i, j in zip(range(nu - 1, 0, -1), draws[s:s + int(count[u])].tolist()):
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        ranks[start[u]:start[u] + du] = [moved.get(i, i) for i in range(nu - du, nu)]
    return ranks


def choices(rng, deg, n) -> np.ndarray:
    """``rng.choice(n, d, replace=False)`` for each (d, n) pair in turn,
    concatenated, bit for bit, and leaving ``rng`` in the same state."""
    return picks_from_draws(rng.integers(0, draw_bounds(deg, n)), deg, n)
