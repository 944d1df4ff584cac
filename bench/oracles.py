"""Reference answers and input generators for the benchmark.

Nothing here imports finspace.  Orders, continuity, degrees and homotopy
components are recomputed from the raw relations the generators produce,
so a wrong answer from the program cannot also be its own reference.

A poset on points 0..n-1 is a list ``down`` of reflexive down-sets as
bitmasks: ``a <= b`` iff bit ``a`` of ``down[b]`` is set.  A map is a tuple
of target points, one per source point.
"""

from __future__ import annotations

from collections import deque

# The paper's table, keyed by the row names of ``finspace reproduce``:
# tc of the 2n-point circle is 3, 2, 2 for n = 2, 3, 4 and 1 from n = 5 on
# (the certified two-piece witness), cat of the circles is 1, and cat of
# their squares is 3, 2 for n = 2, 3.
PAPER_TABLE = {
    "tc, half-size 2": 3,
    "tc, half-size 3": 2,
    "tc, half-size 4": 2,
    "tc, half-size 5 (witness)": 1,
    "tc, half-size 6 (witness)": 1,
    "tc, half-size 7 (witness)": 1,
    "cat, circle half-size 2": 1,
    "cat, circle half-size 3": 1,
    "cat, torus half-size 2": 3,
    "cat, torus half-size 3": 2,
}


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def leq(down, a: int, b: int) -> bool:
    return bool((down[b] >> a) & 1)


def up_sets(down):
    up = [0] * len(down)
    for x, d in enumerate(down):
        for y in bits(d):
            up[y] |= 1 << x
    return up


# -- posets ------------------------------------------------------------


def closure(n: int, pairs):
    """Down-sets of the order generated by pairs (lo, hi) with lo < hi."""
    below = [[] for _ in range(n)]
    for lo, hi in pairs:
        below[hi].append(lo)
    down = [1 << x for x in range(n)]
    # lo < hi for every pair, so increasing ids is a linear extension
    for hi in range(n):
        for lo in below[hi]:
            down[hi] |= down[lo]
    return down


def components(down):
    """Comparability component id of each point."""
    up = up_sets(down)
    comp = [-1] * len(down)
    for seed in range(len(down)):
        if comp[seed] >= 0:
            continue
        comp[seed] = seed
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in bits(down[x] | up[x]):
                if comp[y] < 0:
                    comp[y] = seed
                    stack.append(y)
    return comp


def random_pairs(rng, n: int, density: float):
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]


def is_continuous(down_x, down_y, table) -> bool:
    return all(
        leq(down_y, table[y], table[x])
        for x in range(len(down_x))
        for y in bits(down_x[x])
    )


def comparable(down_y, s, t) -> bool:
    return all(leq(down_y, a, b) for a, b in zip(s, t)) or all(
        leq(down_y, b, a) for a, b in zip(s, t)
    )


def random_table(rng, down_x, down_y):
    """A random order-preserving table, by randomized backtracking."""
    n = len(down_x)
    up_y = up_sets(down_y)
    full = (1 << len(down_y)) - 1
    # strictly smaller down-sets first: a linear extension of the source
    order = sorted(range(n), key=lambda x: down_x[x].bit_count())
    table = [0] * n

    def fill(i):
        if i == n:
            return True
        x = order[i]
        cand = full
        for y in bits(down_x[x] & ~(1 << x)):
            cand &= up_y[table[y]]
        values = list(bits(cand))
        rng.shuffle(values)
        for v in values:
            table[x] = v
            if fill(i + 1):
                return True
        return False

    if not fill(0):
        raise AssertionError("a constant map always exists")
    return tuple(table)


class MoveGraph:
    """Maps X -> Y linked by one-point moves to a comparable value.

    If f <= g, changing f at a maximal point where they differ gives a
    continuous map between them, so these moves connect exactly the
    comparability components: the homotopy classes.
    """

    def __init__(self, down_x, down_y):
        self.down_y = down_y
        self.up_y = up_sets(down_y)
        up_x = up_sets(down_x)
        self.n = len(down_x)
        self.below = [list(bits(down_x[x] & ~(1 << x))) for x in range(self.n)]
        self.above = [list(bits(up_x[x] & ~(1 << x))) for x in range(self.n)]

    def moves(self, t):
        down_y, up_y = self.down_y, self.up_y
        for x in range(self.n):
            v0 = t[x]
            cand = (down_y[v0] | up_y[v0]) & ~(1 << v0)
            for y in self.below[x]:
                cand &= up_y[t[y]]
            for y in self.above[x]:
                cand &= down_y[t[y]]
            for v in bits(cand):
                yield t[:x] + (v,) + t[x + 1:]

    def connected(self, f, g, cap: int):
        """True or False by exhausting f's component; None past ``cap`` maps."""
        if f == g:
            return True
        seen = {f}
        queue = deque([f])
        while queue:
            for nxt in self.moves(queue.popleft()):
                if nxt in seen:
                    continue
                if nxt == g:
                    return True
                if len(seen) >= cap:
                    return None
                seen.add(nxt)
                queue.append(nxt)
        return False


def replay_fence(down_x, down_y, f, g, fence) -> bool:
    """A fence certifies f ~ g: it starts at f, ends at g, and every map is
    continuous and comparable with the next."""
    fence = [tuple(t) for t in fence]
    if not fence or fence[0] != tuple(f) or fence[-1] != tuple(g):
        return False
    if not all(is_continuous(down_x, down_y, t) for t in fence):
        return False
    return all(comparable(down_y, s, t) for s, t in zip(fence, fence[1:]))


# -- circle maps -------------------------------------------------------


def random_circle_table(rng, m: int, n: int, d: int):
    """A continuous map of the 2m-point circle onto the 2n-point circle with
    degree d, as a table over residues, or None if no such map exists.

    The map is drawn as a lift L to the digital line: a step may move by
    one only where the parities of z and L(z) agree, and L(2m) = L(0) + 2nd.
    """
    size = 2 * m
    start = rng.randrange(2 * n)
    end = start + 2 * n * d
    lo, hi = start - size - 1, start + size + 1

    def steps(z, v):
        return (v, v - 1, v + 1) if (v - z) % 2 == 0 else (v,)

    # reach[z] holds the lift values at z from which L(2m) = end is reachable
    reach = [set() for _ in range(size + 1)]
    reach[size] = {end}
    for z in range(size - 1, -1, -1):
        reach[z] = {v for v in range(lo, hi + 1) if any(w in reach[z + 1] for w in steps(z, v))}
    if start not in reach[0]:
        return None
    lift = [start]
    for z in range(size - 1):
        lift.append(rng.choice([w for w in steps(z, lift[-1]) if w in reach[z + 1]]))
    return tuple(v % (2 * n) for v in lift)


def step_degree(table, n: int) -> int:
    """Winding number of a circle map: its signed steps summed around the loop."""
    size = 2 * n
    total = 0
    for a, b in zip(table, table[1:] + table[:1]):
        d = (b - a) % size
        if d == 1:
            total += 1
        elif d == size - 1:
            total -= 1
        elif d:
            raise ValueError(f"not a circle map: jump {a} -> {b}")
    return total // size


def circle_homotopic(f, g, m: int, n: int) -> bool:
    """The classification: equal maps, or equal degree d with |d| n < m."""
    if f == g:
        return True
    d = step_degree(f, n)
    return d == step_degree(g, n) and abs(d) * n < m
