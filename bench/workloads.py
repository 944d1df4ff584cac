"""The four benchmark workloads: inputs from a seed, one query, its check.

Each workload has
  generate(fs, seed) -> list of queries   (input generation, part of set-up)
  query(fs, q)       -> answer            (the timed call into finspace)
  check(q, answer)   -> list of outcomes  ("ok", "wrong", "undecided" or
                                           "unchecked"), one per answer item
``fs`` is a namespace of freshly imported finspace modules.  Queries call
finspace through module attributes at call time, so a traced pass sees the
wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import oracles as O


# -- headline: `finspace reproduce` -------------------------------------


class Headline:
    """The paper's table through the CLI; the seed is unused (no inputs)."""

    items = len(O.PAPER_TABLE)

    def generate(self, fs, seed):
        return [["reproduce", "--format", "json"]]

    def query(self, fs, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = fs.cli.main(argv)
        return code, out.getvalue()

    def check(self, argv, answer):
        code, out = answer
        lines = out.strip().splitlines()
        if not lines and code == 2:  # BoundsOnly: no table printed
            return ["undecided"] * self.items
        try:
            rows = {r["name"]: r["computed"] for r in json.loads(lines[-1])["rows"]}
        except (ValueError, KeyError, IndexError, TypeError):
            return ["wrong"] * self.items
        outcomes = []
        for name, want in O.PAPER_TABLE.items():
            if name not in rows:
                outcomes.append("wrong")
            elif rows[name] is None:
                outcomes.append("undecided")
            else:
                outcomes.append("ok" if rows[name] == want else "wrong")
        outcomes += ["wrong"] * len(set(rows) - set(O.PAPER_TABLE))
        return outcomes


# -- witness-sweep: the certified two-piece cover for k >= 5 ---------------


class WitnessSweep:
    """verify_bundle(k) and tc in witness mode over a fixed range of k, in
    increasing order; the seed is unused.  The peak RSS of a run depends on
    the order of k, so the order is fixed."""

    items = 2
    ks = range(5, 17)

    def generate(self, fs, seed):
        return list(self.ks)

    def query(self, fs, k):
        rep = fs.witness.verify_bundle(k)
        U, V = fs.witness.build_U(k), fs.witness.build_V(k)
        res = fs.invariants.tc(
            fs.space.khalimsky_circle(k),
            mode="witness",
            witness=fs.invariants.Cover(U.space, [U, V]),
        )
        return rep.passed, res.exact, res.value

    def check(self, k, answer):
        passed, exact, value = answer
        tc = "undecided" if not exact else "ok" if value == 1 else "wrong"
        return ["ok" if passed is True else "wrong", tc]


# -- circle-maps: degree and homotopy of digital circle maps ----------------


@dataclass
class CirclePair:
    m: int
    n: int
    f: tuple
    g: tuple
    f_map: object  # CircleMap
    g_map: object
    F: object  # the same maps as OrderMaps between Khalimsky circles
    G: object


class CircleMaps:
    """Seeded circle maps S1_m -> S1_n: degree(f), classify_homotopic(f, g)
    and homotopic(F, G) per query, against the step-sum degree."""

    items = 3
    sizes = ((4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (9, 4))
    per_size = 40

    def _table(self, rng, m, n, d=None):
        while True:
            deg = rng.randint(-(m // n), m // n) if d is None else d
            t = O.random_circle_table(rng, m, n, deg)
            if t is not None:
                return t

    def generate(self, fs, seed):
        rng = random.Random(seed)
        out = []
        for m, n in self.sizes:
            src = fs.space.khalimsky_circle(m).space
            tgt = fs.space.khalimsky_circle(n).space
            for i in range(self.per_size):
                f = self._table(rng, m, n)
                kind = i % 4
                if kind == 0:  # equal tables
                    g = f
                elif kind == 1:  # same degree
                    g = self._table(rng, m, n, O.step_degree(f, n))
                else:
                    g = self._table(rng, m, n)
                out.append(CirclePair(
                    m, n, f, g,
                    fs.circles.CircleMap(m, n, f), fs.circles.CircleMap(m, n, g),
                    fs.space.OrderMap(src, tgt, f), fs.space.OrderMap(src, tgt, g),
                ))
        return out

    def query(self, fs, q):
        return (
            fs.circles.degree(q.f_map),
            fs.circles.classify_homotopic(q.f_map, q.g_map),
            fs.homotopy.homotopic(q.F, q.G, "auto").status,
        )

    def check(self, q, answer):
        deg, same, status = answer
        want = O.circle_homotopic(q.f, q.g, q.m, q.n)
        return [
            "ok" if deg == O.step_degree(q.f, q.n) else "wrong",
            "ok" if same is want else "wrong",
            "undecided" if status == "unknown"
            else "ok" if status == ("homotopic" if want else "not_homotopic") else "wrong",
        ]


# -- poset-maps: homotopy of maps between random small posets ---------------


@dataclass
class PosetPair:
    down_x: list
    down_y: list
    f: tuple
    g: tuple
    F: object  # OrderMap
    G: object
    truth: object = "?"  # memoized reference: True, False or None (unresolved)


class PosetMaps:
    """homotopic(f, g, "auto") at the default budget on random posets.

    Query times are heavy-tailed: most pairs take well under a millisecond,
    a few percent take a second or more, and some exhaust the budget.
    Seeded draws of 100 pairs took 3 to 12 s per pass, so the pairs come
    from a fixed seed, in the order drawn, and the run seed is unused.  The
    peak RSS of a run depends on which budget-exhausting pair comes first
    (38 to 47 MB over shuffled orders), so the order is fixed too.
    """

    items = 1
    corpus_seed = 0
    pairs = 200
    # the reference search gives up on homotopy classes larger than this;
    # such verdicts are counted as "unchecked"
    reference_maps = 200_000

    def _pair(self, rng):
        nx, ny = rng.randint(4, 8), rng.randint(4, 7)
        px, py = O.random_pairs(rng, nx, 0.3), O.random_pairs(rng, ny, 0.3)
        down_x, down_y = O.closure(nx, px), O.closure(ny, py)
        f = O.random_table(rng, down_x, down_y)
        g = O.random_table(rng, down_x, down_y)
        return down_x, down_y, (nx, px, ny, py, f, g)

    def _build(self, fs, down_x, down_y, spec):
        nx, px, ny, py, f, g = spec
        X = fs.space.build_space([f"x{i}" for i in range(nx)], px)
        Y = fs.space.build_space([f"y{i}" for i in range(ny)], py)
        return PosetPair(down_x, down_y, f, g, fs.space.OrderMap(X, Y, f), fs.space.OrderMap(X, Y, g))

    def generate(self, fs, seed):
        rng = random.Random(self.corpus_seed)
        return [self._build(fs, *self._pair(rng)) for _ in range(self.pairs)]

    def query(self, fs, q):
        return fs.homotopy.homotopic(q.F, q.G, "auto")

    def reference(self, q):
        """f ~ g by the benchmark's own search, or None if unresolved."""
        if q.truth == "?":
            comp = O.components(q.down_y)
            if any(comp[a] != comp[b] for a, b in zip(q.f, q.g)):
                q.truth = False
            else:
                q.truth = O.MoveGraph(q.down_x, q.down_y).connected(q.f, q.g, self.reference_maps)
        return q.truth

    def check(self, q, v):
        if v.status == "unknown":
            return ["undecided"]
        full_domain_fence = (
            v.status == "homotopic"
            and v.fence
            and v.core_old_ids is None
            and list(v.fence_space.down) == q.down_x
            and list(v.target.down) == q.down_y
        )
        if full_domain_fence:
            return ["ok" if O.replay_fence(q.down_x, q.down_y, q.f, q.g, v.fence) else "wrong"]
        truth = self.reference(q)
        if truth is None:
            return ["unchecked"]
        return ["ok" if v.status == ("homotopic" if truth else "not_homotopic") else "wrong"]


WORKLOADS = {
    "headline": Headline(),
    "witness-sweep": WitnessSweep(),
    "circle-maps": CircleMaps(),
    "poset-maps": PosetMaps(),
}
