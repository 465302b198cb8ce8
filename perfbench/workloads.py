"""Benchmark inputs, generated with the standard library only.

Each workload is a list of requests ``(edge-list text, t)``. The same
workload name and seed always give the same text, byte for byte, so the
input hashes recorded in ``golden.json`` stay valid across Python versions
(``random.Random`` seeded with a string is stable).

Why these three:

* ``sparse_gnp`` -- one connected G(n, p), n=3000, average degree about 6,
  t=4. The scaling family: many small parts, so the time goes to the
  decomposition recheck, the spanner local search and the first bipartite
  part. About one seed in eight ends in a certificate instead (2 of seeds
  200-215), which skips the recheck and takes about 40% less time; that is
  most of this workload's spread across seeds.
* ``grid_bipartite`` -- the 100x100 grid, t=4. One bipartite part covers
  the graph, so the spanner never runs; almost all time is the first
  bipartite part, then the coloring and the largest payload. The seed only
  shuffles edge order and orientation, which must not change the output.
* ``dense_batch`` -- 400 small dense connected G(n, p), n in 80..160,
  p in 0.03..0.15, t cycling 3..6. About half end in certificates, so this
  is the only workload that runs certificate extraction and verification,
  with thousands of short spanner calls and a per-request latency tail.
"""

from __future__ import annotations

import random

WORKLOADS = ("sparse_gnp", "grid_bipartite", "dense_batch")

Request = tuple[str, int]


def connected_gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p) edges, then the minimum vertices of consecutive components
    (ordered by minimum vertex) joined by one edge each."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    mins: dict[int, int] = {}
    for v in range(n):
        mins.setdefault(find(v), v)
    heads = sorted(mins.values())
    return edges + list(zip(heads, heads[1:]))


def grid_edges(side: int) -> list[tuple[int, int]]:
    horizontal = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    vertical = [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return horizontal + vertical


def edgelist(n: int, edges: list[tuple[int, int]]) -> str:
    """The ``n m`` header and one ``u v`` line per edge, as graph_io reads it."""
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def build(name: str, seed: int, toy: bool = False) -> list[Request]:
    """Requests of workload `name` for `seed`; `toy` shrinks every size so a
    whole run takes well under a second (used by the self-test)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sparse_gnp":
        n = 300 if toy else 3000
        return [(edgelist(n, connected_gnp_edges(n, 6 / (n - 1), rng)), 4)]
    if name == "grid_bipartite":
        side = 15 if toy else 100
        edges = grid_edges(side)
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        return [(edgelist(side * side, edges), 4)]
    if name == "dense_batch":
        count, low, high = (16, 30, 50) if toy else (400, 80, 160)
        requests = []
        for i in range(count):
            n = rng.randint(low, high)
            p = rng.uniform(0.03, 0.15)
            requests.append((edgelist(n, connected_gnp_edges(n, p, rng)), 3 + i % 4))
        return requests
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
