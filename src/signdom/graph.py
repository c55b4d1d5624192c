"""Immutable simple graphs: text formats, degree statistics, and generators.

Vertex ids are 0-based everywhere in the API. The DIMACS reader and writer
convert between the 1-based ids used on disk and 0-based ids in memory.
Graphs are frozen after construction and safe to share between threads.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, NamedTuple

__all__ = [
    "GraphError",
    "GraphParseError",
    "GraphValidationError",
    "Graph",
    "DegreeProfile",
    "parse_edge_list",
    "parse_dimacs",
    "to_edge_list",
    "to_dimacs",
    "degree_profile",
    "is_connected",
    "gen_complete",
    "gen_cycle",
    "gen_path",
    "gen_sun",
    "gen_hajos",
    "gen_circulant",
    "gen_gnp",
    "FAMILIES",
]


class GraphError(ValueError):
    """Base class for graph construction and parsing failures."""


class GraphParseError(GraphError):
    """Malformed graph text; the message carries a 1-based line number."""


class GraphValidationError(GraphError):
    """Structurally invalid graph: self-loop, duplicate edge, or bad id."""


class _GraphFields(NamedTuple):
    vertex_count: int
    adjacency: tuple[frozenset[int], ...]


class Graph(_GraphFields):
    """Simple undirected graph on vertices 0..vertex_count-1.

    ``adjacency[v]`` is the open neighborhood of ``v``. The constructor is
    the one home of the structural rules: n >= 0, one entry per vertex, no
    self-loops, ids in range and symmetry. :meth:`from_edges` builds from an
    edge list and additionally rejects repeated edges. A graph is a named
    tuple; ``_replace``, ``copy`` and unpickling at every protocol build it
    through the constructor too.
    """

    __slots__ = ()

    def __new__(cls, vertex_count: int, adjacency: tuple[frozenset[int], ...]) -> "Graph":
        n = vertex_count
        if n < 0:
            raise GraphValidationError("vertex_count must be nonnegative")
        if len(adjacency) != n:
            raise GraphValidationError(
                f"adjacency has {len(adjacency)} entries for {n} vertices"
            )
        for v, nbrs in enumerate(adjacency):
            if v in nbrs:
                raise GraphValidationError(f"self-loop at vertex {v}")
            for u in nbrs:
                if not 0 <= u < n:
                    raise GraphValidationError(f"vertex id {u} out of range 0..{n - 1}")
                if v not in adjacency[u]:
                    raise GraphValidationError(f"asymmetric adjacency between {u} and {v}")
        return super().__new__(cls, vertex_count, adjacency)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Graph":
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from undirected edge pairs. The constructor checks the
        rest; this rejects an id out of range before it indexes, and a repeat."""
        nbrs: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphValidationError(
                    f"edge ({u}, {v}) out of range 0..{vertex_count - 1}"
                )
            if v in nbrs[u]:
                raise GraphValidationError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(vertex_count, tuple(frozenset(s) for s in nbrs))

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return sorted((v, u) for v, nbrs in enumerate(self.adjacency) for u in nbrs if u > v)

    def canonical_id(self) -> str:
        """Short content hash of the canonical DIMACS serialization."""
        import hashlib  # on use: only this method needs it, and it slows `import signdom`

        return hashlib.sha256(to_dimacs(self).encode("ascii")).hexdigest()[:12]


def check_ks(n: int, ks: Iterable[int]) -> list[int]:
    """The subdomination parameters ``ks`` ascending without repeats.

    Raises ValueError unless the graph has n >= 1 vertices and every k
    satisfies 1 <= k <= n, the range where the problem is defined.
    """
    if n < 1:
        raise ValueError("the graph must have n >= 1 vertices")
    ks = sorted(set(ks))
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    return ks


class DegreeProfile(NamedTuple):
    """Degree statistics of a graph.

    ``delta``/``Delta`` are the minimum/maximum degree, ``degrees_sorted``
    is ascending, and ``n_e``/``n_o`` count even-/odd-degree vertices.
    For the empty graph (n = 0) delta and Delta are reported as 0.
    """

    n: int
    m: int
    delta: int
    Delta: int
    degrees_sorted: tuple[int, ...]
    n_e: int
    n_o: int

    @property
    def is_regular(self) -> bool:
        return self.n > 0 and self.delta == self.Delta

    def ceil_half_sum(self, k: int) -> int:
        """Sum of ceil((d_i + 1) / 2) over the k smallest degrees."""
        check_ks(self.n, (k,))
        return sum((d + 2) // 2 for d in self.degrees_sorted[:k])


def degree_profile(graph: Graph) -> DegreeProfile:
    degrees = sorted(len(nbrs) for nbrs in graph.adjacency)
    n = graph.vertex_count
    n_e = sum(1 for d in degrees if d % 2 == 0)
    return DegreeProfile(
        n=n,
        m=sum(degrees) // 2,
        delta=degrees[0] if degrees else 0,
        Delta=degrees[-1] if degrees else 0,
        degrees_sorted=tuple(degrees),
        n_e=n_e,
        n_o=n - n_e,
    )


def is_connected(graph: Graph) -> bool:
    """True iff the graph has a single connected component (true for n <= 1)."""
    n = graph.vertex_count
    if n <= 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in graph.adjacency[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == n


# --- text formats ---------------------------------------------------------
#
# Edge list: one edge per line as "u v" with 0-based nonnegative ids,
# '#' starts a comment, blank lines ignored. The vertex count is
# 1 + max id seen (0 for empty input); trailing isolated vertices need
# the `order` override or the DIMACS format.
#
# DIMACS: header "p edge <n> <m>", then m lines "e <u> <v>" with 1-based
# ids; 'c' lines are comments. The edge count must match the header.


def parse_edge_list(text: str, *, order: int | None = None) -> Graph:
    """Parse the edge-list format.

    ``order`` overrides the inferred vertex count to represent trailing
    isolated vertices; it must be at least 1 + max id seen.
    """
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise GraphParseError(f"line {lineno}: negative vertex id in {raw!r}")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    count = max_id + 1
    if order is not None:
        if order < count:
            raise GraphValidationError(
                f"order {order} is smaller than 1 + max vertex id ({count})"
            )
        count = order
    return Graph.from_edges(count, edges)


def parse_dimacs(text: str) -> Graph:
    """Parse the DIMACS edge format (1-based ids on disk)."""
    n: int | None = None
    m: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer header field") from None
            if n < 0 or m < 0:
                raise GraphParseError(f"line {lineno}: negative header field")
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError(f"line {lineno}: edge line before problem line")
            if len(parts) != 3:
                raise GraphParseError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer vertex id") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"line {lineno}: vertex id out of range 1..{n}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphParseError(f"line {lineno}: unrecognized line {raw!r}")
    if n is None:
        raise GraphParseError("missing 'p edge' header")
    if len(edges) != m:
        raise GraphParseError(f"edge count mismatch: header says {m}, found {len(edges)}")
    return Graph.from_edges(n, edges)


def to_edge_list(graph: Graph) -> str:
    """Canonical edge-list serialization: edges sorted, one per line.

    Trailing isolated vertices are not representable; round-trip through
    DIMACS when the vertex count must be preserved exactly.
    """
    return "".join(f"{u} {v}\n" for u, v in graph.edges())


def to_dimacs(graph: Graph) -> str:
    """Canonical DIMACS serialization: sorted edges, 1-based ids."""
    lines = [f"p edge {graph.vertex_count} {graph.edge_count}\n"]
    lines.extend(f"e {u + 1} {v + 1}\n" for u, v in graph.edges())
    return "".join(lines)


# --- generators -----------------------------------------------------------


def gen_complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def gen_sun(t: int) -> Graph:
    """Cycle of length 2t with one extra vertex per cycle edge, adjacent
    to both of that edge's endpoints. Order 4t, size 6t, every degree even.
    Cycle vertices are 0..2t-1; the vertex attached to cycle edge
    (i, i+1 mod 2t) is 2t + i.
    """
    if t < 2:
        raise ValueError("sun gadget needs t >= 2")
    cycle_len = 2 * t
    edges = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    for i in range(cycle_len):
        gadget = cycle_len + i
        edges.append((gadget, i))
        edges.append((gadget, (i + 1) % cycle_len))
    return Graph.from_edges(4 * t, edges)


def gen_hajos() -> Graph:
    """Hajos graph: a triangle 0,1,2 plus vertices 3,4,5 where vertex 3+i
    is adjacent to the two triangle vertices other than i. Degree
    sequence (2, 2, 2, 4, 4, 4), 6 vertices, 9 edges.
    """
    edges = [(0, 1), (0, 2), (1, 2)]
    for i in range(3):
        for j in range(3):
            if j != i:
                edges.append((3 + i, j))
    return Graph.from_edges(6, edges)


def gen_circulant(n: int, offsets: Iterable[int]) -> Graph:
    """Circulant graph: vertex i adjacent to i +- s (mod n) for each offset s."""
    offs = sorted(set(offsets))
    if not offs:
        raise ValueError("offsets must be nonempty")
    for s in offs:
        if not 1 <= s <= n // 2:
            raise ValueError(f"offset {s} outside 1..{n // 2}")
    pairs = {tuple(sorted(((i, (i + s) % n)))) for i in range(n) for s in offs}
    return Graph.from_edges(n, sorted(pairs))


_MASK64 = (1 << 64) - 1


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi G(n, p) graph, bit-reproducible.

    Pairs (i, j), i < j, are visited in lexicographic order; each draws one
    splitmix64 value z from the stream seeded with ``seed`` (reduced mod
    2^64), and the edge is present iff z < floor(p * 2^64). The scaling
    by 2^64 is exact in double precision, so the threshold is exact.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    state = seed & _MASK64
    threshold = int(p * (1 << 64))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            # one splitmix64 step, inline: its fixed constants make the
            # stream reproducible across platforms and languages
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            if z ^ (z >> 31) < threshold:
                edges.append((i, j))
    return Graph.from_edges(n, edges)


# Every named family: its generator and the parameters the generator takes,
# in call order. The CLI, the reference table and the campaign read this.
FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[str, ...]]] = {
    "complete": (gen_complete, ("n",)),
    "cycle": (gen_cycle, ("n",)),
    "path": (gen_path, ("n",)),
    "sun": (gen_sun, ("t",)),
    "hajos": (gen_hajos, ()),
    "circulant": (gen_circulant, ("n", "offsets")),
    "gnp": (gen_gnp, ("n", "p", "seed")),
}
