"""Directed graph substrates for diffusion runs.

Nodes are dense integers 0..n-1.  A :class:`Graph` is immutable once built
and keeps its arcs once, sorted by (source, destination) so that iteration
order (and therefore every downstream random draw) is reproducible.  All
random generators take an explicit ``numpy.random.Generator``; the same
stream always yields the identical arc set.

Edge-list text format: first line is the node count n, every following
non-empty line is one arc ``"v u"`` (v -> u, decimal, space separated),
UTF-8 with LF line endings.
"""
from __future__ import annotations

import bisect
import hashlib
import inspect
import io
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Iterable, Union

import numpy as np

PathOrFile = Union[str, Path, IO[str]]

_GENERATOR_ALIASES = {
    "ws": "watts_strogatz",
    "ba": "barabasi_albert",
    "cycle": "directed_cycle",
}


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ArcError(ValueError):
    """An arc Graph rejects, the rule it fails and its 0-based input position."""

    def __init__(self, arcs: np.ndarray, rule: str, index):
        self.arc, self.rule, self.index = tuple(arcs[index].tolist()), rule, int(index)
        super().__init__(f"arc {self.arc}: {rule}")


# The largest node count with n*n < 2**63, so every arc (v, u) has an int64
# code v*n + u; Graph orders and compares arcs by that code.
MAX_NODES = 3_037_000_499


class Graph:
    """Immutable directed graph over node ids 0..n-1, 1 <= n <= MAX_NODES.

    Rejects a node id that is not an integer (a float, string or bool),
    then an out-of-range endpoint, then a self-loop, then a duplicate arc:
    an ArcError names the first offender in input order (for a duplicate,
    its second occurrence).  Arcs are ordered by the one int64 code
    ``v*n + u``: input whose codes already strictly increase, such as a
    file ``save_edge_list`` wrote, is neither sorted nor scanned for
    duplicates; other input is sorted once, stably.  The sorted arcs are
    the out-adjacency CSR; there is no in-adjacency, so ``in_neighbors``
    scans all arcs into a new array, O(m).  Neighbour lists are ascending.
    """

    __slots__ = ("n", "arc_count", "_arc_src", "_arc_dst", "_out_indptr",
                 "_in_degrees", "_fingerprint")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] | np.ndarray):
        n = config_value("node count", "int", n)
        if n < 1:
            raise ValueError("node count must be >= 1")
        if n > MAX_NODES:
            raise ValueError(f"node count must be <= {MAX_NODES}")
        # numpy would read a bool beside integers as one, so every id of a
        # non-array input is checked on its own
        arr = arcs if isinstance(arcs, np.ndarray) else np.asarray(list(arcs), dtype=object)
        if arr.size == 0:
            arr = np.zeros((0, 2), dtype=np.int64)
        if arr.dtype.kind not in "iu":
            arr = arr.astype(object, copy=False)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("arcs must be (v, u) pairs")
        if arr.dtype == object:
            ids = [isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in arr.flat]
            if not all(ids):
                raise ArcError(arr, "not an integer", ids.index(False) // 2)
        # each check finds its offending position only once it has failed
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ArcError(arr, "out of range", ((arr < 0) | (arr >= n)).any(1).argmax())
        arr = arr.astype(np.int64, copy=False)
        loops = arr[:, 0] == arr[:, 1]
        if loops.any():
            raise ArcError(arr, "self-loop", loops.argmax())

        # canonical order: by source, then destination
        code = arr[:, 0] * n + arr[:, 1]
        if not (code[1:] > code[:-1]).all():
            order = np.argsort(code, kind="stable")
            code = code[order]
            repeats = code[1:] == code[:-1]
            if repeats.any():  # the sort is stable, so each repeat is a later occurrence
                raise ArcError(arr, "duplicate", order[1:][repeats].min())
        src, dst = np.divmod(code, n)

        self.n = n
        self.arc_count = int(src.size)
        self._arc_src = src
        self._arc_dst = dst
        self._out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self._out_indptr[1:])
        self._in_degrees = np.bincount(dst, minlength=n)
        self._fingerprint = None
        for a in (src, dst, self._out_indptr, self._in_degrees):
            a.setflags(write=False)

    # -- inspection --------------------------------------------------------

    @property
    def arcs(self) -> np.ndarray:
        """Read-only (m, 2) array of arcs sorted by (source, destination)."""
        return np.stack([self._arc_src, self._arc_dst], axis=1)

    def _check_node(self, u: int) -> int:
        u = int(u)
        if not 0 <= u < self.n:
            raise ValueError(f"node id {u} out of range [0, {self.n})")
        return u

    def in_neighbors(self, u: int) -> np.ndarray:
        """Nodes v with an arc v -> u, ascending (a new array, O(m))."""
        return self._arc_src[self._arc_dst == self._check_node(u)]

    def out_neighbors(self, u: int) -> np.ndarray:
        """Nodes w with an arc u -> w, ascending (read-only view)."""
        u = self._check_node(u)
        return self._arc_dst[self._out_indptr[u]:self._out_indptr[u + 1]]

    @property
    def in_degrees(self) -> np.ndarray:
        return self._in_degrees

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self._out_indptr)

    def fingerprint(self) -> str:
        """Stable 16-hex-digit digest of (n, arc set); computed once."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(str(self.n).encode())
            h.update(b"\n")
            h.update(self._arc_src.tobytes())
            h.update(self._arc_dst.tobytes())
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self._arc_src, other._arc_src)
                and np.array_equal(self._arc_dst, other._arc_dst))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, arcs={self.arc_count})"


# -- generators -------------------------------------------------------------


def watts_strogatz(n: int, k: int, beta: float, rng: np.random.Generator) -> Graph:
    """Small-world graph: ring lattice with random rewiring.

    Starts from an undirected ring lattice where every node links to its k
    nearest neighbors (k/2 per side).  Each lattice edge (i, i+j) is, with
    probability beta, rewired by replacing its far endpoint with a uniformly
    random node, skipping candidates that would create a self-loop or a
    duplicate edge (up to n attempts, then the original edge is kept).  The
    undirected result is expanded into two opposed arcs per edge, so the
    arc count is exactly n*k for every beta.

    Draw order: edges are visited j-major (j = 1..k/2, then i = 0..n-1);
    each visit draws one ``rng.random()`` and rewires when it is below
    beta, each attempt drawing ``rng.integers(n)``.  No draws when beta=0.
    These draws are read from the raw words of the stream, which is why
    the stream must be PCG64 (the one ``numpy.random.default_rng`` and
    ``derive_graph_rng`` give); the generator ends where those calls
    would leave it.

    Args:
        n: Node count.
        k: Even lattice degree, 0 < k < n.
        beta: Rewiring probability in [0, 1].
        rng: Seeded random stream; when beta > 0 its bit generator must be
            PCG64, else ValueError.
    """
    GraphSpec("watts_strogatz", n=n, k=k, beta=beta)  # checks the arguments

    # lattice edges in visiting order, each encoded as a*n + b with a < b
    near = np.tile(np.arange(n, dtype=np.int64), k // 2)
    far = (near + np.repeat(np.arange(1, k // 2 + 1, dtype=np.int64), n)) % n
    codes = np.minimum(near, far) * n + np.maximum(near, far)
    if beta > 0.0:
        codes = _rewire(n, near, codes, beta, rng)
    lo, hi = np.divmod(codes, n)
    return Graph(n, np.concatenate([np.stack([lo, hi], axis=1),
                                    np.stack([hi, lo], axis=1)]))


def _rewire(n: int, near: np.ndarray, codes: np.ndarray, beta: float,
            rng: np.random.Generator) -> np.ndarray:
    """Apply the rewiring pass to the lattice edge codes.

    Draw for draw the same as one ``rng.random()`` per edge and one
    ``rng.integers(n)`` per attempt, read from raw PCG64 words by
    :class:`_RawDraws`, which leaves the stream where those calls would.
    """
    draws = _RawDraws(rng, beta)
    edges = set(codes.tolist())
    e, total = 0, codes.size
    while True:
        e += draws.misses(total - e)
        if e == total:
            break
        i, old = int(near[e]), int(codes[e])
        for _ in range(n):
            w = draws.integers(n)
            if w == i:
                continue
            new = i * n + w if i < w else w * n + i
            if new in edges:
                continue
            edges.remove(old)
            edges.add(new)
            break
        # all attempts collided: keep the original edge
        e += 1
    draws.close()
    return np.fromiter(edges, dtype=np.int64, count=len(edges))


_LOW32 = 0xFFFFFFFF


class _RawDraws:
    """``Generator.random()`` < beta and ``Generator.integers(n)`` read from
    the raw 64-bit words of a PCG64 stream, value for value.

    A double takes one word w and is (w >> 11) * 2**-53.  ``integers(n)``,
    for 2 <= n <= 2**32, is Lemire's bounded step over 32-bit reads.  A
    32-bit read takes the cached half if there is one (``has_uint32``),
    else the low half of a fresh word, caching its high half
    (``uinteger``); doubles leave the cache alone.  Words are drawn in
    blocks with ``random_raw``, each block's hits (words whose double is
    below ``beta``) found at once.  ``close`` sets the stream to its start
    plus the words read, with the cache the scalar calls would leave.
    """

    def __init__(self, rng: np.random.Generator, beta: float):
        self.bits = rng.bit_generator
        if type(self.bits) is not np.random.PCG64:
            raise ValueError("watts_strogatz reads raw PCG64 words, so its rng "
                             "needs a PCG64 bit generator, not "
                             f"{type(self.bits).__name__}")
        self.start = self.bits.state
        self.cached, self.half = self.start["has_uint32"], self.start["uinteger"]
        self.beta = beta
        self.words, self.hits, self.pos = [], [], 0  # pos: words read so far

    def _draw(self, size: int) -> None:
        block = self.bits.random_raw(size)
        hits = np.flatnonzero((block >> 11) * 2.0 ** -53 < self.beta)
        self.hits += (hits + len(self.words)).tolist()
        self.words += block.tolist()

    def misses(self, limit: int) -> int:
        """Read doubles up to the first hit, at most ``limit`` of them, and
        return how many missed before it (``limit`` when none hit)."""
        start, end = self.pos, self.pos + limit
        while True:
            h = bisect.bisect_left(self.hits, start)
            if h < len(self.hits) and self.hits[h] < end:
                self.pos = self.hits[h] + 1
                return self.hits[h] - start
            if len(self.words) >= end:
                self.pos = end
                return limit
            # the doubles left, and a half word per expected attempt
            left = end - len(self.words)
            self._draw(left + int(left * self.beta / 2) + 64)

    def _uint32(self) -> int:
        if self.cached:
            self.cached = 0
            return self.half
        if self.pos == len(self.words):
            self._draw(64)
        word = self.words[self.pos]
        self.pos += 1
        self.cached, self.half = 1, word >> 32
        return word & _LOW32

    def integers(self, n: int) -> int:
        m = self._uint32() * n
        if m & _LOW32 < n:
            threshold = (1 << 32) % n
            while m & _LOW32 < threshold:
                m = self._uint32() * n
        return m >> 32

    def close(self) -> None:
        self.bits.state = self.start
        self.bits.advance(self.pos)
        state = self.bits.state
        state["has_uint32"], state["uinteger"] = self.cached, self.half
        self.bits.state = state


def barabasi_albert(n: int, m_attach: int, rng: np.random.Generator,
                    m0: int | None = None) -> Graph:
    """Preferential-attachment graph, expanded to opposed arc pairs.

    Growth starts from a complete undirected clique on m0 nodes (m0 defaults
    to m_attach).  Each new node attaches m_attach undirected edges to
    distinct existing nodes chosen with probability proportional to current
    degree; degrees update after each node's full batch of attachments.

    Args:
        n: Final node count, n > m0.
        m_attach: Edges added per new node, 1 <= m_attach <= m0.
        rng: Seeded random stream.
        m0: Seed clique size.
    """
    GraphSpec("barabasi_albert", n=n, m_attach=m_attach, m0=m0)  # checks the arguments
    if m0 is None:
        m0 = m_attach

    edges: list[tuple[int, int]] = [(a, b) for a in range(m0) for b in range(a + 1, m0)]
    # one entry per degree endpoint; uniform picks from it are degree-weighted
    endpoints: list[int] = [v for e in edges for v in e]

    for v in range(m0, n):
        targets: set[int] = set()
        attempts = 0
        while len(targets) < m_attach:
            if endpoints and attempts < 1000:
                t = endpoints[int(rng.integers(len(endpoints)))]
                attempts += 1
            else:
                # degenerate start (edgeless seed) or pathological rejection
                # streak: fall back to the smallest unused existing node
                t = next(x for x in range(v) if x not in targets)
            targets.add(t)
        for t in sorted(targets):
            edges.append((t, v))
            endpoints.extend((t, v))

    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return Graph(n, np.concatenate([pairs, pairs[:, ::-1]]))


def complete_graph(n: int) -> Graph:
    """All n*(n-1) ordered arcs; n >= 2."""
    GraphSpec("complete", n=n)  # checks the arguments
    idx = np.arange(n)
    src = np.repeat(idx, n - 1)
    dst = np.concatenate([np.delete(idx, i) for i in range(n)])
    return Graph(n, np.stack([src, dst], axis=1))


def directed_cycle(n: int) -> Graph:
    """Arcs i -> (i+1) mod n; every in-degree is 1 (for n=2, a 2-cycle)."""
    GraphSpec("directed_cycle", n=n)  # checks the arguments
    idx = np.arange(n)
    return Graph(n, np.stack([idx, (idx + 1) % n], axis=1))


# -- persistence ------------------------------------------------------------


_SAVE_BLOCK = 65_536  # arcs formatted per write


def save_edge_list(g: Graph, sink: PathOrFile) -> None:
    """Write ``g`` in the edge-list text format (header n, then "v u" lines),
    one block of arcs at a time."""
    if not hasattr(sink, "write"):
        with Path(sink).open("w", encoding="utf-8") as handle:
            save_edge_list(g, handle)
        return
    sink.write(f"{g.n}\n")
    for start in range(0, g.arc_count, _SAVE_BLOCK):
        block = slice(start, start + _SAVE_BLOCK)
        sink.write("".join(f"{v} {u}\n" for v, u in zip(g._arc_src[block].tolist(),
                                                          g._arc_dst[block].tolist())))


def load_edge_list(source: PathOrFile) -> Graph:
    """Parse the edge-list text format back into a Graph.  An EdgeListError
    names the line of malformed text, else that of the arc Graph rejects.

    A plain text (a header of ASCII digits on the first line, then only
    ASCII digits, spaces, tabs and LFs) that holds a valid graph is read by
    numpy's C parser.  Everything else goes to the line parser, which
    accepts the same texts and alone names the offending line.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    plain = _plain_arcs(text)
    if plain is not None:
        try:
            return Graph(*plain)
        except (ArcError, MemoryError):
            pass  # the line parser names the arc's or the header's line
    return _load_lines(text)


def _plain_arcs(text: str) -> tuple[int, np.ndarray] | None:
    """The node count and arc array of a plain edge list, else None."""
    header = text.partition("\n")[0]
    # MAX_NODES has 10 digits; a longer header goes to the line parser
    if not (text.isascii() and header.isdigit() and len(header) <= 10):
        return None
    n = int(header)
    data = text.encode("ascii")
    if not 1 <= n <= MAX_NODES or data.translate(None, b"0123456789 \t\n"):
        return None
    if len(data.translate(None, b" \t\n")) == len(header):  # loadtxt warns on no rows
        return n, np.zeros((0, 2), dtype=np.int64)
    try:  # a changing column count, or an id beyond int64
        arcs = np.loadtxt(io.BytesIO(data), dtype=np.int64, comments=None,
                          skiprows=1, ndmin=2)
    except ValueError:
        return None
    return (n, arcs) if arcs.shape[1] == 2 else None


def _load_lines(text: str) -> Graph:
    """The edge list parsed line by line; errors name their file line."""
    # (file line, stripped text) for each non-blank line
    rows = [(lineno, line) for lineno, raw in enumerate(text.split("\n"), start=1)
            if (line := raw.strip())]
    if not rows:
        raise EdgeListError("empty input: missing node-count header")
    lineno, header = rows[0]
    try:
        n = int(header)
    except ValueError:
        raise EdgeListError(f"header is not an integer: {header!r}", lineno) from None
    if n < 1:
        raise EdgeListError("header node count must be >= 1", lineno)
    if n > MAX_NODES:
        raise EdgeListError(f"header node count must be <= {MAX_NODES}", lineno)

    arcs: list[tuple[int, int]] = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"expected 'v u', got {line!r}", lineno)
        try:
            arcs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise EdgeListError(f"non-integer endpoint in {line!r}", lineno) from None
    try:  # an int64 array skips Graph's per-id check; ids beyond int64 take it
        arcs = np.array(arcs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        pass
    try:
        return Graph(n, arcs)
    except ArcError as exc:
        against = f" for header n={n}" if exc.rule == "out of range" else ""
        raise EdgeListError(f"{exc}{against}", rows[exc.index + 1][0]) from None
    except MemoryError:
        raise EdgeListError("header node count does not fit in memory", rows[0][0]) from None


# -- declarative spec -------------------------------------------------------

# Config typing, shared by every config dataclass.  Field annotations are
# strings here (postponed evaluation), so the leading name picks the rule.
_TYPES = {  # annotation -> (accepted types, stored as, description)
    "int": (numbers.Integral, int, "an integer"),
    "float": (numbers.Real, float, "a number"),
    "bool": (bool, bool, "true or false"),
    "str": (str, str, "a string"),
    "tuple": ((list, tuple), tuple, "a list"),
}


def config_value(key: str, kind: str, value):
    """``value`` checked against config type ``kind`` and stored as it.

    No bool passes for a number, no string for a number, and no float for
    an integer (not even 100.0); an integer passes for a float and becomes
    one.  The ValueError names ``key``.
    """
    accepted, stored_as, description = _TYPES[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind != "bool"):
        raise ValueError(f"{key}: expected {description}, got {value!r}")
    return stored_as(value)


def config_key(f) -> str:
    """A dataclass field's config-document key: its ``key`` metadata, else its name."""
    return f.metadata.get("key", f.name)


def check_field_types(obj) -> None:
    """Apply ``config_value`` to every typed field of a frozen config dataclass.

    ``None`` passes only where the field's default is None.  Errors name
    the field's config key; fields of other types check themselves.
    """
    for f in fields(obj):
        kind = f.type.split(" | ")[0]
        value = getattr(obj, f.name)
        if kind in _TYPES and not (value is None and f.default is None):
            object.__setattr__(obj, f.name, config_value(config_key(f), kind, value))


def _read_file(path: str) -> Graph:
    """Builder of the ``file`` generator, whose one argument is ``path``."""
    return load_edge_list(path)


# generator -> builder; a spec sets exactly the arguments its builder takes
_BUILDERS = {"watts_strogatz": watts_strogatz, "barabasi_albert": barabasi_albert,
             "complete": complete_graph, "directed_cycle": directed_cycle,
             "file": _read_file}
_PARAMETERS = {name: inspect.signature(builder).parameters
               for name, builder in _BUILDERS.items()}
GENERATORS = tuple(_BUILDERS)


@dataclass(frozen=True)
class GraphSpec:
    """Declarative recipe for a diffusion substrate, checked on construction.

    ``generator`` names a builder above (or an alias: ws, ba, cycle); the
    spec sets exactly the arguments that builder takes, optional ones
    (``m0``) may stay unset, and the builder's argument rules hold.  In a
    config document the generator is the ``type`` key.
    """

    generator: str = field(metadata={"key": "type"})
    n: int | None = None
    k: int | None = None
    beta: float | None = None
    m_attach: int | None = None
    m0: int | None = None
    path: str | None = None

    def __post_init__(self):
        check_field_types(self)
        gen = _GENERATOR_ALIASES.get(self.generator, self.generator)
        if gen not in _BUILDERS:
            raise ValueError(f"type: unknown generator {self.generator!r}")
        object.__setattr__(self, "generator", gen)
        params = _PARAMETERS[gen]
        for f in fields(self)[1:]:  # the builder arguments
            value = getattr(self, f.name)
            if f.name not in params and value is not None:
                raise ValueError(f"{f.name}: not applicable to generator {gen!r}")
            if value is None and f.name in params \
                    and params[f.name].default is inspect.Parameter.empty:
                raise ValueError(f"{f.name}: required by generator {gen!r}")
        if gen == "watts_strogatz":
            if self.k % 2 != 0:
                raise ValueError("k: must be even")
            if not 0 < self.k < self.n:
                raise ValueError("k: must satisfy 0 < k < n")
            if not 0.0 <= self.beta <= 1.0:
                raise ValueError("beta: must be within [0, 1]")
        elif gen == "barabasi_albert":
            m0 = self.m_attach if self.m0 is None else self.m0
            if self.m_attach < 1:
                raise ValueError("m_attach: must be >= 1")
            if m0 < self.m_attach:
                raise ValueError("m0: must be >= m_attach")
            if not self.n > m0:
                raise ValueError("n: must exceed m0")
        elif gen != "file" and self.n < 2:
            raise ValueError("n: must be >= 2")
        if self.n is not None and self.n > MAX_NODES:
            raise ValueError(f"n: must be <= {MAX_NODES}")

    @property
    def is_random(self) -> bool:
        """Whether construction consumes random draws."""
        return "rng" in _PARAMETERS[self.generator]


def build_graph(spec: GraphSpec, rng: np.random.Generator | None = None) -> Graph:
    """Materialize a GraphSpec; random generators require ``rng``."""
    if spec.is_random and rng is None:
        raise ValueError(f"generator {spec.generator!r} requires a random stream")
    args = {name: rng if name == "rng" else getattr(spec, name)
            for name in _PARAMETERS[spec.generator]}
    return _BUILDERS[spec.generator](**args)
