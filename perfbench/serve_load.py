"""The ``serve-orbit`` workload: seeded request stream, closed-loop driver.

Inputs come from the seed alone and are built here, without the
program:

* each of the 2 connections owns a disjoint set of orbit
  representatives under the mixed-polarity MCT library (``mpmct``):
  3-line random permutations and 4-line random MCT cascades of 3-5
  gates, picked so every connection gets the same mix of minimal
  depths and solution counts (``PROFILE``);
* every representative's minimal depth and number of minimal cascades
  are computed here by a meet-in-the-middle search over the library, an
  oracle independent of the synthesis engines;
* the connection then sends random orbit variants of its
  representatives (a signed line permutation, optionally inverted) in a
  seeded order.  The first request of an orbit is a miss that
  synthesizes and commits; every later one is a store hit, replayed
  into the requester's frame.

Each connection owns its orbits, so the number of syntheses is fixed by
the stream.  Replies are checked in the requester's frame after the
pass: each reply carries the representative's depth and solution count,
and every circuit realizes the requested permutation with that many
gates.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

CONNECTIONS = 2
#: One connection's representatives as ``(lines, minimal depth, fewest
#: and most minimal cascades)``.  Synthesis time grows with the depth and
#: replay time with the number of stored circuits, so every connection
#: and every seed gets the same mix of both.
PROFILE = ((3, 4, 2, 4), (3, 4, 2, 4), (3, 5, 10, 14), (3, 5, 10, 14),
           (4, 3, 2, 4), (4, 3, 2, 4), (4, 3, 2, 4), (4, 4, 4, 6))
#: Requests per orbit: one synthesis, then replays.
REQUESTS_PER_ORBIT = 20
KINDS = "mpmct"
#: The warm-up request sent during set-up (the 3_17 permutation); its
#: orbit is kept out of the stream.
WARMUP_PERM = (7, 1, 4, 3, 0, 2, 6, 5)

Table = Tuple[int, ...]


# -- the mpmct library and its depth oracle ------------------------------------

def mpmct(n: int) -> List[Tuple[int, int, int]]:
    """Gates as ``(control mask, control values, target)``."""
    gates = []
    for target in range(n):
        others = [line for line in range(n) if line != target]
        for pattern in itertools.product((0, 1, 2), repeat=n - 1):
            mask = sum(1 << line for line, p in zip(others, pattern) if p)
            value = sum(1 << line for line, p in zip(others, pattern)
                        if p == 1)
            gates.append((mask, value, target))
    return gates


def gate_tables(n: int) -> List[Table]:
    return [tuple(x ^ (1 << t) if x & mask == value else x
                  for x in range(1 << n))
            for mask, value, t in mpmct(n)]


def _ball(start: Table, gates: List[Table],
          radius: int) -> Dict[Table, Tuple[int, int]]:
    """``table -> (distance, number of shortest gate paths)`` for every
    table within ``radius`` gates of ``start``."""
    seen = {start: (0, 1)}
    frontier = [start]
    for step in range(1, radius + 1):
        grown = []
        for table in frontier:
            paths = seen[table][1]
            for gate in gates:
                nxt = tuple(gate[v] for v in table)
                known = seen.get(nxt)
                if known is None:
                    seen[nxt] = (step, paths)
                    grown.append(nxt)
                elif known[0] == step:
                    seen[nxt] = (step, known[1] + paths)
        frontier = grown
    return seen


class DepthOracle:
    """Exact minimal ``mpmct`` depth and number of minimal cascades, up
    to ``radius + back`` gates, by meeting in the middle."""

    def __init__(self, n: int, radius: int, back: int):
        self.gates = gate_tables(n)
        self.radius = radius
        self.back = back
        self.near = _ball(tuple(range(1 << n)), self.gates, radius)

    def solve(self, table: Table) -> Optional[Tuple[int, int]]:
        """``(depth, solutions)``, or None beyond ``radius + back`` gates.

        Every minimal cascade of ``depth`` gates passes, after its first
        ``k = min(depth, radius)`` gates, through exactly one middle
        table, reached minimally from both ends.
        """
        back = _ball(table, self.gates, self.back)
        depth = min((steps + self.near[middle][0]
                     for middle, (steps, _) in back.items()
                     if middle in self.near), default=None)
        if depth is None:
            return None
        split = min(depth, self.radius)
        solutions = sum(paths * self.near[middle][1]
                        for middle, (steps, paths) in back.items()
                        if steps == depth - split
                        and self.near.get(middle, (None,))[0] == split)
        return depth, solutions


# -- orbit actions ----------------------------------------------------------------

def signed(n: int, perm: Sequence[int], mask: int, x: int) -> int:
    """Negate the lines in ``mask``, then move line ``i`` to ``perm[i]``."""
    x ^= mask
    return sum(((x >> i) & 1) << p for i, p in enumerate(perm))


def variant(table: Table, n: int, perm: Sequence[int], mask: int,
            invert: bool) -> Table:
    """``S o T o S^-1`` with ``T`` inverted first when ``invert``."""
    if invert:
        inverse = [0] * len(table)
        for x, y in enumerate(table):
            inverse[y] = x
        table = tuple(inverse)
    out = [0] * len(table)
    for x, y in enumerate(table):
        out[signed(n, perm, mask, x)] = signed(n, perm, mask, y)
    return tuple(out)


def canonical(table: Table, n: int) -> Table:
    return min(variant(table, n, perm, mask, invert)
               for perm in itertools.permutations(range(n))
               for mask in range(1 << n) for invert in (False, True))


def random_variant(rng: random.Random, table: Table, n: int) -> Table:
    perm = list(range(n))
    rng.shuffle(perm)
    return variant(table, n, perm, rng.randrange(1 << n),
                   rng.random() < 0.5)


def random_cascade(rng: random.Random, n: int, length: int) -> Table:
    """The permutation of a random MCT cascade (no repeated neighbours)."""
    gates: List[Tuple[int, int]] = []
    while len(gates) < length:
        target = rng.randrange(n)
        controls = sum(1 << line for line in range(n)
                       if line != target and rng.random() < 0.5)
        if not gates or gates[-1] != (controls, target):
            gates.append((controls, target))
    table = []
    for x in range(1 << n):
        for controls, target in gates:
            if x & controls == controls:
                x ^= 1 << target
        table.append(x)
    return tuple(table)


# -- the stream --------------------------------------------------------------------

def make_stream(seed: int) -> Dict:
    """Representatives and per-connection request lists for ``seed``."""
    rng = random.Random(seed)
    oracles = {3: DepthOracle(3, 3, 2), 4: DepthOracle(4, 2, 2)}
    taken = {canonical(WARMUP_PERM, 3)}
    reps: List[Dict] = []
    connections: List[List[Dict]] = []
    for conn in range(CONNECTIONS):
        owned = []
        for n, depth, fewest, most in PROFILE:
            while True:
                if n == 3:
                    table = tuple(rng.sample(range(8), 8))
                else:
                    table = random_cascade(rng, n, rng.randint(3, 5))
                solved = oracles[n].solve(table)
                if (solved is None or solved[0] != depth
                        or not fewest <= solved[1] <= most):
                    continue
                key = canonical(table, n)
                if key not in taken:
                    taken.add(key)
                    break
            owned.append(len(reps))
            reps.append({"n": n, "table": table, "depth": depth,
                         "solutions": solved[1]})
        requests = [{"orbit": index,
                     "perm": random_variant(rng, reps[index]["table"],
                                            reps[index]["n"])}
                    for index in owned for _ in range(REQUESTS_PER_ORBIT)]
        rng.shuffle(requests)
        seen = set()
        for request in requests:
            request["first"] = request["orbit"] not in seen
            seen.add(request["orbit"])
        connections.append(requests)
    return {"reps": reps, "connections": connections}


# -- driving a daemon ----------------------------------------------------------------

def connect(address: str, timeout: float = 60.0):
    """A client on ``address``, retrying until the daemon listens."""
    from repro.serve import ServeClient

    deadline = time.perf_counter() + timeout
    while True:
        try:
            return ServeClient(address, timeout=120.0)
        except (ConnectionError, OSError):
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.01)


def warm_up(address: str) -> None:
    """Wait until the daemon answers, then send the warm-up request."""
    with connect(address) as client:
        reply = client.synth_wait(perm=list(WARMUP_PERM), kinds=KINDS,
                                  engine="bdd")
        if reply.get("type") != "result":
            raise RuntimeError(f"warm-up request failed: {reply}")


def drive(address: str, stream: Dict) -> Dict:
    """Run the stream closed-loop, one thread per connection."""
    outcomes: List[List[Tuple[float, Dict]]] = [
        [] for _ in stream["connections"]]
    failures: List[BaseException] = []

    def loop(index: int) -> None:
        try:
            with connect(address) as client:
                for request in stream["connections"][index]:
                    began = time.perf_counter()
                    reply = client.synth_wait(perm=list(request["perm"]),
                                              kinds=KINDS, engine="bdd")
                    outcomes[index].append((time.perf_counter() - began,
                                            reply))
        except (ConnectionError, OSError, ValueError) as exc:
            failures.append(exc)

    threads = [threading.Thread(target=loop, args=(index,))
               for index in range(len(stream["connections"]))]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    return {"wall_s": wall, "outcomes": outcomes,
            "errors": [repr(exc) for exc in failures]}


def check(stream: Dict, driven: Dict) -> Tuple[List[Dict], int]:
    """Per-request samples ``{s, kind, ok}`` and the failure count.

    A reply fails when it is not a result, came from the wrong path
    (synthesis for a repeat or store for a first request), reports a
    depth or solution count other than the oracle's for its orbit, or
    carries a circuit that does not realize the requested permutation in
    the requester's frame with exactly that many gates.
    """
    from repro.core.realfmt import parse_real

    samples: List[Dict] = []
    failed = 0
    for requests, outcomes in zip(stream["connections"], driven["outcomes"]):
        failed += len(requests) - len(outcomes)
        for request, (elapsed, reply) in zip(requests, outcomes):
            rep = stream["reps"][request["orbit"]]
            expected_path = "synthesis" if request["first"] else "store"
            ok = (reply.get("type") == "result"
                  and reply.get("status") == "realized"
                  and reply.get("served") == expected_path
                  and reply.get("depth") == rep["depth"]
                  and reply.get("num_solutions") == rep["solutions"]
                  and len(reply.get("circuits") or ()) == rep["solutions"])
            if ok:
                for text in reply["circuits"]:
                    circuit, _ = parse_real(text)
                    if (len(circuit) != rep["depth"]
                            or circuit.permutation() != request["perm"]):
                        ok = False
                        break
            failed += not ok
            samples.append({"s": elapsed, "ok": ok,
                            "kind": "synth" if request["first"] else "replay"})
    return samples, failed
