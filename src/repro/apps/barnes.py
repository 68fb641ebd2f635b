"""Barnes-Hut N-body analog (SPLASH-2 Barnes).

Reproduces the sharing pattern that makes Barnes the paper's stress case
(§5.2): a **shared octree** rebuilt every step (so the diff volume per
byte of footprint is the largest of the three apps — the paper needed
L = 1.0 for it), **irregular access**, **many barriers per step** (six
phases), and **imbalanced update volume**: bodies are partitioned by
distance from the cluster center, so the process owning the dense core
inserts deeper into the tree, writes more node pages and computes more
interactions — exactly the imbalance that, combined with the
log-overflow checkpointing policy, inflates barrier wait times in the
fault-tolerant run.

The octree is canonical (its shape does not depend on insertion order),
so a sequential golden model reproduces the distributed result bit-for-
bit modulo node numbering — which the result check exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.apps.base import (
    AppConfig,
    DsmApp,
    assert_close,
    block_partition,
    golden,
    phase_loop,
)
from repro.dsm.protocol import DsmProcess

__all__ = ["BarnesConfig", "BarnesApp"]

# node record layout (float64 slots)
F_TYPE = 0  # 0 empty slot, 1 leaf, 2 internal
F_BODY = 1
F_CX, F_CY, F_CZ = 2, 3, 4
F_HALF = 5
F_MASS = 6
F_MX, F_MY, F_MZ = 7, 8, 9
F_CHILD0 = 10
NODE_W = 18
EMPTY, LEAF, INTERNAL = 0.0, 1.0, 2.0

ALLOC_LOCK = 0
OCTANT_LOCK0 = 1  # locks 1..8


@dataclass
class BarnesConfig(AppConfig):
    """Scaled-down Barnes problem (paper: 262,144 bodies, 60 steps)."""

    n_bodies: int = 128
    steps: int = 4
    theta: float = 0.6
    dt: float = 1e-2
    max_nodes: int = 0  # 0 = auto (8 * n_bodies)
    max_depth: int = 24
    alloc_chunk: int = 16
    insert_cost: float = 1e-6  # per level descended
    com_cost: float = 0.5e-6  # per node
    force_cost: float = 1e-6  # per interaction
    softening: float = 1e-2

    def nodes_cap(self) -> int:
        # ~2 internal nodes per body in practice, plus slack for deep
        # splits and per-process chunked allocation (chunks are
        # discarded at each rebuild)
        return self.max_nodes or int(2.5 * self.n_bodies) + 320


def plummer_bodies(cfg: BarnesConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Plummer-sphere initial conditions, sorted by radius (core first)."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_bodies
    u = rng.uniform(0.05, 0.95, n)
    r = 1.0 / np.sqrt(u ** (-2.0 / 3.0) - 1.0)
    costh = rng.uniform(-1, 1, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    sinth = np.sqrt(1 - costh**2)
    pos = (r[:, None]) * np.stack(
        [sinth * np.cos(phi), sinth * np.sin(phi), costh], axis=-1
    )
    order = np.argsort(np.einsum("ij,ij->i", pos, pos))
    pos = pos[order]
    vel = rng.normal(0, 0.02, (n, 3))[order]
    return pos, vel


class _Tree:
    """Octree operations over a flat node array (shared or local).

    Given a ``saved`` dict, the tree snapshots each node row there, by
    index, before its first store into the row: what the row held before
    this tree wrote it, which is what Barnes' insert phase publishes
    against.
    """

    def __init__(
        self,
        nodes: np.ndarray,
        cfg: BarnesConfig,
        saved: Optional[Dict[int, np.ndarray]] = None,
    ) -> None:
        self.nodes = nodes.reshape(-1, NODE_W)
        self.cfg = cfg
        self.saved = saved

    def _store(self, idx: int) -> np.ndarray:
        """Row ``idx``, about to be written (snapshotted first if asked)."""
        rec = self.nodes[idx]
        saved = self.saved
        if saved is not None and idx not in saved:
            saved[idx] = rec.copy()
        return rec

    # -- geometry ---------------------------------------------------------
    @staticmethod
    def octant_of(node_rec: np.ndarray, p: np.ndarray) -> int:
        return (
            (1 if p[0] >= node_rec[F_CX] else 0)
            | (2 if p[1] >= node_rec[F_CY] else 0)
            | (4 if p[2] >= node_rec[F_CZ] else 0)
        )

    @staticmethod
    def child_center(node_rec: np.ndarray, octant: int) -> Tuple[float, float, float, float]:
        h = node_rec[F_HALF] / 2.0
        cx = node_rec[F_CX] + (h if octant & 1 else -h)
        cy = node_rec[F_CY] + (h if octant & 2 else -h)
        cz = node_rec[F_CZ] + (h if octant & 4 else -h)
        return cx, cy, cz, h

    def init_internal(self, idx: int, cx: float, cy: float, cz: float, h: float) -> None:
        rec = self._store(idx)
        rec[:] = 0.0
        rec[F_TYPE] = INTERNAL
        rec[F_CX], rec[F_CY], rec[F_CZ] = cx, cy, cz
        rec[F_HALF] = h
        rec[F_CHILD0 : F_CHILD0 + 8] = -1.0

    def init_leaf(self, idx: int, body: int, cx: float, cy: float, cz: float, h: float) -> None:
        rec = self._store(idx)
        rec[:] = 0.0
        rec[F_TYPE] = LEAF
        rec[F_BODY] = float(body)
        rec[F_CX], rec[F_CY], rec[F_CZ] = cx, cy, cz
        rec[F_HALF] = h
        rec[F_CHILD0 : F_CHILD0 + 8] = -1.0

    # -- insertion (canonical octree; order-independent shape) ------------
    def insert(
        self, root: int, body: int, p: np.ndarray, alloc: "Allocator"
    ) -> int:
        """Insert ``body`` under ``root``; returns levels descended."""
        node = root
        depth = 0
        while True:
            depth += 1
            if depth > self.cfg.max_depth:
                raise RuntimeError("octree depth cap exceeded (coincident bodies?)")
            rec = self.nodes[node]
            oct_ = self.octant_of(rec, p)
            child = int(rec[F_CHILD0 + oct_])
            if child < 0:
                idx = alloc.take()
                cx, cy, cz, h = self.child_center(rec, oct_)
                self.init_leaf(idx, body, cx, cy, cz, h)
                self._store(node)[F_CHILD0 + oct_] = float(idx)
                return depth
            crec = self.nodes[child]
            if crec[F_TYPE] == LEAF:
                # split: the leaf becomes internal; re-descend both bodies
                other = int(crec[F_BODY])
                cx, cy, cz, h = crec[F_CX], crec[F_CY], crec[F_CZ], crec[F_HALF]
                self.init_internal(child, cx, cy, cz, h)
                # the displaced body lands one level down: every slot of
                # the fresh internal node is free
                depth += self.insert(child, other, alloc.pos[other], alloc)
            node = child

    # -- center of mass -----------------------------------------------------
    def compute_com(self, root: int, pos: np.ndarray) -> int:
        """Post-order mass/COM accumulation; returns nodes visited."""
        visited = 0
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            rec = self.nodes[node]
            if rec[F_TYPE] == LEAF:
                b = int(rec[F_BODY])
                rec[F_MASS] = 1.0
                rec[F_MX : F_MZ + 1] = pos[b]
                visited += 1
                continue
            if not expanded:
                stack.append((node, True))
                for o in range(8):
                    child = int(rec[F_CHILD0 + o])
                    if child >= 0:
                        stack.append((child, False))
            else:
                mass = 0.0
                com = np.zeros(3)
                for o in range(8):
                    child = int(rec[F_CHILD0 + o])
                    if child < 0:
                        continue
                    crec = self.nodes[child]
                    mass += crec[F_MASS]
                    com += crec[F_MASS] * crec[F_MX : F_MZ + 1]
                rec[F_MASS] = mass
                rec[F_MX : F_MZ + 1] = com / mass if mass > 0 else 0.0
                visited += 1
        return visited

    # -- force ---------------------------------------------------------------
    def _walk_tables(self) -> Tuple[np.ndarray, List[int], List[List[int]]]:
        """The tree as the walk reads it: ``live`` (a record that is not
        empty and has mass), and as plain lists, because numpy scalar
        reads would dominate the walk, ``leaf_body[node]`` (the body a
        leaf holds, -1 for an internal node) and ``kids[node]`` (an
        internal node's children, high octant first so that octant 0 pops
        first, without the slots the walk would pop and drop: no child,
        or one that is not live). A stale record between allocated ones
        may name a child beyond the pool; nothing reaches either.
        """
        nd = self.nodes
        live = ~((nd[:, F_TYPE] == EMPTY) | (nd[:, F_MASS] <= 0.0))
        leaf_body = np.where(nd[:, F_TYPE] == LEAF, nd[:, F_BODY], -1.0)
        ch = nd[:, F_CHILD0 + 7 : F_CHILD0 - 1 : -1].astype(np.int64)
        keep = (ch >= 0) & (ch < len(nd))
        keep[keep] = live[ch[keep]]
        flat = ch[keep].tolist()
        ends = keep.cumsum()[7::8].tolist()  # kept slots up to each row's end
        return (
            live,
            leaf_body.astype(np.int64).tolist(),
            [flat[s:e] for s, e in zip([0] + ends, ends)],
        )

    def forces(
        self, root: int, bodies: Sequence[int], pos: np.ndarray
    ) -> Tuple[np.ndarray, List[int]]:
        """Accelerations on ``bodies`` (one row each) and the number of
        interactions behind each, over the nodes of this tree's pool.

        Collect, then evaluate: the geometry of every (body, node) pair
        is one block of numpy calls, each body's walk only lists the
        nodes it interacts with, and their contributions are evaluated
        together and summed per body in walk order. Bit for bit the
        per-body scalar loop this replaced, which the unit tests keep as
        the oracle; DESIGN.md ("Barnes force kernel") says which of the
        calls below may not be swapped for a faster one.
        """
        cfg = self.cfg
        nd = self.nodes
        live, leaf_body, kids = self._walk_tables()
        bodies = list(bodies)
        n = len(bodies)
        d = nd[:, F_MX : F_MZ + 1] - pos[bodies][:, None, :]
        r2 = (
            np.matmul(d[:, :, None, :], d[:, :, :, None]).reshape(d.shape[:2])
            + cfg.softening**2
        )
        size = 2.0 * nd[:, F_HALF]
        accepts = (size * size < cfg.theta**2 * r2).tolist()
        start = [root] if live[root] else []
        hits: List[int] = []
        counts: List[int] = []
        for body, accept in zip(bodies, accepts):
            before = len(hits)
            stack = start.copy()
            while stack:
                node = stack.pop()
                held = leaf_body[node]
                if held >= 0:
                    if held != body:
                        hits.append(node)
                elif accept[node]:
                    hits.append(node)
                else:
                    stack.extend(kids[node])
            counts.append(len(hits) - before)
        hit = np.array(hits, dtype=np.intp)
        count = np.array(counts, dtype=np.intp)
        row = np.repeat(np.arange(n), count)
        r2 = r2[row, hit]
        terms = nd[hit, F_MASS, None] * d[row, hit] / (r2 * np.sqrt(r2))[:, None]
        # per body ``0.0 + c0 + c1 + ...`` in walk order: row b of
        # ``padded`` is a zero, then b's terms; b's sum is the running
        # sum where its terms end
        nth = np.arange(len(hit)) - np.repeat(np.cumsum(count) - count, count)
        padded = np.zeros((n, max(counts, default=0) + 1, 3))
        padded[row, nth + 1] = terms
        return np.add.accumulate(padded, axis=1)[np.arange(n), count], counts


class Allocator(NamedTuple):
    """Node allocation front-end: the bodies' positions and the source of
    fresh node ids (a shared-counter chunk or a local counter)."""

    pos: np.ndarray
    take: Callable[[], int]


def reference_barnes(cfg: BarnesConfig) -> np.ndarray:
    """Sequential golden model; bitwise-identical physics."""
    pos, vel = plummer_bodies(cfg)
    n = cfg.n_bodies
    nodes = np.zeros(cfg.nodes_cap() * NODE_W)
    tree = _Tree(nodes, cfg)
    for _ in range(cfg.steps):
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        center = (lo + hi) / 2.0
        half = float((hi - lo).max() / 2.0 * 1.01 + 1e-9)
        counter = [0]

        def take() -> int:
            counter[0] += 1
            if counter[0] >= cfg.nodes_cap():
                raise RuntimeError("node pool exhausted")
            return counter[0]

        alloc = Allocator(pos, take)
        root = take()
        tree.init_internal(root, center[0], center[1], center[2], half)
        for b in range(n):
            tree.insert(root, b, pos[b], alloc)
        tree.compute_com(root, pos)
        # the pool keeps earlier steps' records beyond this step's ids
        allocated = _Tree(nodes[: (counter[0] + 1) * NODE_W], cfg)
        acc, _ = allocated.forces(root, range(n), pos)
        vel += cfg.dt * acc
        pos = pos + cfg.dt * vel
    return pos


class BarnesApp(DsmApp):
    name = "barnes"
    Config = BarnesConfig

    # ------------------------------------------------------------------
    def configure(self, cluster: Any) -> None:
        cfg = self.cfg
        n = cfg.n_bodies
        self.r_pos = cluster.allocate("pos", n * 3)
        self.r_vel = cluster.allocate("vel", n * 3)
        self.r_acc = cluster.allocate("acc", n * 3)
        self.r_nodes = cluster.allocate("nodes", cfg.nodes_cap() * NODE_W)
        # [next_free, root, bbox per proc (6 each)]
        self.r_meta = cluster.allocate("meta", 2 + cluster.config.num_procs * 6)

    def init_shared(self, cluster: Any) -> None:
        pos, vel = plummer_bodies(self.cfg)
        cluster.write_initial(self.r_pos, pos.ravel())
        cluster.write_initial(self.r_vel, vel.ravel())

    # ------------------------------------------------------------------
    def run(self, proc: DsmProcess, state: Dict[str, Any]) -> Iterator[Any]:
        cfg = self.cfg
        n = cfg.n_bodies
        part = block_partition(n, proc.n, proc.pid)
        app = self

        def phase_bbox(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            flat = yield from proc.read_range(app.r_pos, part.start * 3, part.stop * 3)
            p = flat.reshape(-1, 3)
            base = 2 + proc.pid * 6
            view = yield from proc.write_range(app.r_meta, base, base + 6)
            view[0:3] = p.min(axis=0)
            view[3:6] = p.max(axis=0)
            yield from proc.barrier()

        def phase_treeinit(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            if proc.pid == 0:
                meta = yield from proc.read_range(
                    app.r_meta, 2, 2 + proc.n * 6
                )
                boxes = meta.reshape(proc.n, 6)
                lo = boxes[:, 0:3].min(axis=0)
                hi = boxes[:, 3:6].max(axis=0)
                center = (lo + hi) / 2.0
                half = float((hi - lo).max() / 2.0 * 1.01 + 1e-9)
                head = yield from proc.write_range(app.r_meta, 0, 2)
                root = 1
                head[0] = 2.0  # next free node
                head[1] = float(root)
                nview = yield from proc.write_range(
                    app.r_nodes, root * NODE_W, (root + 1) * NODE_W
                )
                tree = _Tree(nview, cfg)
                tree.init_internal(0, center[0], center[1], center[2], half)
                yield from proc.compute(cfg.com_cost * 4)
            yield from proc.barrier()

        def phase_insert(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            flat = yield from proc.read_range(app.r_pos, 0, n * 3)
            pos = flat.reshape(n, 3).copy()
            head = yield from proc.read_range(app.r_meta, 0, 2)
            root = int(head[1])
            rootrec = (
                yield from proc.read_range(
                    app.r_nodes, root * NODE_W, (root + 1) * NODE_W
                )
            ).copy()
            # group own bodies by top-level octant; one lock hold per octant
            octs: Dict[int, List[int]] = {}
            for b in part:
                octs.setdefault(_Tree.octant_of(rootrec, pos[b]), []).append(b)

            chunk: List[int] = []

            def take() -> int:
                if not chunk:
                    raise RuntimeError(
                        "node chunk ran dry mid-insert; raise alloc_chunk "
                        "(pathologically deep split)"
                    )
                return chunk.pop(0)

            alloc = Allocator(pos, take)
            need = cfg.alloc_chunk  # headroom for one insertion's splits

            def refill() -> Iterator[Any]:
                # grab node ids from the shared counter in chunks
                yield from proc.acquire(ALLOC_LOCK)
                hview = yield from proc.write_range(app.r_meta, 0, 1)
                start = int(hview[0])
                take_n = max(cfg.alloc_chunk, need)
                if start + take_n > cfg.nodes_cap():
                    raise RuntimeError("node pool exhausted")
                hview[0] = float(start + take_n)
                yield from proc.release(ALLOC_LOCK)
                chunk.extend(range(start, start + take_n))

            for oct_ in sorted(octs):
                yield from proc.acquire(OCTANT_LOCK0 + oct_)
                nview = yield from proc.read_range(
                    app.r_nodes, 0, cfg.nodes_cap() * NODE_W
                )
                tree = _Tree(nview.copy(), cfg, saved={})
                levels = 0
                for b in octs[oct_]:
                    if len(chunk) < need:
                        yield from refill()
                    levels += tree.insert(root, b, pos[b], alloc)
                # publish exactly the *elements* this process changed, row
                # by ascending row — a bulk copy-back would also write stale
                # unchanged bytes, which on the writer's own homed pages
                # would clobber concurrently applied remote diffs
                saved = tree.saved
                for idx in sorted(saved):
                    row = tree.nodes[idx]
                    stored = row != saved[idx]
                    if np.logical_or.reduce(stored):
                        lo = idx * NODE_W
                        view = yield from proc.write_range(
                            app.r_nodes, lo, lo + NODE_W
                        )
                        view[stored] = row[stored]
                yield from proc.compute(cfg.insert_cost * max(levels, 1))
                yield from proc.release(OCTANT_LOCK0 + oct_)
            yield from proc.barrier()

        def phase_com(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            if proc.pid == 0:
                flat = yield from proc.read_range(app.r_pos, 0, n * 3)
                pos = flat.reshape(n, 3).copy()
                head = yield from proc.read_range(app.r_meta, 0, 2)
                root, used = int(head[1]), int(head[0])
                nview = yield from proc.write_range(
                    app.r_nodes, 0, used * NODE_W
                )
                tree = _Tree(nview, cfg)
                visited = tree.compute_com(root, pos)
                yield from proc.compute(cfg.com_cost * visited)
            yield from proc.barrier()

        def phase_force(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            flat = yield from proc.read_range(app.r_pos, 0, n * 3)
            pos = flat.reshape(n, 3).copy()
            head = yield from proc.read_range(app.r_meta, 0, 2)
            root, used = int(head[1]), int(head[0])
            nview = yield from proc.read_range(app.r_nodes, 0, cfg.nodes_cap() * NODE_W)
            tree = _Tree(nview[: used * NODE_W].copy(), cfg)
            aview = yield from proc.write_range(
                app.r_acc, part.start * 3, part.stop * 3
            )
            acc, counts = tree.forces(root, part, pos)
            aview.reshape(-1, 3)[:] = acc
            yield from proc.compute(cfg.force_cost * max(sum(counts), 1))
            yield from proc.barrier()

        def phase_advance(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            aview = yield from proc.read_range(app.r_acc, part.start * 3, part.stop * 3)
            vview = yield from proc.write_range(app.r_vel, part.start * 3, part.stop * 3)
            pview = yield from proc.write_range(app.r_pos, part.start * 3, part.stop * 3)
            vview += cfg.dt * aview
            pview += cfg.dt * vview
            yield from proc.barrier()

        yield from phase_loop(
            proc,
            state,
            cfg.steps,
            [
                phase_bbox,
                phase_treeinit,
                phase_insert,
                phase_com,
                phase_force,
                phase_advance,
            ],
        )

    # ------------------------------------------------------------------
    def check_result(self, cluster: Any) -> None:
        got = cluster.shared_snapshot(self.r_pos)[: self.cfg.n_bodies * 3]
        want = golden(reference_barnes, self.cfg).ravel()
        assert_close(got, want, rtol=1e-9, atol=1e-12)
