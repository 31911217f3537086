"""Deterministic span trees over the modeled SimWorld clock.

The paper's analysis (Fig. 5 breakdown, Table 3 speedups) is about
*where time goes per rank per phase*.  A :class:`Tracer` captures that as
one structured tree per run::

    run
      stage (CountKmer, DetectOverlap, ...)
        superstep k          -- one map_ranks launch
          rank r             -- that rank's buffered compute lane
            kernel spans     -- ctx.span("sort") sections inside the step
        collective (bcast, alltoallv, ...)
        stall                -- injected straggler seconds

Every span is stamped with the **modeled** clock: the tracer keeps one
cursor per rank and advances it with BSP semantics -- a superstep starts
at the barrier (max cursor over ranks), each rank's lane runs for its
buffered compute seconds, a collective synchronizes its participants.
Modeled charges are deterministic (buffered per rank, merged in rank
order), so the span tree is too: :meth:`Tracer.digest` hashes the tree
*excluding wall time* and must agree across runs.
Wall-clock readings ride along on the ``wall`` attribute for profiling
but never enter the identity.

The tracer is driven from two sides, both on the driver thread (the
runtime already forbids collectives and world charges inside rank steps):

* the world it is attached to: :meth:`~repro.mpi.comm.SimWorld.map_ranks`
  calls :meth:`superstep` with the rank contexts before the
  accounting merge, and :meth:`~repro.mpi.comm.SimComm._charge` calls
  :meth:`collective` -- ``if world.tracer is not None`` guards, so an
  untraced run pays one attribute read per site;
* the pipeline engine, to which a tracer is just one more observer
  (``Pipeline.run(..., observers=[tracer])``): the ``on_*`` hooks attach
  it for the run, bracket stages with :meth:`begin_stage` /
  :meth:`end_stage` (or :meth:`fail_stage` on a recovered rank failure,
  so every retry attempt is visible) and record skips.  They are
  duck-typed, not inherited: ``mpi.comm`` imports this package, so this
  module cannot import the engine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.comm import SimWorld
    from ..mpi.executor import RankContext

__all__ = ["Span", "Tracer", "TelemetryError"]


class TelemetryError(ReproError):
    """Invalid tracer usage (unattached tracer, unbalanced stages)."""


@dataclass
class Span:
    """One node of the trace tree.

    ``t0``/``t1`` are modeled seconds since run start; ``rank`` is set on
    per-rank lanes (kernel/stall spans) and ``None`` on whole-world nodes.
    ``wall`` is the optional wall-clock duration of the same section --
    informational only, excluded from :meth:`to_dict` unless asked and
    never part of the tree's identity digest.
    """

    name: str
    cat: str  # run | stage | superstep | rank | kernel | collective | stall
    t0: float
    t1: float
    rank: int | None = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    wall: float | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self, include_wall: bool = False) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
        }
        if self.rank is not None:
            out["rank"] = int(self.rank)
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if include_wall and self.wall is not None:
            out["wall"] = self.wall
        if self.children:
            out["children"] = [
                c.to_dict(include_wall=include_wall) for c in self.children
            ]
        return out

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Builds one deterministic span tree per attached run.

    Usage with the pipeline engine::

        tracer = Tracer()
        pipeline.run(reads, cfg, observers=[tracer])
        tracer.digest()                # wall-free identity

    or standalone over a bare world::

        tracer = Tracer().attach(world)
        world.map_ranks(step, payloads)
        world.comm.allgather(parts)
        tracer.digest()
    """

    def __init__(self, nprocs: int | None = None) -> None:
        self.nprocs = nprocs
        self._cursor: np.ndarray | None = (
            np.zeros(nprocs) if nprocs is not None else None
        )
        self._root: Span | None = None
        self._open: list[Span] = []
        self._superstep_idx: dict[str, int] = {}
        self._world: "SimWorld | None" = None
        self._prev_tracer: Any = None
        self._failed_attempts = 0  # of the stage being retried, else 0

    # -- attachment ------------------------------------------------------
    def attach(self, world: "SimWorld") -> "Tracer":
        """Bind to ``world`` (sets ``world.tracer``); returns self.

        The previously attached tracer (usually ``None``) is remembered
        and restored by :meth:`detach`.
        """
        if self.nprocs is None:
            self.nprocs = world.nprocs
            self._cursor = np.zeros(world.nprocs)
        elif self.nprocs != world.nprocs:
            raise TelemetryError(
                f"tracer built for {self.nprocs} ranks cannot attach to a "
                f"world of {world.nprocs}"
            )
        self._prev_tracer = world.tracer
        world.tracer = self
        self._world = world
        return self

    def detach(self) -> None:
        if self._world is not None:
            self._world.tracer = self._prev_tracer
            self._world = None
            self._prev_tracer = None

    # -- pipeline observer hooks (see repro.pipeline.PipelineObserver) ----
    def on_run_start(self, ctx) -> None:
        self.begin_run(nprocs=ctx.world.nprocs, machine=ctx.machine.name)
        self.attach(ctx.world)

    def on_run_end(self, ctx, wall_seconds: float) -> None:
        self.end_run(wall=wall_seconds)
        self.detach()

    def on_stage_start(self, stage: str, ctx) -> None:
        n = self._failed_attempts
        self.begin_stage(stage, **({"attempt": n} if n else {}))

    def on_stage_end(self, stage: str, ctx, timing) -> None:
        self._failed_attempts = 0
        self.end_stage(wall=timing.wall_seconds)

    def on_stage_skip(self, stage: str, ctx, reason: str) -> None:
        self.skip_stage(stage, reason)

    def on_stage_fail(self, stage: str, ctx, exc, attempt: int) -> None:
        self._failed_attempts = attempt
        self.fail_stage(type(exc).__name__, attempt)

    # -- internals -------------------------------------------------------
    def _cursors(self) -> np.ndarray:
        if self._cursor is None:
            raise TelemetryError(
                "tracer is not attached; call attach(world) or pass nprocs"
            )
        return self._cursor

    def _now(self, ranks: Sequence[int] | None = None) -> float:
        """The barrier time: max cursor over (the given) ranks."""
        cur = self._cursors()
        if ranks is None:
            return float(cur.max()) if cur.size else 0.0
        idx = list(ranks)
        return float(cur[idx].max()) if idx else 0.0

    def _container(self) -> Span:
        """The currently open span; an implicit run root if none."""
        if not self._open:
            if self._root is None:
                self._root = Span("run", "run", 0.0, 0.0)
            self._open.append(self._root)
        return self._open[-1]

    # -- run / stage brackets -------------------------------------------
    def begin_run(self, name: str = "run", **attrs) -> None:
        if self._root is not None:
            raise TelemetryError("tracer already holds a run; use a fresh one")
        self._root = Span(name, "run", 0.0, 0.0, attrs=dict(attrs))
        self._open = [self._root]

    def begin_stage(self, name: str, **attrs) -> None:
        t = self._now()
        span = Span(name, "stage", t, t, attrs=dict(attrs))
        self._container().children.append(span)
        self._open.append(span)

    def end_stage(self, wall: float | None = None) -> None:
        if len(self._open) < 2:
            raise TelemetryError("end_stage without a matching begin_stage")
        span = self._open.pop()
        span.t1 = max(span.t0, self._now())
        span.wall = wall

    def fail_stage(self, error: str, attempt: int) -> None:
        """Close the open stage span after a recovered rank failure.

        The failed superstep itself charged nothing (accounting is
        transactional), so the span covers only the successful supersteps
        of this attempt; the retry opens a fresh stage span.
        """
        if len(self._open) < 2:
            raise TelemetryError("fail_stage without a matching begin_stage")
        span = self._open.pop()
        span.t1 = max(span.t0, self._now())
        span.attrs["failed"] = error
        span.attrs["attempt"] = attempt

    def skip_stage(self, name: str, reason: str) -> None:
        """A zero-width marker for a stage the engine did not execute."""
        t = self._now()
        self._container().children.append(
            Span(name, "stage", t, t, attrs={"skipped": reason})
        )

    # -- runtime hooks ---------------------------------------------------
    def superstep(
        self,
        stage: str,
        ctxs: Sequence["RankContext"],
        wall: float | None = None,
    ) -> None:
        """Record one map_ranks launch from the parent-side rank contexts.

        Called at the barrier, before the world applies the contexts'
        buffers.
        Each rank's lane starts at the superstep barrier and runs for the
        sum of its buffered compute seconds; named ``ctx.span`` sections
        become kernel children laid end to end inside the lane.  Everything
        the superstep charged belongs to ``stage``, the stage open when it
        started.
        """
        cur = self._cursors()
        t0 = self._now()
        k = self._superstep_idx.get(stage, 0)
        self._superstep_idx[stage] = k + 1
        node = Span(
            f"superstep {k}", "superstep", t0, t0,
            attrs={"stage": stage},
            wall=wall,
        )
        t1 = t0
        for ctx in ctxs:
            r = int(ctx)
            total = float(sum(ctx._compute))
            named = ctx._spans
            if total == 0.0 and not named:
                cur[r] = max(cur[r], t0)
                continue
            lane = Span(f"rank {r}", "rank", t0, t0 + total, rank=r)
            t = t0
            for rec in named:
                lane.children.append(
                    Span(
                        rec.name, "kernel", t, t + rec.modeled, rank=r,
                        wall=rec.wall,
                    )
                )
                t += rec.modeled
            node.children.append(lane)
            cur[r] = t0 + total
            t1 = max(t1, t0 + total)
        node.t1 = t1
        self._container().children.append(node)

    def collective(
        self,
        op: str,
        stage: str,
        ranks: Sequence[int],
        seconds: float,
        total_bytes: int,
        max_bytes: int,
        messages: int,
    ) -> None:
        """Record one SimComm collective; synchronizes its participants."""
        cur = self._cursors()
        idx = list(ranks)
        t0 = self._now(idx)
        t1 = t0 + seconds
        cur[idx] = t1
        self._container().children.append(
            Span(
                op, "collective", t0, t1,
                attrs={
                    "stage": stage,
                    "ranks": [int(r) for r in idx],
                    "total_bytes": int(total_bytes),
                    "max_bytes": int(max_bytes),
                    "messages": int(messages),
                },
            )
        )

    def compute_all(self, seconds_per_rank) -> None:
        """Advance every rank's cursor for a ``world.charge_compute_all``.

        Emits no span -- direct charges between supersteps are the bulk
        path; the enclosing stage span absorbs them.
        """
        self._cursors()[:] += np.asarray(seconds_per_rank, dtype=np.float64)

    def stall(self, stage: str, rank: int, seconds: float) -> None:
        """Record injected straggler seconds charged to one rank."""
        cur = self._cursors()
        t0 = float(cur[rank])
        cur[rank] = t0 + seconds
        self._container().children.append(
            Span(
                "stall", "stall", t0, t0 + seconds, rank=int(rank),
                attrs={"stage": stage},
            )
        )

    def end_run(self, wall: float | None = None) -> None:
        """Close every open span (stages left open by an error included)."""
        t = self._now() if self._cursor is not None else 0.0
        while len(self._open) > 1:
            span = self._open.pop()
            span.t1 = max(span.t0, t)
        if self._root is not None:
            self._root.t1 = max(self._root.t0, t)
            if wall is not None:
                self._root.wall = wall
            self._open = []

    # -- queries ---------------------------------------------------------
    @property
    def root(self) -> Span:
        if self._root is None:
            raise TelemetryError("tracer recorded nothing")
        return self._root

    def spans(self) -> Iterator[Span]:
        """Every span, depth-first from the root."""
        return self.root.walk()

    def tree(self, include_wall: bool = False) -> dict:
        """The trace as nested dicts (modeled clock only by default)."""
        return self.root.to_dict(include_wall=include_wall)

    def digest(self) -> str:
        """SHA-256 of the canonical tree, wall times excluded.

        Two runs produced identical modeled traces iff their digests
        match -- the property the identity pins gate on.
        """
        blob = json.dumps(
            self.tree(include_wall=False), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()
