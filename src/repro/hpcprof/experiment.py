"""The experiment database object — what ``hpcviewer`` opens.

An :class:`Experiment` bundles the metric table, the static structure
model, the canonical CCT, and (for parallel runs) the per-rank CCTs, and
offers the high-level operations of the paper:

* construct any of the three views;
* define derived metrics by formula;
* run hot path analysis;
* summarize per-rank metrics.

This is the primary entry point of the library's public API::

    from repro import Experiment
    exp = Experiment.from_program(my_synthetic_program)
    view = exp.calling_context_view()
    result = exp.hot_path("cycles")
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.core.attribution import attribute
from repro.core.callers import CallersView
from repro.core.cct import CCT, CCTNode
from repro.core.ccview import CallingContextView
from repro.core.derived import define_derived
from repro.errors import MetricError, ViewError
from repro.core.flat import FlatView
from repro.core.hotpath import DEFAULT_THRESHOLD, HotPathResult, hot_path
from repro.core.metrics import MetricDescriptor, MetricFlavor, MetricSpec, MetricTable
from repro.core.views import View, ViewNode
from repro.hpcprof.correlate import Correlator, rank_tree
from repro.hpcprof.merge import collect_rank_vectors
from repro.hpcprof.summarize import SummaryIds, summarize_ranks
from repro.hpcrun.profile_data import ProfileData
from repro.hpcstruct.model import StructureModel

__all__ = ["Experiment"]


class Experiment:
    """One measured (or simulated) execution, ready for presentation."""

    def __init__(
        self,
        name: str,
        metrics: MetricTable,
        structure: StructureModel,
        cct: CCT,
        rank_ccts: Sequence[CCT] | None = None,
    ) -> None:
        self.name = name
        self.metrics = metrics
        self.structure = structure
        self.cct = cct
        self._rank_ccts: list[CCT] | None = list(rank_ccts) if rank_ccts else None
        for tree in [cct, *(self._rank_ccts or ())]:
            self._pin(tree)
        #: per-rank ``Correlator.add_rank`` leaves, until the trees are built
        self._rank_leaves: list | None = None
        self._rank_lock = threading.Lock()
        self._summaries: dict[int, SummaryIds] = {}

    @property
    def rank_ccts(self) -> list[CCT] | None:
        """Per-rank trees of a parallel run (None for serial).

        :meth:`from_profiles` builds them from the union on first read;
        concurrent first readers build them once.
        """
        if self._rank_leaves is not None:
            with self._rank_lock:
                if self._rank_leaves is not None:
                    trees = [rank_tree(leaves) for leaves in self._rank_leaves]
                    for tree in trees:
                        self._pin(tree)
                        attribute(tree)
                    self._rank_ccts = trees
                    self._rank_leaves = None
        return self._rank_ccts

    def _pin(self, tree: CCT) -> None:
        """Let *tree* keep this experiment's structure model alive (its
        scopes' file and procedure walks go through the model)."""
        if tree.structure is None:
            tree.structure = self.structure

    @property
    def engine(self):
        """The columnar :class:`~repro.core.engine.MetricEngine` over the
        combined CCT, rebuilt transparently after mutation or metric-table
        growth; ``None`` for metric-less experiments.  Views built by this
        experiment carry it so totals, sorting, and hot-path descent read
        from the matrices instead of per-node dicts."""
        from repro.core.engine import engine_for

        return engine_for(self.cct, len(self.metrics))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_profile(
        cls,
        profile: ProfileData,
        structure: StructureModel,
        name: str = "",
    ) -> "Experiment":
        """Correlate one profile into an experiment (serial run)."""
        return cls._correlated([profile], structure, name, keep_ranks=False)

    @classmethod
    def from_profiles(
        cls,
        profiles: Sequence[ProfileData],
        structure: StructureModel,
        name: str = "",
    ) -> "Experiment":
        """Correlate per-rank profiles into their union (parallel run).

        One correlator fuses every rank's paths, in rank order, straight
        into the union tree, which is attributed once.  The values equal
        correlating each rank on its own and merging with
        :func:`~repro.hpcprof.merge.merge_ccts`, bit for bit.  The
        per-rank trees (for load-imbalance charts and summaries) are
        built only when :attr:`rank_ccts` is first read.
        """
        if not profiles:
            raise MetricError("need at least one profile")
        return cls._correlated(profiles, structure, name, keep_ranks=True)

    @classmethod
    def _correlated(cls, profiles, structure, name, keep_ranks: bool):
        """The one construction path: the union of *profiles*, attributed,
        with deferred rank trees when *keep_ranks*."""
        correlator = Correlator(structure)
        rank_leaves = [correlator.add_rank(profile) for profile in profiles]
        attribute(correlator.cct)
        exp = cls(
            name or profiles[0].program or "experiment",
            profiles[0].metrics,
            structure,
            correlator.cct,
        )
        if keep_ranks:
            exp._rank_leaves = rank_leaves
        return exp

    @classmethod
    def from_sampler(
        cls,
        sampler,
        structure: StructureModel,
        name: str = "",
    ) -> "Experiment":
        """Build an experiment from a finished :class:`SamplingProfiler`.

        In all-threads mode each thread's profile becomes one correlated
        tree (retained like MPI ranks, so per-thread analyses work);
        otherwise this is :meth:`from_profile` on the single profile.
        """
        if getattr(sampler, "all_threads", False) and sampler.thread_profiles:
            profiles = [
                sampler.thread_profiles[tid]
                for tid in sorted(sampler.thread_profiles)
            ]
            if len(profiles) == 1:
                return cls.from_profile(profiles[0], structure, name)
            return cls.from_profiles(profiles, structure, name or "sampled")
        return cls.from_profile(sampler.profile, structure, name)

    @classmethod
    def from_program(
        cls,
        program,
        nranks: int = 1,
        params: dict | None = None,
        seed: int = 12345,
        name: str = "",
    ) -> "Experiment":
        """Simulate a synthetic program (optionally SPMD) and present it."""
        from repro.hpcstruct.synthstruct import build_structure
        from repro.sim.executor import execute

        structure = build_structure(program)
        profiles = [
            execute(program, rank=rank, nranks=nranks, params=params, seed=seed)
            for rank in range(nranks)
        ]
        if nranks == 1:
            return cls.from_profile(profiles[0], structure, name or program.name)
        return cls.from_profiles(profiles, structure, name or program.name)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def calling_context_view(self, fused: bool = True) -> CallingContextView:
        return CallingContextView(
            self.cct, self.metrics, fused=fused, engine=self.engine
        )

    def callers_view(self, eager: bool = False) -> CallersView:
        return CallersView(self.cct, self.metrics, eager=eager, engine=self.engine)

    def flat_view(self, fused: bool = True, show_load_modules: bool = False) -> FlatView:
        return FlatView(
            self.cct,
            self.metrics,
            fused=fused,
            show_load_modules=show_load_modules,
            engine=self.engine,
        )

    def views(self) -> tuple[CallingContextView, CallersView, FlatView]:
        """All three complementary views (Section III)."""
        return (self.calling_context_view(), self.callers_view(), self.flat_view())

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def metric_id(self, name: str) -> int:
        return self.metrics.by_name(name).mid

    def spec(
        self, name: str, flavor: MetricFlavor = MetricFlavor.INCLUSIVE
    ) -> MetricSpec:
        return MetricSpec(self.metric_id(name), flavor)

    def add_derived_metric(
        self, name: str, formula: str, unit: str = "", description: str = ""
    ) -> MetricDescriptor:
        """Define a spreadsheet-like derived metric (Section V-D)."""
        return define_derived(
            self.metrics, name, formula, unit=unit, description=description
        )

    def total(self, name: str) -> float:
        """Experiment-aggregate inclusive total of a metric."""
        return self.cct.root.inclusive.get(self.metric_id(name), 0.0)

    # ------------------------------------------------------------------ #
    # analyses
    # ------------------------------------------------------------------ #
    def hot_path(
        self,
        metric: str,
        view: View | None = None,
        start: ViewNode | None = None,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> HotPathResult:
        """Hot path analysis (Section V-C) on a view (default: CC view)."""
        view = view or self.calling_context_view()
        return hot_path(view, self.spec(metric), start=start, threshold=threshold)

    def summarize(self, metric: str) -> SummaryIds:
        """Attach mean/min/max/stddev columns over ranks (Section VII).

        The same accumulator, stepped in rank order, as the merged and
        stored summaries, so all three agree bit for bit.
        """
        if not self.rank_ccts:
            raise ViewError("summarize() requires a parallel experiment")
        mid = self.metric_id(metric)
        ids = self._summaries.get(mid)
        if ids is None:
            ids = summarize_ranks(self.cct, self.rank_ccts, self.metrics, mid)
            self._summaries[mid] = ids
        return ids

    def rank_vector(self, node_or_uid, metric: str) -> np.ndarray:
        """Per-rank inclusive values of a scope (Figure 7's input data)."""
        if not self.rank_ccts:
            raise ViewError("rank_vector() requires a parallel experiment")
        mid = self.metric_id(metric)
        uid = node_or_uid if isinstance(node_or_uid, int) else None
        if uid is None:
            node = node_or_uid
            if isinstance(node, ViewNode):
                cct_nodes = [n for n in node.cct_nodes if isinstance(n, CCTNode)]
                if not cct_nodes:
                    raise ViewError(f"row {node.name!r} maps to no CCT scope")
                uids = {n.uid for n in cct_nodes}
            else:
                uids = {node.uid}
        else:
            uids = {uid}
        vectors = collect_rank_vectors(self.cct, self.rank_ccts, mid)
        out = np.zeros(len(self.rank_ccts))
        for u in uids:
            if u in vectors:
                out += vectors[u]
        return out

    @property
    def nranks(self) -> int:
        pending = self._rank_leaves
        if pending is not None:
            return len(pending)
        return len(self._rank_ccts) if self._rank_ccts else 1

    def rank_experiment(self, rank: int) -> "Experiment":
        """A single rank's tree as its own experiment (drill into one
        process after the merged view localized the imbalance)."""
        if not self.rank_ccts:
            raise ViewError("rank_experiment() requires a parallel experiment")
        if not (0 <= rank < len(self.rank_ccts)):
            raise ViewError(
                f"rank {rank} out of range [0, {len(self.rank_ccts)})"
            )
        return Experiment(
            f"{self.name} [rank {rank}]",
            self.metrics,
            self.structure,
            self.rank_ccts[rank],
        )

    def describe(self) -> str:
        """A one-screen summary: scope counts, metrics, totals, top scopes."""
        from repro.core.cct import CCTKind
        from repro.viewer.format import format_value

        kind_counts: dict[str, int] = {}
        for node in self.cct.walk():
            kind_counts[node.kind.value] = kind_counts.get(node.kind.value, 0) + 1
        lines = [
            f"experiment {self.name!r}: {len(self.cct)} scopes, "
            f"{self.nranks} rank(s)",
            "  scopes: " + ", ".join(
                f"{k}={v}" for k, v in sorted(kind_counts.items())
            ),
            "  metrics:",
        ]
        for desc in self.metrics:
            total = self.cct.root.inclusive.get(desc.mid, 0.0)
            total_text = format_value(total) or "0"
            lines.append(
                f"    [{desc.mid}] {desc.name} ({desc.kind.value}): "
                f"total {total_text} {desc.unit}".rstrip()
            )
        by_proc = self.cct.frames_by_procedure()
        if by_proc and len(self.metrics):
            from repro.core.attribution import exposed_sum

            mid = 0
            top = sorted(
                ((proc.name, exposed_sum(frames).get(mid, 0.0))
                 for proc, frames in by_proc.items()),
                key=lambda item: -item[1],
            )[:5]
            lines.append(f"  top procedures by {self.metrics.by_id(mid).name}:")
            total = self.cct.root.inclusive.get(mid, 0.0) or 1.0
            for name, value in top:
                lines.append(
                    f"    {name:<40} {format_value(value):>10} "
                    f"({100 * value / total:.1f}%)"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Experiment {self.name!r}: {len(self.cct)} scopes, "
            f"{len(self.metrics)} metrics, {self.nranks} rank(s)>"
        )
