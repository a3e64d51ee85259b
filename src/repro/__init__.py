"""repro — call path profiles, effectively presented.

A production-quality Python reproduction of *"Effectively Presenting Call
Path Profiles of Application Performance"* (Adhianto, Mellor-Crummey,
Tallent; ICPP 2010) — the ``hpcviewer`` paper from HPCToolkit — together
with every substrate it depends on:

* :mod:`repro.hpcrun` — measurement: asynchronous-sampling and tracing
  call path profilers for Python code, plus synthetic hardware counters;
* :mod:`repro.hpcstruct` — static structure recovery (Python AST, and
  synthetic program models);
* :mod:`repro.hpcprof` — correlation into canonical CCTs, multi-rank
  merging, statistical summarization, experiment databases (XML/binary);
* :mod:`repro.core` — the paper's contribution: the three complementary
  views, inclusive/exclusive attribution with recursion handling, hot
  path analysis, and derived metrics;
* :mod:`repro.viewer` — tree-tabular presentation, navigation, charts;
* :mod:`repro.sim` — synthetic workloads (S3D, MOAB, PFLOTRAN, Figure 1)
  and SPMD/load-imbalance simulation;
* :mod:`repro.baselines` — a gprof-style comparator.

Quickstart::

    import repro

    result, profile = repro.trace_call(my_function, arg)
    structure = repro.build_python_structure([my_module_path])
    exp = repro.Experiment.from_profile(profile, structure)
    print(repro.render_view(exp.calling_context_view(), depth=3))
    print(exp.hot_path("line events").hotspot.name)
"""

from repro.core.advisor import Advisor, Suggestion, advise
from repro.core.attribution import attribute
from repro.core.callers import CallersView
from repro.core.ccview import CallingContextView
from repro.core.cct import CCT, CCTKind, CCTNode
from repro.core.derived import (
    define_derived,
    evaluate,
    flop_waste_formula,
    parse_formula,
    relative_efficiency_formula,
)
from repro.errors import ReproError
from repro.core.flat import FlatView
from repro.core.hotpath import DEFAULT_THRESHOLD, HotPathResult, hot_path
from repro.core.metrics import MetricFlavor, MetricSpec, MetricTable
from repro.core.views import NodeCategory, View, ViewKind, ViewNode
from repro.hpcprof.database import load, save
from repro.hpcprof.experiment import Experiment
from repro.hpcrun.profile_data import Frame, ProfileData
from repro.hpcrun.sampler import SamplingProfiler, sample_call
from repro.hpcrun.tracer import TracingProfiler, trace_call
from repro.hpcstruct.model import StructureModel
from repro.hpcstruct.pystruct import build_python_structure
from repro.hpcstruct.synthstruct import build_structure
from repro.sim.executor import execute
from repro.sim.spmd import run_spmd, spmd_experiment
from repro.viewer.html import render_html
from repro.viewer.session import ViewerSession
from repro.viewer.table import TableOptions, render_table, render_view
from repro.viewer.tui import InteractiveViewer

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # experiment & database
    "Experiment",
    "save",
    "load",
    # views & analyses
    "CallingContextView",
    "CallersView",
    "FlatView",
    "View",
    "ViewKind",
    "ViewNode",
    "NodeCategory",
    "hot_path",
    "HotPathResult",
    "DEFAULT_THRESHOLD",
    # metrics
    "MetricTable",
    "MetricSpec",
    "MetricFlavor",
    "define_derived",
    "parse_formula",
    "evaluate",
    "flop_waste_formula",
    "relative_efficiency_formula",
    # CCT & attribution
    "CCT",
    "CCTNode",
    "CCTKind",
    "attribute",
    # measurement
    "TracingProfiler",
    "trace_call",
    "SamplingProfiler",
    "sample_call",
    "ProfileData",
    "Frame",
    # structure
    "StructureModel",
    "build_python_structure",
    "build_structure",
    # simulation
    "execute",
    "run_spmd",
    "spmd_experiment",
    # presentation
    "ViewerSession",
    "InteractiveViewer",
    "render_view",
    "render_table",
    "render_html",
    "TableOptions",
    # advisor
    "advise",
    "Advisor",
    "Suggestion",
    # errors
    "ReproError",
]
