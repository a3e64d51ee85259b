"""XML experiment-database serialization.

HPCToolkit's experiment databases are XML documents correlating the
metric table, the static structure and the canonical CCT; this module
implements an equivalent schema::

    <CallPathExperiment version="1.0" name="...">
      <MetricTable>
        <Metric i="0" n="cycles" u="cycles" p="1.0" k="raw" f="" d="" pct="1"/>
      </MetricTable>
      <Structure>
        <S i="3" k="file" n="file1.c" f="file1.c" l="0" e="0" c="">...</S>
      </Structure>
      <CCT>
        <N k="procedure-frame" s="3" l="0">
          <M i="0" v="10.0"/>          <!-- raw values -->
          <MI i="4" v="2.5"/>          <!-- stored summary values -->
          ...
        </N>
      </CCT>
    </CallPathExperiment>

Raw metric values are stored per scope; inclusive/exclusive values of
*measured* metrics are recomputed by attribution on load, while values of
``summary`` metrics (which cannot be recomputed from one tree) are stored
explicitly.  The paper's ongoing-work section motivates replacing XML
with "a more compact binary format" — :mod:`repro.hpcprof.binio` — and
``benchmarks/bench_database.py`` quantifies the gap.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import IO

from repro.core.attribution import attribute
from repro.core.cct import CCT, CCTKind, CCTNode
from repro.errors import CorrelationError, DatabaseError, StructureError
from repro.core.metrics import MetricKind, MetricTable
from repro.hpcprof.experiment import Experiment
from repro.hpcstruct.model import (
    SourceLocation,
    StructKind,
    StructureModel,
    StructureNode,
)

__all__ = ["write_xml", "read_xml", "dumps_xml", "loads_xml"]

_FORMAT_VERSION = "1.0"


# --------------------------------------------------------------------- #
# writing
# --------------------------------------------------------------------- #
def _metric_table_element(metrics: MetricTable) -> ET.Element:
    table = ET.Element("MetricTable")
    for desc in metrics:
        ET.SubElement(
            table,
            "Metric",
            i=str(desc.mid),
            n=desc.name,
            u=desc.unit,
            p=repr(desc.period),
            k=desc.kind.value,
            f=desc.formula,
            d=desc.description,
            pct="1" if desc.show_percent else "0",
        )
    return table


def _structure_element(node: StructureNode, ids: dict[int, int]) -> ET.Element:
    ids[node.uid] = len(ids)
    elem = ET.Element(
        "S",
        i=str(ids[node.uid]),
        k=node.kind.value,
        n=node.name,
        f=node.location.file,
        l=str(node.location.line),
        e=str(node.location.end_line),
        c=";".join(f"{line}:{callee}" for line, callee in node.calls),
    )
    for child in node.children:
        elem.append(_structure_element(child, ids))
    return elem


def _cct_element(node: CCTNode, struct_ids: dict[int, int], metrics: MetricTable) -> ET.Element:
    elem = ET.Element(
        "N",
        k=node.kind.value,
        s=str(struct_ids.get(node.struct.uid, -1)) if node.struct is not None else "-1",
        l=str(node.line),
    )
    for mid, value in sorted(node.raw.items()):
        if metrics.by_id(mid).kind is MetricKind.RAW:
            ET.SubElement(elem, "M", i=str(mid), v=repr(value))
    for tag, store in (("MI", node.inclusive), ("ME", node.exclusive)):
        for mid, value in sorted(store.items()):
            if metrics.by_id(mid).kind is MetricKind.SUMMARY:
                ET.SubElement(elem, tag, i=str(mid), v=repr(value))
    for child in node.children:
        elem.append(_cct_element(child, struct_ids, metrics))
    return elem


def dumps_xml(experiment: Experiment) -> bytes:
    """Serialize an experiment to XML bytes."""
    root = ET.Element(
        "CallPathExperiment", version=_FORMAT_VERSION, name=experiment.name
    )
    root.append(_metric_table_element(experiment.metrics))
    struct_elem = ET.Element("Structure")
    ids: dict[int, int] = {}
    struct_elem.append(_structure_element(experiment.structure.root, ids))
    root.append(struct_elem)
    cct_elem = ET.Element("CCT")
    cct_elem.append(_cct_element(experiment.cct.root, ids, experiment.metrics))
    root.append(cct_elem)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def write_xml(experiment: Experiment, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(dumps_xml(experiment))


# --------------------------------------------------------------------- #
# reading
# --------------------------------------------------------------------- #
def _read_metric_table(elem: ET.Element) -> MetricTable:
    metrics = MetricTable()
    rows = sorted(elem.findall("Metric"), key=lambda m: int(m.get("i")))
    for i, m in enumerate(rows):
        if int(m.get("i")) != i:
            raise DatabaseError("metric ids must be dense and ordered")
        metrics.add(
            m.get("n"),
            unit=m.get("u", ""),
            period=float(m.get("p", "1.0")),
            kind=MetricKind(m.get("k", "raw")),
            formula=m.get("f", ""),
            description=m.get("d", ""),
            show_percent=m.get("pct", "1") == "1",
        )
    return metrics


def _read_structure(elem: ET.Element, model: StructureModel) -> dict[int, StructureNode]:
    by_id: dict[int, StructureNode] = {}

    def build(selem: ET.Element, parent: StructureNode | None) -> StructureNode:
        kind = StructKind(selem.get("k"))
        if kind is StructKind.ROOT:
            node = model.root
            node.name = selem.get("n", node.name)
        else:
            node = StructureNode(
                kind,
                name=selem.get("n", ""),
                location=SourceLocation(
                    file=selem.get("f", ""),
                    line=int(selem.get("l", "0")),
                    end_line=int(selem.get("e", "0")),
                ),
                parent=parent,
            )
        calls = selem.get("c", "")
        if calls:
            pairs = []
            for item in calls.split(";"):
                line, _, callee = item.partition(":")
                pairs.append((int(line), callee))
            node.calls = tuple(pairs)
        if kind is StructKind.PROCEDURE:
            model._register_procedure(node)
        by_id[int(selem.get("i"))] = node
        return node

    roots = list(elem)
    if len(roots) != 1:
        raise DatabaseError("Structure section must contain exactly one root")
    # preorder with an explicit stack of child iterators: nesting deeper
    # than the recursion limit loads too
    stack = [(build(roots[0], None), iter(roots[0]))]
    while stack:
        node, children = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
        else:
            stack.append((build(child, node), iter(child)))
    return by_id


def _read_cct(elem: ET.Element, structs: dict[int, StructureNode]) -> CCT:
    cct = CCT()

    def build(nelem: ET.Element, parent: CCTNode | None) -> CCTNode:
        kind = CCTKind(nelem.get("k"))
        if kind is CCTKind.ROOT:
            return cct.root
        sid = int(nelem.get("s", "-1"))
        return CCTNode(
            kind, struct=structs.get(sid), line=int(nelem.get("l", "0")),
            parent=parent,
        )

    roots = list(elem)
    if len(roots) != 1:
        raise DatabaseError("CCT section must contain exactly one root")
    # preorder with an explicit stack of child iterators, metric elements
    # applied in document order
    stack = [(build(roots[0], None), iter(roots[0]))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child.tag == "M":
                node.raw[int(child.get("i"))] = float(child.get("v"))
            elif child.tag == "MI":
                node.inclusive[int(child.get("i"))] = float(child.get("v"))
            elif child.tag == "ME":
                node.exclusive[int(child.get("i"))] = float(child.get("v"))
            else:
                stack.append((build(child, node), iter(child)))
                break
        else:
            stack.pop()
    return cct


def loads_xml(data: bytes) -> Experiment:
    """Deserialize from XML bytes; all malformed input -> DatabaseError.

    Missing attributes, bad enum values, dangling structure references
    and the like must surface as DatabaseError, never as raw
    TypeError/KeyError from element access (verified by fuzz tests).
    """
    try:
        return _loads_xml(data)
    except DatabaseError:
        raise
    except (TypeError, KeyError, ValueError, AttributeError, IndexError,
            RecursionError,
            StructureError, CorrelationError) as exc:
        raise DatabaseError(f"malformed experiment XML: {exc!r}") from exc


def _loads_xml(data: bytes) -> Experiment:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise DatabaseError(f"malformed experiment XML: {exc}") from exc
    if root.tag != "CallPathExperiment":
        raise DatabaseError(f"not an experiment database (root {root.tag!r})")
    metrics = _read_metric_table(root.find("MetricTable"))
    model = StructureModel()
    structs = _read_structure(root.find("Structure"), model)
    cct = _read_cct(root.find("CCT"), structs)

    # stash stored summary values, recompute measured attribution, restore
    stored: list[tuple[CCTNode, dict, dict]] = []
    for node in cct.walk():
        if node.inclusive or node.exclusive:
            stored.append((node, dict(node.inclusive), dict(node.exclusive)))
    attribute(cct)
    for node, incl, excl in stored:
        node.inclusive.update(incl)
        node.exclusive.update(excl)
    return Experiment(root.get("name", "experiment"), metrics, model, cct)


def read_xml(path: str) -> Experiment:
    with open(path, "rb") as fh:
        return loads_xml(fh.read())
