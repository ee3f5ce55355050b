"""Spans and counters recorded around the package's public functions.

A Tracer replaces every binding of each traced function in the package's
modules and puts the originals back on uninstall.  Every binding matters:
``search`` imports ``induced_labeling`` by name and ``cli`` calls through
module attributes, so patching one module alone would miss calls.  Spans
(name, start, end, parent, job id) are kept in memory and written out at
the end.  ``Graph.distance`` is counted, not spanned: it runs millions of
times per job and a span per call would swamp what it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

PACKAGE = "radiolabel"

# traced function (module.name) -> per-layer metric that receives its self time
SPANNED = {
    "graphs.parse_edge_list": "graphs.parse_s",
    "graphs.read_edge_list": "graphs.parse_s",
    "graphs.format_edge_list": "graphs.format_s",
    "graphs.write_edge_list": "graphs.format_s",
    "graphs.all_pairs_distances": "graphs.all_pairs_s",
    "labeling.induced_labeling": "labeling.induce_s",
    "labeling.check_consecutive_ordering": "labeling.window_s",
    "labeling.check_k_radio": "labeling.radio_check_s",
    "labeling.check_radio": "labeling.radio_check_s",
    "labeling.is_consecutive": "labeling.radio_check_s",
    "labeling.ordering_to_json": "labeling.json_s",
    "labeling.ordering_from_json": "labeling.json_s",
    "labeling.labeling_to_json": "labeling.json_s",
    "labeling.labeling_from_json": "labeling.json_s",
    "labeling.read_text": "labeling.json_s",
    "knt.knt_ordering": "knt.ordering_s",
    "knt.knt_ordering_matrix": "knt.ordering_s",
    "knt.knt_ordering_recursive": "knt.ordering_s",
    "knt.flat_indices": "knt.flat_indices_s",
    "search.exact_radio_number": "search.exact_s",
    "search.find_consecutive_ordering": "search.witness_s",
    "bounds.threshold_s": "bounds.report_s",
    "bounds.verdict": "bounds.report_s",
    "bounds.threshold_report": "bounds.report_s",
    "bounds.threshold_report_params": "bounds.report_s",
    "cli.main": "cli.self_s",
}

SELF_TIME_METRICS = tuple(sorted(set(SPANNED.values())))
COUNT_METRICS = ("graphs.distance_calls", "graphs.all_pairs_calls",
                 "labeling.violations", "search.orderings_examined",
                 "search.timeouts")

_MARK = "__perfbench_original__"


def _package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def leftover_wrappers() -> list:
    """Bindings in the package that still hold a tracing wrapper."""
    from radiolabel.graphs import Graph
    found = [f"{module.__name__}.{attr}"
             for module in _package_modules()
             for attr, value in vars(module).items()
             if hasattr(value, _MARK)]
    if hasattr(Graph.__dict__["distance"], _MARK):
        found.append("Graph.distance")
    return found


class Tracer:
    """Records spans and counts while a job is open; passes calls straight
    through otherwise, so set-up and oracle calls leave no trace."""

    def __init__(self):
        self.spans: list = []  # [job, name, start, end, parent index]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.jobs = 0
        self._job: Optional[str] = None
        self._stack: list = []
        self._in_distance = False
        self._patches: list = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for qualname, _metric in SPANNED.items():
            module_name, func_name = qualname.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"],
                               func_name)
            wrapper = self._spanning(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        graph_cls = sys.modules[f"{PACKAGE}.graphs"].Graph
        original = graph_cls.__dict__["distance"]
        self._patches.append((graph_cls, "distance", original))
        graph_cls.distance = self._counting_distance(original)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def job(self, job_id: str):
        self._job = job_id
        self.jobs += 1
        try:
            yield
        finally:
            self._job = None
            self._stack.clear()

    # -- wrappers ------------------------------------------------------

    def _spanning(self, qualname: str, fn: Callable) -> Callable:
        tracer = self
        after = _AFTER.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [tracer._job, qualname, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(tracer.counts, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _counting_distance(self, fn: Callable) -> Callable:
        tracer = self

        # product distances recurse into their factors; only the outermost
        # call is one query by the caller
        @functools.wraps(fn)
        def distance(graph, u, v):
            if tracer._job is None or tracer._in_distance:
                return fn(graph, u, v)
            tracer._in_distance = True
            tracer.counts["graphs.distance_calls"] += 1
            try:
                return fn(graph, u, v)
            finally:
                tracer._in_distance = False

        setattr(distance, _MARK, fn)
        return distance

    # -- results -------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time (span minus its child spans) per layer metric."""
        children = [0.0] * len(self.spans)
        for _job, _name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for i, (_job, name, start, end, _parent) in enumerate(self.spans):
            totals[SPANNED[name]] += end - start - children[i]
        return totals

    def all_counts(self) -> dict:
        counts = dict(self.counts)
        counts["graphs.all_pairs_calls"] = sum(
            1 for span in self.spans
            if span[1] == "graphs.all_pairs_distances")
        return counts

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for job, name, start, end, parent in self.spans:
                handle.write(json.dumps({"job": job, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")


def _count_violations(counts: dict, result) -> None:
    counts["labeling.violations"] += len(result)


def _count_search(counts: dict, result) -> None:
    counts["search.orderings_examined"] += result.orderings_examined
    if result.status == "timeout":
        counts["search.timeouts"] += 1


# check_radio returns check_k_radio's list, so only the inner call counts
_AFTER = {
    "labeling.check_k_radio": _count_violations,
    "search.exact_radio_number": _count_search,
    "search.find_consecutive_ordering": _count_search,
}
