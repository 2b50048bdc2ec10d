"""In-memory span recorder and the per-layer metrics computed from it.

A span is (name, parent, start, end).  Spans are recorded only around
calls the benchmark makes into the library and around the evaluators it
hands to or gets back from the library; nothing inside ``src`` is
instrumented.  Self time of a span is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from stieltjeskit import Evaluator

EVAL = "representations.eval"
PINV_EVAL = "transforms.pinv_eval"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # one record per representations.eval span: span index, z, computed bytes
        self.ev_span = array("i")
        self.ev_re = array("d")
        self.ev_im = array("d")
        self.ev_bytes = array("d")
        self.ladder_depths: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    def wrap(self, F: Evaluator, name: str = EVAL, nbytes: float = 0.0) -> Evaluator:
        """Same evaluator, with a span around every call of its ``fn``."""
        fn = F.fn
        record = name == EVAL

        def traced(z):
            i = self.begin(name)
            try:
                return fn(z)
            finally:
                self.finish(i)
                if record:
                    self.ev_span.append(i)
                    self.ev_re.append(z.real)
                    self.ev_im.append(z.imag)
                    self.ev_bytes.append(nbytes)

        return Evaluator(F.q, F.excluded, traced)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _mean(x) -> float:
    return float(np.mean(x)) if len(x) else float("nan")


def span_metrics(tr: Tracer, eval_root: str) -> dict:
    """Per-layer metrics from the recorded spans.

    Evaluation metrics are taken over the spans under roots named
    ``eval_root`` (the workload's ops, or in-process certificates where
    the ops are subprocesses).
    """
    names = tr.names
    nid = {n: i for i, n in enumerate(names)}
    name = np.frombuffer(tr.name, dtype=np.int32)
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    dur = np.frombuffer(tr.end) - np.frombuffer(tr.start)
    n = len(name)

    def is_(label):
        return name == nid.get(label, -2)

    # root of every span by pointer jumping (parents precede children)
    root = np.where(parent < 0, np.arange(n), parent)
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    in_roots = is_(eval_root)[root]
    n_roots = int(np.count_nonzero(is_(eval_root)))

    is_eval = is_(EVAL)
    is_pinv = is_(PINV_EVAL)
    is_evaluator = is_eval | is_pinv
    has_parent = parent >= 0
    parent_is_evaluator = np.zeros(n, dtype=bool)
    parent_is_evaluator[has_parent] = is_evaluator[parent[has_parent]]
    top_evaluator = is_evaluator & ~parent_is_evaluator & in_roots

    ev = in_roots & is_eval
    ev_span = np.frombuffer(tr.ev_span, dtype=np.int32)
    keep = in_roots[ev_span]
    zs = np.stack(
        [root[ev_span][keep].astype(float), np.frombuffer(tr.ev_re)[keep], np.frombuffer(tr.ev_im)[keep]],
        axis=1,
    )
    n_calls = int(np.count_nonzero(ev))
    n_distinct = len(np.unique(zs, axis=0)) if n_calls else 0
    ev_bytes = float(np.sum(np.frombuffer(tr.ev_bytes)[keep]))

    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    cert = is_("classifier.certify")
    inner = is_eval & parent_is_evaluator

    return {
        "representations.eval_calls_per_op": n_calls / n_roots if n_roots else float("nan"),
        "representations.eval_us": 1e6 * _mean(dur[ev]),
        "representations.eval_share": float(np.sum(dur[top_evaluator]) / np.sum(dur[is_(eval_root)])),
        "representations.distinct_z_ratio": n_distinct / n_calls if n_calls else float("nan"),
        "representations.kernel_gbps": ev_bytes / float(np.sum(dur[ev])) / 1e9 if n_calls else float("nan"),
        "classifier.certify_ms": 1e3 * _mean(dur[cert]),
        "classifier.self_ms": 1e3 * _mean(dur[cert] - child_sum[cert]),
        "limits.ladder_ms": 1e3 * _mean(dur[is_("limits.ladder")]),
        "limits.ladder_depth": _mean(tr.ladder_depths),
        "transforms.map_build_ms": 1e3 * _mean(dur[is_("transforms.map_build")]),
        "transforms.pinv_eval_us": 1e6 * _mean(dur[is_pinv]),
        "transforms.inner_eval_share": float(np.sum(dur[inner]) / np.sum(dur[is_pinv])) if is_pinv.any() else float("nan"),
        "representations.json_load_ms": 1e3 * _mean(dur[is_("representations.json_load")]),
        "representations.json_dump_ms": 1e3 * _mean(dur[is_("representations.json_dump")]),
    }
