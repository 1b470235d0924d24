"""Spans around calls into slem's layers, recorded from outside the package.

Nothing in ``src/slem`` is instrumented.  Instead, `traced` swaps module
attributes for timing wrappers for the duration of a ``with`` block and puts
the originals back afterwards.  A wrapper has to replace the name that the
caller looks up: ``slem.em`` does ``from .laplace import newton_mode``, so
patching ``slem.laplace.newton_mode`` would never see the EM's calls;
``slem.em.newton_mode`` does.

Two kinds of span are kept:

* stored spans (EM steps, Newton modes, probe sets, PCG solves,
  local variance) go into ``Tracer.spans`` with name, start, end and the id
  of the span that caused them;
* leaf spans (spectral matvecs and ``SpectralField`` checks, tens of
  thousands per fit) are only counted and timed, per name and per enclosing
  span name, so the trace stays small.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []               # stored spans, in completion order
        self.calls = Counter()        # span name -> calls
        self.seconds = defaultdict(float)  # span name -> total wall time
        self.self_seconds = defaultdict(float)  # span name -> time not in child spans
        self.counts = Counter()       # named counts taken from return values
        self.leaf_under = Counter()   # (leaf name, enclosing span name) -> calls
        self._stack = []              # open spans: [id, parent id, name, start, child s]
        self._next_id = 0

    def _enter(self, name, leaf):
        if leaf:
            span_id = None
        else:
            span_id = self._next_id
            self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, parent, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, name, start, child = frame
        dur = end - start
        self.calls[name] += 1
        self.seconds[name] += dur
        self.self_seconds[name] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        if span_id is None:
            # the wrapped layers do not recurse, so each name is open at most once
            for outer in self._stack:
                self.leaf_under[(name, outer[2])] += 1
        else:
            self.spans.append({"id": span_id, "parent": parent, "name": name,
                               "start": start, "end": end})

    @contextmanager
    def span(self, name):
        frame = self._enter(name, False)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name, fn, leaf=False, on_result=None):
        """fn timed as span `name`; on_result(tracer, result, args) records
        counts read off the returned object."""
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            frame = self._enter(name, leaf)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if on_result is not None:
                on_result(self, out, args)
            return out
        return traced_call

    def write(self, path):
        """Stored spans as JSON lines, times relative to the first span."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "start": s["start"] - t0, "end": s["end"] - t0}) + "\n")


def _pcg_counts(kind):
    def record(tracer, result, args):
        tracer.counts[f"pcg.{kind}.iterations"] += result.iterations
        tracer.counts[f"pcg.{kind}.nonconverged"] += int(not result.converged)
    return record


def _newton_counts(tracer, result, args):
    tracer.counts["laplace.newton_steps"] += result.newton_iterations


def _block_counts(tracer, result, args):
    # one k x k neighbourhood solve per pixel of the psi_diag argument
    tracer.counts["posterior.block_solves"] += len(args[1])


def patch_table():
    """(owner, attribute, span name, leaf, on_result) for every traced call."""
    from slem import em, laplace, posterior, spectral, trace
    matvec = "spectral.matvec"
    return [
        (em, "newton_mode", "laplace.newton_mode", False, _newton_counts),
        (em, "make_probes", "trace.make_probes", False, None),
        (em, "update_eta", "em.update_eta", False, None),
        (em, "update_beta", "em.update_beta", False, None),
        (em, "q_tilde", "em.q_tilde", False, None),
        (laplace, "pcg_solve", "pcg.newton_solve", False, _pcg_counts("newton")),
        (trace, "pcg_solve", "pcg.probe_solve", False, _pcg_counts("probe")),
        (em, "sigma_inv_matvec", matvec, True, None),
        (laplace, "sigma_inv_matvec", matvec, True, None),
        (trace, "sigma_inv_matvec", matvec, True, None),
        (spectral.SpectralField, "__post_init__", "spectral.field_check", True, None),
        (posterior, "local_variance", "posterior.local_variance", False, _block_counts),
    ]


@contextmanager
def traced(tracer):
    """Install the wrappers from `patch_table`; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, leaf, on_result in patch_table():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, leaf, on_result))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
