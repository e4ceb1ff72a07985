"""Spans around spectest's public functions, recorded from the benchmark.

Each traced function is replaced at the module or class attribute where the
program looks it up, so calls the program makes to itself are traced as well.
Spans stay in memory and are written out when the run ends.  The program is
single-threaded here, so one stack of open spans is enough, and a span's
children never overlap: its self time is its duration minus theirs.
"""

from __future__ import annotations

import json
import time

import spectest.cli
import spectest.hypotheses
import spectest.inference
import spectest.simulation
import spectest.spectral

# Span name -> per-layer metric that its self time is added to.
SELF_TIME_METRIC = {
    "simulation.simulate_var1": "simulation.simulate_s",
    "simulation.size_adjusted_power": "simulation.self_s",
    "spectral.dft": "spectral.dft_s",
    "spectral.smoothed_periodogram": "spectral.smooth_s",
    "spectral.cvll_select": "spectral.cvll_s",
    "hypotheses.restricted_estimate": "hypotheses.restrict_s",
    "hypotheses.covariance_selection": "hypotheses.selection_s",
    "hermitian.relative_eigenvalues_stack": "hermitian.releig_s",
    "inference.raw_statistic": "inference.statistic_s",
    "inference.run_many": "inference.self_s",
    "inference.run_test": "inference.self_s",
    "cli.ingest_csv": "cli.ingest_s",
    "cli.main": "cli.self_s",
}
COUNT_METRICS = (
    "spectral.cvll_spans",
    "hypotheses.selection_calls",
    "hypotheses.selection_sweeps",
    "hypotheses.nonpd_freqs",
)
OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.op = -1
        self._stack = []
        self._patched = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def leave(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _replace(self, owner, attr: str, wrapper_for) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    def trace(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around every call of owner.attr."""
        def wrapper_for(original):
            def traced(*args, **kwargs):
                index = self.enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.leave(index)
                if after is not None:
                    after(result)
                return result
            return traced
        self._replace(owner, attr, wrapper_for)

    def count(self, owner, attr: str, key: str, inside: str | None = None) -> None:
        """Count calls of owner.attr, only those made from span `inside` if given."""
        def wrapper_for(original):
            def counted(*args, **kwargs):
                if inside is None or self._innermost() == inside:
                    self.counts[key] += 1
                return original(*args, **kwargs)
            return counted
        self._replace(owner, attr, wrapper_for)

    def install(self) -> None:
        sim, inf, spec, hyp, cli = (
            spectest.simulation, spectest.inference, spectest.spectral,
            spectest.hypotheses, spectest.cli,
        )
        self.trace(sim, "size_adjusted_power", "simulation.size_adjusted_power")
        self.trace(sim, "simulate_var1", "simulation.simulate_var1")
        self.trace(sim, "run_many", "inference.run_many")
        self.trace(inf, "run_many", "inference.run_many")
        self.trace(inf, "run_test", "inference.run_test")
        self.trace(inf, "dft", "spectral.dft")
        self.trace(spec, "dft", "spectral.dft")
        self.trace(inf, "smoothed_periodogram", "spectral.smoothed_periodogram")
        self.trace(inf, "cvll_select", "spectral.cvll_select")
        self.count(spec, "cvll_score", "spectral.cvll_spans")
        self.trace(inf, "raw_statistic", "inference.raw_statistic")
        self.trace(inf, "relative_eigenvalues_stack", "hermitian.relative_eigenvalues_stack")

        def count_nonpd(restricted):
            self.counts["hypotheses.nonpd_freqs"] += int((~restricted.pd).sum())

        for model in (hyp.IndependenceModel, hyp.SeparableModel, hyp.GraphicalModel):
            self.trace(model, "restricted_estimate", "hypotheses.restricted_estimate", after=count_nonpd)
        self.trace(hyp, "covariance_selection", "hypotheses.covariance_selection")
        self.count(hyp, "inverse_pd", "hypotheses.selection_sweeps",
                   inside="hypotheses.covariance_selection")
        self.trace(cli, "main", "cli.main")
        self.trace(cli, "ingest_csv", "cli.ingest_csv")
        self.trace(cli, "run_test", "inference.run_test")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, ops: int, scales: list[float]) -> tuple[dict, float]:
        """Per-op self time per layer, each span scaled by its call's speed scale,
        and per-op counts.

        Also returns the largest gap, over ops, between an op span's duration
        and the sum of the (unscaled) self times of every span recorded under it.
        """
        own = self.self_times()
        first_op = min(span[4] for span in self.spans)
        totals = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
        op_duration, op_self_sum = {}, {}
        for (name, start, end, _, op), self_time in zip(self.spans, own):
            if name == OP_SPAN:
                op_duration[op] = end - start
            else:
                totals[SELF_TIME_METRIC[name]] += self_time * scales[op - first_op]
            op_self_sum[op] = op_self_sum.get(op, 0.0) + self_time
        self.counts["hypotheses.selection_calls"] = sum(
            span[0] == "hypotheses.covariance_selection" for span in self.spans
        )
        gap = max(abs(op_duration[op] - op_self_sum[op]) for op in op_duration)
        metrics = {key: value / ops for key, value in totals.items()}
        metrics.update({key: value / ops for key, value in self.counts.items()})
        return metrics, gap

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, handle)
