"""``cold_suite``: every fig9 compile, in a seeded order, from empty caches.

Why: the conversion planner and the F_2 derivations behind it do ~95 %
of the work, and every cache takes only misses and inserts (the write
path); engine pass overhead is a ~2 % share.  This is where a faster
planner shows.  One operation is one compile (graph build + compile).
"""

from __future__ import annotations

import random
import statistics

from repro import cache
from repro.gpusim.opcost import op_cost_model, price_program
from repro.obs import span

from perfbench.suite import (
    conversions,
    fig9_suite,
    load_golden,
    model_counts,
    speedup_geomean,
)
from perfbench.workloads.base import (
    PassResult,
    compile_cases,
    timed_ops,
)

SETUP_REPEATS = 5


class ColdSuite:
    name = "cold_suite"

    def __init__(self, seed: int, clock):
        self.rng = random.Random(seed)
        self.clock = clock
        self.geomean = float("nan")

    def setup(self):
        """Enumerate the suite and read the goldens, several times.

        Returns ``(median scaled seconds, operations, failures)``;
        nothing is compiled here.
        """

        def prepare(_):
            self.suite = fig9_suite()
            self.golden = load_golden()

        times, _ = timed_ops(self.clock, range(SETUP_REPEATS), prepare)
        return statistics.median(times) / 1e3, 0, []

    def run_pass(self, traced: bool) -> PassResult:
        order = list(self.suite)
        self.rng.shuffle(order)
        results, latencies, failures, delta, raw = compile_cases(
            order, self.golden, self.clock
        )
        self.geomean = speedup_geomean(dict(results))
        if traced:
            self._replay(results)
        return PassResult(
            sum(latencies) / 1e3, raw, latencies, failures,
            model_counts(results), delta,
        )

    def _replay(self, results) -> None:
        """Time the planner and the pricer alone on this pass's work.

        Neither has spans of its own in the program, so the benchmark
        replays them: every distinct conversion the pass compiled is
        planned again with the caches emptied, and every distinct
        conversion program is priced again.
        """
        cache.clear()
        for spec, mode, src, dst, dtype in conversions(results):
            with span("codegen:plan"):
                op_cost_model(spec, mode).plan(src, dst, dtype)
        seen = set()
        for case, compiled in results:
            for plan, program in zip(compiled.conversions, compiled.programs):
                if id(plan) not in seen:
                    seen.add(id(plan))
                    with span("opcost:price_program"):
                        price_program(program, case.spec)

    def layer_metrics(self, passes) -> dict:
        return {}
