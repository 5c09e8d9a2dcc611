"""The benchmark's workloads, by name."""

from perfbench.workloads.cold_suite import ColdSuite
from perfbench.workloads.simulate import Simulate
from perfbench.workloads.warm_stream import WarmStream

WORKLOADS = {
    ColdSuite.name: ColdSuite,
    WarmStream.name: WarmStream,
    Simulate.name: Simulate,
}
