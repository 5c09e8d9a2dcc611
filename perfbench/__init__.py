"""The repository benchmark: fig9 compiles, a warm compile service, and
simulated conversions, with end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root;
``perfbench/WORKLOADS.md`` says what each workload loads and why.
"""
