"""Performance measurement for the reproduction's hot paths.

:class:`Profiler` (``repro.profiling.core``) — named wall-clock timers
plus counter capture from the always-on cheap integers maintained by
:class:`~repro.bgp.network.BgpNetwork`, the netsim
:class:`~repro.netsim.events.Simulator`, routers, and the controller.

The end-to-end, per-layer measurements live in the ``perfbench/``
ledger; the E15 before/after comparison of the BGP engine against its
full-scan oracle (``tests/oracles/bgp.py``) is
``benchmarks/test_bench_engine_perf.py``.
"""

from .core import Profiler, TimerStat

__all__ = ["Profiler", "TimerStat"]
