"""Canonical units used throughout the simulator.

Simulated time is a ``float`` number of **microseconds**; sizes are
**bytes**; bandwidths are **bytes per microsecond** (1 B/us == 1 MB/s).
These helpers exist so device models read like their data sheets.
"""

# -- time ------------------------------------------------------------------
NS = 1e-3  #: one nanosecond, in microseconds
US = 1.0  #: one microsecond
MS = 1e3  #: one millisecond, in microseconds
SEC = 1e6  #: one second, in microseconds

# -- size ------------------------------------------------------------------
BYTE = 1
KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


def gbps(rate):
    """Convert a link rate in gigabits/s to bytes/us."""
    return rate * 1e9 / 8 / SEC


def gbytes_per_sec(rate):
    """Convert GB/s to bytes/us."""
    return rate * 1e9 / SEC


def mpps(rate):
    """Convert millions of packets per second to packets/us."""
    return rate * 1e6 / SEC


def per_sec(rate):
    """Convert an events-per-second rate to events/us."""
    return rate / SEC

