"""Memory-controller layer: address mapping, scheduling, channel routing.

The simulated machine (paper Table I) has four memory channels with one
controller each, ``RoRaBaChCo`` address interleaving and FR-FCFS
scheduling.  A :class:`~repro.memctrl.system.MemorySystem` groups channels
of the same technology into *channel groups*: a homogeneous system is one
four-channel group; the paper's heterogeneous system is three groups
(1×RLDRAM, 1×HBM, 2×LPDDR2).  Lines stripe across the channels of a group,
which is how RoRaBaChCo exposes channel-level parallelism.
"""

from repro.memctrl.request import MemRequest
from repro.memctrl.addrmap import GroupAddressMap
from repro.memctrl.scheduler import frfcfs_order, fcfs_order
from repro.memctrl.controller import ChannelController
from repro.util.histogram import LatencyHistogram
from repro.memctrl.system import ChannelGroup, MemorySystem

__all__ = [
    "MemRequest",
    "GroupAddressMap",
    "frfcfs_order",
    "fcfs_order",
    "ChannelController",
    "LatencyHistogram",
    "ChannelGroup",
    "MemorySystem",
]
