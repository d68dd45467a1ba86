"""Per-record reference replay interpreter: the test oracle for the kernel.

:class:`ReferenceCore` is the original scalar episode loop of the
interval core model, kept as the executable specification the fused
replay kernel (:func:`repro.memctrl.batch.replay`, driven by
:class:`repro.cpu.core.InOrderWindowCore`) is pinned against.  It builds
one :class:`~repro.memctrl.request.MemRequest` per record, routes each
episode through ``MemorySystem.service_batch`` and accounts ROB-head
stalls in program order, record by record.

It exposes the same stepping interface as ``InOrderWindowCore``
(``finished``, ``peek_next_issue``, ``run_episode``,
``run_to_completion``, ``result``), so a multicore oracle is a heap over
``peek_next_issue`` (``tests/test_parity.py``'s ``_step``).
"""

from __future__ import annotations

import numpy as np

from repro.cpu.core import CoreParams, CoreResult, InOrderWindowCore
from repro.cpu.hierarchy import (
    KIND_LOAD,
    KIND_STORE,
    KIND_WRITEBACK,
    MissStream,
)
from repro.memctrl.request import MemRequest
from repro.memctrl.system import MemorySystem


class ReferenceCore:
    """Scalar replay of one core's miss stream, one episode per step."""

    def __init__(self, stream: MissStream, groups: np.ndarray,
                 gaddrs: np.ndarray, params: CoreParams | None = None,
                 core_id: int = 0, start_cycle: int = 0, inst_prev: int = 0):
        if len(groups) != len(stream) or len(gaddrs) != len(stream):
            raise ValueError(
                "translation arrays must match the miss stream length")
        self.params = params or CoreParams()
        self.core_id = core_id
        self.total_instructions = stream.total_instructions
        self._n = len(stream)
        self._idx = 0
        self._cycle = start_cycle
        self._inst_prev = inst_prev
        self.result = CoreResult(
            core_id=core_id, cycles=start_cycle,
            total_instructions=self.total_instructions,
            n_demand=0, n_load_misses=0, n_writebacks=0, n_episodes=0,
            mem_access_cycles=0, load_stall_cycles=0,
        )
        # Plain-int lists: the episode loop is dict/int-bound, numpy
        # scalar extraction would dominate (profile-driven choice).
        self._inst = stream.inst.tolist()
        self._dep = stream.dep.tolist()
        self._kind = stream.kind.tolist()
        self._obj = stream.obj_id.tolist()
        self._group = groups.tolist()
        self._gaddr = gaddrs.tolist()

    #: Same registry counters as the kernel core, read from ``result``.
    publish_obs = InOrderWindowCore.publish_obs

    @property
    def finished(self) -> bool:
        return self._idx >= self._n

    def peek_next_issue(self) -> int:
        """Earliest cycle at which this core's next episode head issues."""
        if self.finished:
            return 1 << 62
        gap = self._inst[self._idx] - self._inst_prev
        return self._cycle + self.params.cycles_for(gap)

    def run_episode(self, memsys: MemorySystem) -> int:
        """Issue one MLP episode against ``memsys``; returns new core cycle."""
        p = self.params
        num, den = p.ipc_ratio
        inst, dep, kind = self._inst, self._dep, self._kind
        obj, group, gaddr = self._obj, self._group, self._gaddr
        i = self._idx
        head_inst = inst[i]
        issue0 = self._cycle + ((head_inst - self._inst_prev) * den) // num

        # Gather the episode: head record plus every subsequent record that
        # fits the ROB window, has an MSHR, and is not a dependent miss.
        # Non-demand records (writebacks) ride along but the
        # total batch is bounded — queues are finite and the multicore
        # driver interleaves cores at episode granularity.
        batch_cap = 4 * p.max_overlap
        j = i
        n_demand = 0
        batch: list[MemRequest] = []
        members: list[int] = []
        while j < self._n:
            if len(members) >= batch_cap:
                break
            k = kind[j]
            is_demand = k == KIND_LOAD or k == KIND_STORE
            if j > i and is_demand:
                if dep[j]:
                    break
                if inst[j] - head_inst > p.rob_size:
                    break
                if n_demand >= p.max_overlap:
                    break
            issue = issue0 + ((inst[j] - head_inst) * den) // num
            batch.append(MemRequest(
                group=group[j], gaddr=gaddr[j], issue_cycle=issue,
                is_write=(k == KIND_STORE or k == KIND_WRITEBACK),
                demand=is_demand,
                obj_id=obj[j], core_id=self.core_id,
            ))
            members.append(j)
            n_demand += is_demand
            j += 1

        memsys.service_batch(batch)

        # Program-order ROB-head accounting over demand loads.
        res = self.result
        t = issue0
        for req, k in zip(batch, (kind[m] for m in members)):
            if k == KIND_WRITEBACK:
                res.n_writebacks += 1
                continue
            res.n_demand += 1
            res.mem_access_cycles += req.done_cycle - req.issue_cycle
            res.demand_by_obj[req.obj_id] = res.demand_by_obj.get(req.obj_id, 0) + 1
            if k == KIND_LOAD:
                stall = req.done_cycle - max(t, req.issue_cycle)
                if stall < 0:
                    stall = 0
                if req.done_cycle > t:
                    t = req.done_cycle
                res.n_load_misses += 1
                res.load_stall_cycles += stall
                res.stall_by_obj[req.obj_id] = res.stall_by_obj.get(req.obj_id, 0) + stall
                res.load_misses_by_obj[req.obj_id] = (
                    res.load_misses_by_obj.get(req.obj_id, 0) + 1
                )

        res.n_episodes += 1
        last = members[-1]
        tail_done = max(r.done_cycle for r in batch)
        self._cycle = max(t, issue0 + ((inst[last] - head_inst) * den) // num,
                          tail_done - p.backlog)
        self._inst_prev = inst[last]
        self._idx = j
        if self.finished:
            tail = self.total_instructions - self._inst_prev
            self._cycle += (tail * den) // num
            res.cycles = self._cycle
        return self._cycle

    def run_to_completion(self, memsys: MemorySystem) -> CoreResult:
        """Drain the whole stream, one episode at a time."""
        if self._n == 0:
            self._cycle += self.params.cycles_for(self.total_instructions)
            self.result.cycles = self._cycle
            self.publish_obs()
            return self.result
        while not self.finished:
            self.run_episode(memsys)
        self.publish_obs()
        return self.result
