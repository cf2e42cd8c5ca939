"""Placement policies over measured usage and open reservations.

Admission never trusts declarations alone: a node's occupancy is the maximum
of what the probes measured and what reservations say, so a node looks full
both while measurements lag behind fresh placements and while real usage
exceeds what jobs reserved.  Protected memory is never over-committed.  Both
halves are counters on the node: `NodeState.measured_*`, which the caller
brings up to the tick's window before the tick (a replay advances its
`UsageLedger`), and `NodeState.reserved_*`.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from itertools import chain
from math import isqrt
from typing import Callable, Iterable

from .cluster import ClusterState, NodeState
from .trace import JobSpec


# A tree leaf with no job: more pages and memory than any job asks for.
_EMPTY = sys.maxsize


class _Parked:
    """The parked jobs of one class, by queue position: a binary tree over
    a window of positions whose every node holds the fewest declared pages
    and the least requested memory of the jobs below it.  The first job
    that fits some node is then one descent that skips every subtree asking
    for more of both than each node has.  The window starts at the first
    parked position, so the tree spans the parked jobs, not the run."""

    __slots__ = ("entries", "base", "size", "pages", "mem")

    def __init__(self):
        self.entries: dict[int, tuple[int, JobSpec]] = {}  # position -> entry
        self.base = 0  # the position of the first leaf
        self.size = 1  # leaves, a power of two
        self.pages = [_EMPTY, _EMPTY]
        self.mem = [_EMPTY, _EMPTY]

    def add(self, entry: tuple[int, JobSpec]) -> None:
        pos, job = entry
        if not self.entries:
            self.base = pos  # an empty tree holds only _EMPTY
        elif not 0 <= pos - self.base < self.size:
            self._rebuild(pos)
        self.entries[pos] = entry
        pages, mem, tp, tm = job.declared_epc_pages, job.requested_mem, \
            self.pages, self.mem
        i = pos - self.base + self.size
        while i and (tp[i] > pages or tm[i] > mem):
            if tp[i] > pages:
                tp[i] = pages
            if tm[i] > mem:
                tm[i] = mem
            i >>= 1

    def remove(self, pos: int) -> None:
        del self.entries[pos]
        tp, tm = self.pages, self.mem
        i = pos - self.base + self.size
        tp[i] = tm[i] = _EMPTY
        i >>= 1
        while i:
            left, right = 2 * i, 2 * i + 1
            pages = tp[left] if tp[left] < tp[right] else tp[right]
            mem = tm[left] if tm[left] < tm[right] else tm[right]
            if tp[i] == pages and tm[i] == mem:
                break
            tp[i], tm[i] = pages, mem
            i >>= 1

    def first(self, rooms: list[tuple[int, int]]) -> tuple[int, JobSpec] | None:
        """The entry of the first job that asks for no more pages and
        memory than one of the (page, standard) headrooms `rooms`."""
        tp, tm, size = self.pages, self.mem, self.size
        stack = [1]
        while stack:
            i = stack.pop()
            pages, mem = tp[i], tm[i]
            for page_room, std_room in rooms:
                if pages <= page_room and mem <= std_room:
                    break
            else:
                continue
            if i >= size:
                return self.entries[i - size + self.base]
            stack += (2 * i + 1, 2 * i)
        return None

    def _rebuild(self, pos: int) -> None:
        """Widen the window to the parked positions and `pos`."""
        base = min(pos, min(self.entries))
        span, size = max(pos, max(self.entries)) - base, self.size
        while size <= span:
            size *= 2
        tp, tm = [_EMPTY] * (2 * size), [_EMPTY] * (2 * size)
        for at, (_, job) in self.entries.items():
            i = at - base + size
            tp[i], tm[i] = job.declared_epc_pages, job.requested_mem
        for i in range(size - 1, 0, -1):
            tp[i] = min(tp[2 * i], tp[2 * i + 1])
            tm[i] = min(tm[2 * i], tm[2 * i + 1])
        self.base, self.size, self.pages, self.mem = base, size, tp, tm


class PendingQueue:
    """The run's jobs, `jobs`, in first-come-first-served order (submit
    time, then job id), a job's queue position being its index there, with
    the running sum of the protected pages the queued ones declare.  The
    constructor queues no job; `arrive` queues them in order.  Placement or
    a kill takes a job out; there is no other way out.

    A queued job is new until a walk (`schedule_tick`) visits it, then
    parked if the walk leaves it queued: the new jobs are the positions
    from `walked` up to `arrived`.  Parked jobs are kept by queue position,
    per class (standard and enclave), under a tree of their least demands
    (`_Parked`), so the first of them that fits some node at its current
    headroom is one descent per class.  Iteration, `len` and `epc_pages`
    cover new and parked jobs alike."""

    def __init__(self, jobs: Iterable[JobSpec] = ()):
        self.jobs = list(jobs)
        seen: set[str] = set()
        for job in self.jobs:
            if job.job_id in seen:
                raise ValueError(f"duplicate job_id {job.job_id!r}")
            seen.add(job.job_id)
        self.jobs.sort(key=lambda j: (j.submit_ms, j.job_id))
        self.arrived = 0  # the positions before it have been queued
        self.walked = 0  # ... and visited by a walk
        self._std, self._enclave = _Parked(), _Parked()
        self.epc_pages = 0  # standard jobs declare none

    def arrive(self, now: int) -> int | None:
        """Queue the jobs submitted before `now`; the submit time of the
        last of them, or None if there is none."""
        jobs, i = self.jobs, self.arrived
        end, pages = len(jobs), 0
        while i < end and jobs[i].submit_ms < now:
            pages += jobs[i].declared_epc_pages
            i += 1
        if i == self.arrived:
            return None
        self.arrived, self.epc_pages = i, self.epc_pages + pages
        return jobs[i - 1].submit_ms

    def due(self, cluster: ClusterState) -> Iterable[tuple[int, JobSpec]]:
        """The entries a walk over the cluster visits, in queue order.  With
        nothing parked, the new jobs.  Otherwise the new jobs are parked
        too, and the walk takes, one at a time, the first queued entry that
        fits some node at its headroom when it is taken, after the walk's
        earlier placements; each leaves its tree before it is yielded.  The
        placements only lower headroom, so an entry passed over fits no
        node for the rest of the walk, and every yielded job is placed.  A
        visited job is no longer new or parked."""
        start, self.walked = self.walked, self.arrived
        parked = self._std.entries or self._enclave.entries
        if start == self.walked and not parked:
            return ()
        new = list(enumerate(self.jobs[start:self.walked], start))
        if not parked:
            return new
        self.park(new)
        return self._fits(cluster.nodes.values())

    def _fits(self, nodes: Iterable[NodeState]):
        """Yield the first parked entry that fits one of the nodes, out of
        its tree, until none fits."""
        while (found := self._first(nodes)) is not None:
            pos, job = found
            (self._enclave if job.kind.uses_epc else self._std).remove(pos)
            yield found

    def _first(self, nodes: Iterable[NodeState]) -> tuple[int, JobSpec] | None:
        """The first parked entry that fits one of the nodes, or None."""
        rooms = [_headroom(node) for node in nodes]
        found = None
        if self._std.entries:
            found = self._std.first([(_EMPTY, max(std for std, _ in rooms))])
        if self._enclave.entries:
            enclave = self._enclave.first(
                [(pages, std) for std, pages in rooms if pages > 0])
            if enclave is not None and (found is None or enclave[0] < found[0]):
                found = enclave
        return found

    def park(self, entries: list[tuple[int, JobSpec]]) -> None:
        """Park queued entries, each under its class's tree."""
        for entry in entries:
            (self._enclave if entry[1].kind.uses_epc else self._std).add(entry)

    def take(self, placed: list[tuple[JobSpec, str]]) -> None:
        """Count out the pages of one walk's (job, node id) placements, which
        its `due` has already taken out of the new or parked jobs."""
        self.epc_pages -= sum(job.declared_epc_pages for job, _ in placed)

    def check_walk(self, now: int, cluster: ClusterState) -> None:
        """Check, right after a walk over the cluster, that no parked job
        fits one of its nodes; an AssertionError at `now` if one does."""
        parked = [*self._std.entries.values(), *self._enclave.entries.values()]
        for node_id, node in cluster.nodes.items():
            for _, job in parked:
                if feasible(job, node):
                    raise AssertionError(f"t={now}: parked {job.job_id} "
                                         f"fits {node_id}")

    def drain(self) -> list[JobSpec]:
        """Empty the queue; its jobs in queue order."""
        jobs = list(self)
        self.walked, self.epc_pages = self.arrived, 0
        self._std, self._enclave = _Parked(), _Parked()
        return jobs

    def __len__(self) -> int:
        return (self.arrived - self.walked + len(self._std.entries)
                + len(self._enclave.entries))

    def __iter__(self):
        parked = sorted(chain(self._std.entries, self._enclave.entries))
        return chain((self.jobs[pos] for pos in parked),
                     self.jobs[self.walked:self.arrived])


def _headroom(node: NodeState) -> tuple[int, int]:
    """The node's (standard, page) headroom, capacity - max(measured,
    reserved) of each resource; -1 pages on a node without protected memory."""
    epc = node.spec.epc
    pages = -1 if epc is None else epc.usable_pages - max(
        node.measured_epc_pages, node.reserved_epc_pages)
    return node.spec.std_capacity - max(node.measured_std,
                                        node.reserved_std), pages


def feasible(job: JobSpec, node: NodeState) -> bool:
    """Whether the node can take the job right now: its request fits under
    the node's `_headroom` of each resource.

    Enclave jobs need page headroom for their declared pages, which a node
    without protected memory never has (its page headroom counts as -1);
    every job additionally needs standard-memory headroom for its advertised
    request (an enclave job's untrusted part lives there too).
    """
    std, pages = _headroom(node)
    return std >= job.requested_mem and (
        not job.kind.uses_epc or pages >= job.declared_epc_pages)


def binpack_select(job: JobSpec, cluster: ClusterState) -> str | None:
    """First feasible node in a fixed order, so load piles up on the lowest
    node ids.  Standard jobs try enclave-capable nodes last, keeping the
    scarce protected-memory hosts free for jobs that need them."""
    if job.kind.uses_epc:
        candidates = cluster.sgx_nodes
    else:
        candidates = chain(cluster.plain_nodes, cluster.sgx_nodes)
    for node in candidates:
        if feasible(job, node):
            return node.node_id
    return None


# A ratio of at least this many bits has an integer square root of at least
# two bits more than a float's significand, enough to round it to odd.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded to a float: the population stddev
    of a variance of exactly num / den (what `statistics.pstdev` returns
    from Python 3.11 on).

    The ratio is scaled by 4**-q to _SQRT_BITS bits or more and its integer
    root rounded to odd (low bit set when inexact); the float conversion is
    then the only rounding, since scaling back by 2**q is exact."""
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


def _lift(load: float, unit: float) -> int:
    """load * unit as an integer, for unit a power of two that is a multiple
    of the float's denominator: scaling by a power of two is exact."""
    return int(load * unit)


class _LoadSums:
    """One candidate list's loads on one resource, kept for a run.

    A node's load is the float r / c of its reservation r and capacity c.
    A nonzero load r / c <= 1 is at least 2**-b for b the bit length of the
    list's largest capacity, so its last significand bit is worth at least
    2**-bits, bits = b + 52: every load is held exactly as the integer
    N = load * 2**bits, with S = sum(N), Q = sum(N*N) and the reservation
    each N was lifted from.  The nodes are grouped by capacity, and each
    class keeps its (reservation, list index) keys sorted.  `update` brings
    one node's N, the sums and its place in its class up to its current
    reservation."""

    __slots__ = ("nodes", "ids", "pages", "caps", "bits", "unit", "reserved",
                 "lifted", "total", "squares", "classes")

    def __init__(self, nodes: list[NodeState], pages: bool):
        self.nodes = nodes
        self.ids = [node.node_id for node in nodes]
        self.pages = pages
        self.caps = [node.spec.epc.usable_pages if pages
                     else node.spec.std_capacity for node in nodes]
        self.bits = (max((cap.bit_length() for cap in self.caps), default=0)
                     + sys.float_info.mant_dig - 1)
        self.unit = float(1 << self.bits)
        self.reserved = [self.current(node) for node in nodes]
        self.lifted, self.total, self.squares = self.fresh()
        self.classes = self.sorted_classes()

    def current(self, node: NodeState) -> int:
        """The node's reservation of the resource, now."""
        return node.reserved_epc_pages if self.pages else node.reserved_std

    def fresh(self) -> tuple[list[int], int, int]:
        """N, S and Q computed anew from the stored reservations."""
        unit = self.unit
        lifted = [_lift(r / cap, unit)
                  for r, cap in zip(self.reserved, self.caps)]
        return lifted, sum(lifted), sum(v * v for v in lifted)

    def sorted_classes(self) -> dict[int, list[tuple[int, int]]]:
        """Each capacity's sorted (reservation, index) keys, computed anew
        from the stored reservations."""
        classes: dict[int, list[tuple[int, int]]] = {}
        for i, (cap, r) in enumerate(zip(self.caps, self.reserved)):
            classes.setdefault(cap, []).append((r, i))
        for keys in classes.values():
            keys.sort()
        return classes

    def update(self, i: int) -> None:
        """Relift node i to its current reservation, fix S and Q, and move
        it within its class."""
        r, was = self.current(self.nodes[i]), self.reserved[i]
        if r == was:
            return
        cap = self.caps[i]
        old, new = self.lifted[i], _lift(r / cap, self.unit)
        self.reserved[i], self.lifted[i] = r, new
        self.total += new - old
        self.squares += new * new - old * old
        keys = self.classes[cap]
        del keys[bisect_left(keys, (was, i))]
        insort(keys, (r, i))


class _Spread:
    """The state `spread` keeps for one cluster state: the load sums of its
    candidate lists, by name (enclave-capable nodes by pages, plain nodes
    by standard memory, and enclave-capable nodes by standard memory for
    the standard fallback), and `changed`, the cluster's change feed.
    `drain` brings the sums up to the nodes the feed recorded, so a
    decision pays for the nodes that changed since the last one, not for
    the whole list."""

    __slots__ = ("sums", "changed", "slots")

    def __init__(self, cluster: ClusterState):
        self.sums = {
            "enclave nodes by pages": _LoadSums(cluster.sgx_nodes, True),
            "plain nodes by std memory": _LoadSums(cluster.plain_nodes, False),
            "enclave nodes by std memory": _LoadSums(cluster.sgx_nodes, False)}
        self.slots: dict[str, list[tuple[_LoadSums, int]]] = {}
        for sums in self.sums.values():
            for i, node_id in enumerate(sums.ids):
                self.slots.setdefault(node_id, []).append((sums, i))
        self.changed = cluster.changed

    def drain(self) -> None:
        for node_id in self.changed:
            for sums, i in self.slots[node_id]:
                sums.update(i)
        self.changed.clear()

    def check(self, now: int) -> None:
        """Check that every node whose reservation moved away from the one
        its load was lifted from recorded the change, each kept load and its
        sums against a fresh lift of that reservation, and each capacity
        class's order against a fresh sort; an AssertionError at `now` if
        not."""
        for name, sums in self.sums.items():
            for node_id, node, was in zip(sums.ids, sums.nodes, sums.reserved):
                if node_id not in self.changed and sums.current(node) != was:
                    raise AssertionError(f"t={now}: {node_id} changed its "
                                         "reservation without recording it")
            if sums.fresh() != (sums.lifted, sums.total, sums.squares):
                raise AssertionError(f"t={now}: spread load sums of {name} "
                                     "!= a fresh lift of their reservations")
            if sums.classes != sums.sorted_classes():
                raise AssertionError(f"t={now}: spread classes of {name} "
                                     "!= a fresh sort of their reservations")


def spread_state(cluster: ClusterState) -> _Spread:
    """The state `spread` keeps for a cluster state, built on first use and
    kept on the state for its run, where its candidate orders are kept
    too."""
    spread = vars(cluster).get("_spread")
    if spread is None:
        spread = vars(cluster)["_spread"] = _Spread(cluster)
    return spread


def _pick_balanced(job: JobSpec, sums: _LoadSums) -> str | None:
    """Among the feasible nodes of the job's list, the one whose
    hypothetical placement leaves the list's loads with the smallest
    population stddev; ties go to the lowest node id.

    A score is the correctly rounded square root of the list's exact
    population variance, so two different variances that round to one
    stddev still tie.  With n nodes, V0 = n*Q - S*S and N_i replaced by
    N' = N_i + d, n times the variance is var = V0 + d*(2*(n*N_i - S) +
    (n-1)*d) over (2**bits)**2, so on top of the sums, which carry over
    from earlier decisions, and of `feasible`, a target costs O(1).

    Targets are visited class by class, each class from its least reserved
    node.  In a class of capacity c, float division by c is monotone, so
    N_i and N' follow the reservations, and for d >= 0 var grows with N_i.
    Each lift is the correctly rounded load times 2**bits, within
    2**(bits-53) of r * 2**bits / c for a load of at most 1, so every
    target of the class has d in [lo, hi], the exact extra * 2**bits / c
    widened by 2**(bits-52) on each side.  The least var over d in
    [lo, hi] at the current N_i (the convex quadratic's minimum, floored)
    is then a lower bound for this node and every later one.  A score is
    within a relative 2**-53 of the exact root, and the midpoint between it
    and the next float up within another 2**-53, so a variance above
    cut = V + (V >> 50) + 1, for V the best target's var, has a root that
    rounds above the best score: once the bound passes it, no later node of
    the class can win.  A target above it is not scored either.  A node
    whose reservation leaves no room for the job ends its class, since
    every later one holds at least as much.  Nodes of one reservation share
    N_i and N', so only the first feasible node of such a run, the one with
    the lowest index, is scored, and the walk jumps past the rest.  Since
    the walk is not in node id order, an equal score wins when its node
    comes earlier in the list."""
    nodes = sums.nodes
    extra = job.declared_epc_pages if sums.pages else job.requested_mem
    lifted, unit, bits, total = sums.lifted, sums.unit, sums.bits, sums.total
    n = len(nodes)
    k = n - 1
    base = n * sums.squares - total * total
    scale = (n << bits) ** 2
    slack = 1 << (bits - sys.float_info.mant_dig + 1)
    best, best_score, best_var, cut = -1, 0.0, 0, 0
    for cap, keys in sums.classes.items():
        step, rest = divmod(extra << bits, cap)
        lo, hi = max(step - slack, 0), step + (rest > 0) + slack
        klo, khi = k * lo, k * hi
        pos, end = 0, len(keys)
        while pos < end:
            r, i = keys[pos]
            if r + extra > cap:
                break
            c = n * lifted[i] - total
            if best >= 0:
                if c >= -klo:
                    least = base + lo * (2 * c + klo)
                elif c <= -khi:
                    least = base + hi * (2 * c + khi)
                else:
                    least = base - (c * c + k - 1) // k
                if least > cut:
                    break
            run_end = bisect_left(keys, (r + 1,), pos + 1)
            for pos in range(pos, run_end):
                i = keys[pos][1]
                if not feasible(job, nodes[i]):
                    continue
                d = _lift((r + extra) / cap, unit) - lifted[i]
                var = base + d * (2 * c + k * d)
                if best < 0 or var <= cut and (var < best_var or i < best):
                    score = _sqrt_of_ratio(var, scale)
                    if (best < 0 or score < best_score
                            or score == best_score and i < best):
                        best, best_score, best_var = i, score, var
                        cut = var + (var >> 50) + 1
                break
            pos = run_end
    return sums.ids[best] if best >= 0 else None


def spread_select(job: JobSpec, cluster: ClusterState) -> str | None:
    """Evens out the reserved fraction of the resource the job cares about.

    Enclave jobs balance page reservations across enclave-capable nodes.
    Standard jobs balance standard memory across the plain nodes and fall
    back to enclave-capable ones only when no plain node is feasible."""
    spread = spread_state(cluster)
    spread.drain()
    sums = spread.sums
    if job.kind.uses_epc:
        return _pick_balanced(job, sums["enclave nodes by pages"])
    chosen = _pick_balanced(job, sums["plain nodes by std memory"])
    if chosen is not None:
        return chosen
    return _pick_balanced(job, sums["enclave nodes by std memory"])


# The policy contract, which every entry must keep: select(job, cluster)
# reads each node's measured usage and reservations off its `NodeState`,
# changes neither, and picks from the job's candidate set, which depends
# only on the job's kind (the enclave-capable nodes for enclave jobs, all
# nodes for standard jobs).  `schedule_tick`'s walk over parked jobs relies
# on it returning only `feasible` candidate nodes, and the check after a
# walk (`PendingQueue.check_walk`) on it returning None only when no
# candidate is `feasible`.
POLICIES: dict[str, Callable[..., str | None]] = {
    "binpack": binpack_select,
    "spread": spread_select,
}


def schedule_tick(queue: PendingQueue, cluster: ClusterState,
                  policy: str = "binpack") -> list[tuple[JobSpec, str]]:
    """Walk the queue in order once, placing every job that fits somewhere;
    the placed jobs with their node ids, in queue order.

    Admission reads the nodes' measured usage as the caller left it for this
    tick; reservations made for jobs placed earlier in the same walk are
    visible to later ones, so one tick cannot over-commit a node.  Jobs with
    no feasible node simply stay queued without blocking the jobs behind
    them.  Placed jobs leave the queue together after the walk; the others
    are parked.

    With nothing parked the walk asks the policy for each new job.  With
    parked jobs it visits only the jobs `PendingQueue.due` finds: in queue
    order, each queued job that fits some node at that node's headroom when
    its turn comes.  A policy returns None exactly when no candidate node
    is feasible, so the jobs passed over are those a walk over the whole
    queue fails, every visited job is placed, and the placements are those
    of that walk.
    """
    try:
        select = POLICIES[policy]
    except KeyError:
        raise ValueError(f"unknown policy {policy!r}") from None
    walk = queue.due(cluster)
    if not walk:  # no job to visit, so nothing to take or park
        return []
    placed: list[tuple[JobSpec, str]] = []
    failed: list[tuple[int, JobSpec]] = []
    for entry in walk:
        job = entry[1]
        node_id = select(job, cluster)
        if node_id is None:
            failed.append(entry)
            continue
        cluster.nodes[node_id].reserve(job.requested_mem,
                                       job.declared_epc_pages)
        placed.append((job, node_id))
    queue.take(placed)
    queue.park(failed)
    return placed
