"""Unit and property tests for the separable dual allocator (Section II.B.1-2).

Requests are ``(input_index, lane, flit, wants)`` tuples and grants
``(request, output)`` tuples.
"""

from hypothesis import given, strategies as st

from repro.core.allocator import (
    BUFFERED,
    BUFFERLESS,
    SeparableDualAllocator,
    requires_swap,
)
from repro.sim.flit import Flit
from repro.sim.ports import Port


def _flit(fid):
    return Flit(fid, fid, src=0, dst=1, injected_cycle=fid)


def _req(inp, lane, fid, wants):
    return (inp, lane, _flit(fid), tuple(Port(w) for w in wants))


class TestRequiresSwap:
    def test_fig4c_example(self):
        """I0 -> O4 with I0' -> O2 is the paper's conflict example."""
        assert requires_swap(4, 2)

    def test_ordered_pair_needs_no_swap(self):
        assert not requires_swap(2, 3)

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_antisymmetric(self, a, b):
        if a != b:
            assert requires_swap(a, b) != requires_swap(b, a)


class TestAllocatorBasics:
    def test_empty(self):
        grants, swaps = SeparableDualAllocator().allocate([])
        assert grants == [] and swaps == 0

    def test_single_request_granted(self):
        grants, _ = SeparableDualAllocator().allocate([_req(0, BUFFERLESS, 1, [2])])
        assert len(grants) == 1
        assert int(grants[0][1]) == 2

    def test_dual_lane_same_input_both_granted(self):
        """The whole point of the dual-input crossbar: I0 and I0' traverse
        simultaneously to different outputs."""
        reqs = [
            _req(0, BUFFERLESS, 1, [2]),
            _req(0, BUFFERED, 2, [3]),
        ]
        grants, swaps = SeparableDualAllocator().allocate(reqs)
        assert len(grants) == 2
        assert {int(out) for _req, out in grants} == {2, 3}
        assert swaps == 0

    def test_conflict_free_swap_counted(self):
        """Fig 4(c): bufferless to the higher output index fires the
        detection logic; both still proceed."""
        reqs = [
            _req(1, BUFFERLESS, 1, [4]),
            _req(1, BUFFERED, 2, [2]),
        ]
        grants, swaps = SeparableDualAllocator().allocate(reqs)
        assert len(grants) == 2
        assert swaps == 1

    def test_same_output_contention_one_winner(self):
        reqs = [
            _req(0, BUFFERLESS, 1, [2]),
            _req(1, BUFFERLESS, 2, [2]),
        ]
        grants, _ = SeparableDualAllocator().allocate(reqs)
        assert len(grants) == 1

    def test_lanes_wanting_same_output_one_wins(self):
        reqs = [
            _req(0, BUFFERLESS, 1, [2]),
            _req(0, BUFFERED, 2, [2]),
        ]
        grants, _ = SeparableDualAllocator().allocate(reqs)
        assert len(grants) == 1
        (_i, lane, _f, _w), _out = grants[0]
        assert lane == BUFFERLESS

    def test_waiters_first_flips_lane_priority(self):
        reqs = [
            _req(0, BUFFERLESS, 1, [2]),
            _req(0, BUFFERED, 2, [2]),
        ]
        grants, _ = SeparableDualAllocator().allocate(reqs, waiters_first=True)
        assert len(grants) == 1
        (_i, lane, _f, _w), _out = grants[0]
        assert lane == BUFFERED

    def test_round_robin_rotates_between_inputs(self):
        alloc = SeparableDualAllocator()
        winners = []
        for _ in range(4):
            reqs = [
                _req(0, BUFFERLESS, 1, [2]),
                _req(1, BUFFERLESS, 2, [2]),
            ]
            grants, _ = alloc.allocate(reqs)
            winners.append(grants[0][0][0])
        assert set(winners) == {0, 1}

    def test_swaps_total_accumulates(self):
        alloc = SeparableDualAllocator()
        reqs = [_req(1, BUFFERLESS, 1, [4]), _req(1, BUFFERED, 2, [2])]
        alloc.allocate(reqs)
        alloc.allocate(reqs)
        assert alloc.swaps_total == 2


# Strategy: a feasible random request set with at most two lanes per input.
@st.composite
def request_sets(draw):
    reqs = []
    fid = 0
    for inp in range(5):
        lanes = draw(st.sampled_from([(), (BUFFERLESS,), (BUFFERED,), (BUFFERLESS, BUFFERED)]))
        if inp == 4:
            lanes = tuple(ln for ln in lanes if ln == BUFFERED)  # LOCAL has no incoming lane
        for lane in lanes:
            wants = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
            fid += 1
            reqs.append(_req(inp, lane, fid, wants))
    return reqs


class TestAllocatorInvariants:
    @given(request_sets(), st.booleans())
    def test_matching_is_conflict_free(self, reqs, flip):
        grants, _ = SeparableDualAllocator().allocate(reqs, waiters_first=flip)
        outputs = [int(out) for _req, out in grants]
        assert len(outputs) == len(set(outputs)), "output granted twice"
        lanes = [(i, lane) for (i, lane, _f, _w), _out in grants]
        assert len(lanes) == len(set(lanes)), "lane granted twice"
        flits = [id(flit) for (_i, _lane, flit, _w), _out in grants]
        assert len(flits) == len(set(flits)), "flit granted twice"

    @given(request_sets(), st.booleans())
    def test_grants_respect_wants(self, reqs, flip):
        grants, _ = SeparableDualAllocator().allocate(reqs, waiters_first=flip)
        for (_i, _lane, _f, wants), out in grants:
            assert out in wants

    @given(request_sets())
    def test_at_most_two_grants_per_input(self, reqs):
        grants, _ = SeparableDualAllocator().allocate(reqs)
        per_input = {}
        for (i, _lane, _f, _w), _out in grants:
            per_input[i] = per_input.get(i, 0) + 1
        assert all(v <= 2 for v in per_input.values())

    @given(request_sets())
    def test_work_conserving_single_requester(self, reqs):
        """With exactly one requester, it always gets a grant."""
        if len(reqs) == 1:
            grants, _ = SeparableDualAllocator().allocate(reqs)
            assert len(grants) == 1


# ---------------------------------------------------------------------------
# Differential oracle: the original dict/set formulation of the allocator,
# kept verbatim so any rewrite of the production allocator is pinned to it
# grant for grant, swap for swap and pointer for pointer.
# ---------------------------------------------------------------------------


class _OracleRoundRobinArbiter:
    """Iterable-request round-robin arbiter (the original formulation)."""

    def __init__(self, size):
        self.size = size
        self._ptr = 0

    def grant(self, requests):
        req = set(requests)
        if not req:
            return None
        for off in range(self.size):
            idx = (self._ptr + off) % self.size
            if idx in req:
                self._ptr = (idx + 1) % self.size
                return idx
        return None

    def state_dict(self):
        return {"ptr": self._ptr}


class _OracleAllocator:
    """The original dict/set separable dual allocator."""

    def __init__(self, num_ports=5):
        self.num_ports = num_ports
        self._output_arbs = [_OracleRoundRobinArbiter(num_ports) for _ in range(num_ports)]
        self.swaps_total = 0

    def allocate(self, requests, waiters_first=False):
        # ---- stage 1: per-output P:1 arbitration over OR-ed requests ----
        by_input = {}
        for req in requests:
            by_input.setdefault(req[0], []).append(req)

        output_requests = {o: set() for o in range(self.num_ports)}
        for i, _lane, _flit, wants in requests:
            for port in wants:
                output_requests[int(port)].add(i)

        granted_outputs = {i: [] for i in by_input}
        for o in range(self.num_ports):
            winner = self._output_arbs[o].grant(output_requests[o])
            if winner is not None:
                granted_outputs[winner].append(o)

        # ---- stage 2: two serial V:1 arbiters per input ----
        grants = []
        swaps = 0
        first_lane = BUFFERED if waiters_first else BUFFERLESS
        for i, outs in granted_outputs.items():
            if not outs:
                continue
            lanes = {r[1]: r for r in by_input[i]}
            ordered = [lane for lane in (first_lane, self._other(first_lane)) if lane in lanes]
            available = set(outs)
            chosen = {}
            for lane in ordered:
                req = lanes[lane]
                pick = self._first_match(req[3], available)
                if pick is not None:
                    available.discard(int(pick))
                    chosen[lane] = pick
                    grants.append((req, pick))
            if BUFFERLESS in chosen and BUFFERED in chosen:
                if requires_swap(int(chosen[BUFFERLESS]), int(chosen[BUFFERED])):
                    swaps += 1
        self.swaps_total += swaps
        return grants, swaps

    def state_dict(self):
        return {
            "output_arbs": [a.state_dict() for a in self._output_arbs],
            "swaps_total": self.swaps_total,
        }

    @staticmethod
    def _other(lane):
        return BUFFERED if lane == BUFFERLESS else BUFFERLESS

    @staticmethod
    def _first_match(wants, available):
        for port in wants:
            if int(port) in available:
                return port
        return None


# One allocation round: 1-2 lanes on each of a random subset of inputs,
# preference-ordered wants, requests presented in a random order.
@st.composite
def allocation_rounds(draw):
    reqs = []
    fid = 0
    inputs = draw(st.lists(st.integers(0, 4), max_size=5, unique=True))
    for inp in inputs:
        lanes = draw(
            st.sampled_from([(BUFFERLESS,), (BUFFERED,), (BUFFERLESS, BUFFERED)])
        )
        for lane in lanes:
            wants = draw(st.permutations(range(5)))
            size = draw(st.integers(1, 5))
            fid += 1
            reqs.append(_req(inp, lane, fid, wants[:size]))
    order = draw(st.permutations(reqs))
    return list(order), draw(st.booleans())


class TestAllocatorMatchesOracle:
    @given(st.lists(allocation_rounds(), min_size=1, max_size=30))
    def test_grants_swaps_and_pointers_identical(self, rounds):
        alloc = SeparableDualAllocator()
        oracle = _OracleAllocator()
        for reqs, flip in rounds:
            grants, swaps = alloc.allocate(reqs, waiters_first=flip)
            want_grants, want_swaps = oracle.allocate(reqs, waiters_first=flip)
            assert grants == want_grants
            assert all(
                req is want for (req, _), (want, _) in zip(grants, want_grants)
            )
            assert all(isinstance(out, Port) for _req, out in grants)
            assert swaps == want_swaps
            assert alloc.state_dict() == oracle.state_dict()
