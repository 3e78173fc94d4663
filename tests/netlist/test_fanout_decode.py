"""Differential test of the FF-graph bit decoding against the shift loop.

:func:`~repro.netlist.traversal._bit_indices` decodes a reachability
mask in O(popcount).  The oracle here is the decoder it replaced, which
shifts the mask once per bit; both must give the same ``fanout`` and
``pi_fanout`` on every bundled design, before and after conversion.
"""

import os

import pytest

from repro.circuits import build, names
from repro.convert import convert_to_three_phase
from repro.library.fdsoi28 import FDSOI28
from repro.netlist.traversal import (
    _net_to_ff_masks,
    ff_fanout_map,
    seq_fanout_map,
)

#: the shift loop is quadratic in the register count: above this many
#: registers only every ``_STRIDE``-th register's mask is decoded by it,
#: unless ``REPRO_VERIFY_SWEEP=1`` asks for the full check (aes has 9.7k
#: FFs and 16k latches after conversion, about 50 s of shifting).
_FULL_MAX_REGS = 5_000
_STRIDE = 16
_FULL = os.environ.get("REPRO_VERIFY_SWEEP") == "1"


def _shift_decode(bits: int) -> list[int]:
    """The original decoder: one shift per bit position."""
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return out


def _assert_matches_oracle(module, graph):
    regs = graph.ffs
    masks = _net_to_ff_masks(module, regs)
    stride = 1 if _FULL or len(regs) <= _FULL_MAX_REGS else _STRIDE
    for name in regs[::stride]:
        q_net = module.instances[name].conns.get("Q")
        bits = masks[q_net] if q_net is not None else 0
        assert graph.fanout[name] == {regs[i] for i in _shift_decode(bits)}
    assert list(graph.fanout) == regs
    pi_bits = 0
    for port in module.data_input_ports():
        pi_bits |= masks[port]
    assert graph.pi_fanout == {regs[i] for i in _shift_decode(pi_bits)}


@pytest.mark.parametrize("design", names())
def test_fanout_maps_match_shift_decoder(design):
    module = build(design)
    ffs = ff_fanout_map(module)
    _assert_matches_oracle(module, ffs)
    seqs = seq_fanout_map(module)
    if seqs.ffs == ffs.ffs:
        assert (seqs.fanout, seqs.pi_fanout) == (ffs.fanout, ffs.pi_fanout)
    else:
        _assert_matches_oracle(module, seqs)

    converted = convert_to_three_phase(module, FDSOI28, period=1000.0).module
    latches = seq_fanout_map(converted)
    assert latches.ffs
    _assert_matches_oracle(converted, latches)
