"""BLIF parsing and writing."""

from __future__ import annotations

import itertools

import pytest

from repro.fsm import benchmarks
from repro.fsm.am2910 import am2910
from repro.fsm.blif import BlifError, parse_blif, write_blif
from repro.fsm.benchmarks import counter, token_ring

SIMPLE = """
.model toy
.inputs a b
.outputs f
.names a b f
11 1
.end
"""

LATCHED = """
.model seq
.inputs d
.outputs q
.latch nd q re clk 1
.names d nd
1 1
.names q qo
1 1
.outputs qo
.end
"""


class TestParse:
    def test_and_gate(self):
        circuit = parse_blif(SIMPLE)
        assert circuit.name == "toy"
        assert circuit.inputs == ["a", "b"]
        outs, _ = circuit.simulate({"a": True, "b": True}, {})
        assert outs["f"]
        outs, _ = circuit.simulate({"a": True, "b": False}, {})
        assert not outs["f"]

    def test_latch_with_init(self):
        circuit = parse_blif(LATCHED)
        assert circuit.num_latches == 1
        assert circuit.latches[0].init is True
        state = circuit.initial_state()
        _, nxt = circuit.simulate({"d": False}, state)
        assert nxt == {"q": False}

    def test_dont_care_rows(self):
        text = """
.model dc
.inputs a b c
.outputs f
.names a b c f
1-0 1
01- 1
.end
"""
        circuit = parse_blif(text)
        for a, b, c in itertools.product([False, True], repeat=3):
            outs, _ = circuit.simulate({"a": a, "b": b, "c": c}, {})
            assert outs["f"] == ((a and not c) or ((not a) and b))

    def test_complemented_cover(self):
        text = """
.model comp
.inputs a b
.outputs f
.names a b f
11 0
.end
"""
        circuit = parse_blif(text)
        outs, _ = circuit.simulate({"a": True, "b": True}, {})
        assert not outs["f"]
        outs, _ = circuit.simulate({"a": False, "b": True}, {})
        assert outs["f"]

    def test_constant_names(self):
        text = """
.model k
.outputs f
.names f
1
.end
"""
        circuit = parse_blif(text)
        outs, _ = circuit.simulate({}, {})
        assert outs["f"]

    def test_comments_and_continuations(self):
        text = """
# a comment
.model c
.inputs a \\
 b
.outputs f
.names a b f   # trailing comment
11 1
.end
"""
        circuit = parse_blif(text)
        assert circuit.inputs == ["a", "b"]

    def test_errors(self):
        with pytest.raises(BlifError):
            parse_blif(".model x\n.latch a\n.end")
        with pytest.raises(BlifError):
            parse_blif(".model x\n.inputs a\n.outputs f\n"
                       ".names a f\n111 1\n.end")
        with pytest.raises(BlifError):
            parse_blif(".model x\n.outputs f\n.end")
        with pytest.raises(BlifError):
            parse_blif("11 1\n.end")
        # A signal declared twice: as two inputs, or driven by two
        # latches.
        with pytest.raises(BlifError, match="'a' already exists"):
            parse_blif(".model x\n.inputs a a\n.end")
        with pytest.raises(BlifError, match="'q' already exists"):
            parse_blif(".model x\n.latch n q 0\n.latch n q 1\n"
                       ".names q n\n1 1\n.end")
        # A signal with two drivers: two tables, or a table driving an
        # input or a latch output.
        with pytest.raises(BlifError, match="'z' driven by two"):
            parse_blif(".model x\n.inputs a b\n.outputs z\n"
                       ".names a z\n1 1\n.names b z\n1 1\n.end")
        with pytest.raises(BlifError, match="'a' is an input or latch"):
            parse_blif(".model x\n.inputs a b\n.outputs z\n"
                       ".names a\n1\n.names a b z\n11 1\n.end")
        with pytest.raises(BlifError, match="'q' is an input or latch"):
            parse_blif(".model x\n.inputs a\n.outputs q\n"
                       ".latch a q 0\n.names a q\n0 1\n.end")


class TestRoundTrip:
    @pytest.mark.parametrize("make", [lambda: counter(3),
                                      lambda: token_ring(3)])
    def test_write_then_parse_equivalent(self, make, rng):
        original = make()
        text = write_blif(original)
        parsed = parse_blif(text)
        assert set(parsed.inputs) == set(original.inputs)
        assert parsed.num_latches == original.num_latches
        # Differential simulation from reset.
        state_o = original.initial_state()
        state_p = parsed.initial_state()
        for _ in range(30):
            inputs = {name: rng.random() < 0.5
                      for name in original.inputs}
            outs_o, state_o = original.simulate(inputs, state_o)
            outs_p, state_p = parsed.simulate(inputs, state_p)
            assert outs_o == {k: outs_p[k] for k in outs_o}
            assert state_o == state_p

    def test_every_generator_parses_back(self):
        # parse_blif rejects a signal with two drivers; write_blif must
        # never emit one.
        circuits = [am2910(4, 3), benchmarks.checksum_memory(4, 4)]
        for name in ("comm_controller", "counter", "lfsr",
                     "lfsr_accumulator", "mult_accumulator",
                     "rotator_sum", "serial_multiplier",
                     "subset_sum_datapath", "token_ring",
                     "triangle_datapath"):
            circuits.append(getattr(benchmarks, name)(4))
        for name in ("counters", "pipeline_controller", "shift_queue"):
            circuits.append(getattr(benchmarks, name)(4, 3))
        for circuit in circuits:
            parsed = parse_blif(write_blif(circuit))
            assert parsed.num_latches == circuit.num_latches, circuit.name
