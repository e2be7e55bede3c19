"""Robustness: conclusions must survive model-parameter perturbation,
and the toolchain must hold up on arbitrary (fuzzed) networks."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adaptive import plan_network
from repro.arch.config import CONFIG_16_16
from repro.arch.energy import EnergyModel, EnergyTable
from repro.errors import ShapeError
from repro.isa.compiler import compile_run
from repro.nn.zoo import build, sequential_cnn
from repro.schemes import group_geometry
from repro.sim.machine import Machine
from repro.tiling.partition import partition_geometry


class TestEnergyConstantRobustness:
    """Table 5's *signs* must not depend on the exact pJ constants."""

    PERTURBATIONS = [
        dict(mult_pj=0.3), dict(mult_pj=1.2),
        dict(add_pj=0.025), dict(add_pj=0.1),
        dict(sram_base_pj=0.18), dict(sram_base_pj=0.7),
    ]

    @pytest.mark.parametrize("overrides", PERTURBATIONS)
    def test_table5_ordering_invariant(self, overrides, cfg16):
        table = EnergyTable(**overrides)
        results = {}
        for name in ("alexnet", "vgg"):
            net = build(name)
            energies = {
                policy: plan_network(net, cfg16, policy).pe_energy_pj(
                    EnergyModel(cfg16, table)
                )
                for policy in ("inter", "intra", "partition", "adaptive-1")
            }
            results[name] = energies
        # AlexNet: adaptive saves vs inter; partition saves vs intra
        a = results["alexnet"]
        assert a["adaptive-1"] < a["inter"]
        assert a["partition"] < a["intra"]
        # VGG: intra costs more PE energy than inter
        v = results["vgg"]
        assert v["intra"] > v["inter"]

    @pytest.mark.parametrize("overrides", PERTURBATIONS)
    def test_fig10_key_reduction_invariant(self, overrides, cfg16):
        """adap-2's traffic win is a pure count ratio: constant-free."""
        net = build("alexnet")
        a1 = plan_network(net, cfg16, "adaptive-1").buffer_accesses
        a2 = plan_network(net, cfg16, "adaptive-2").buffer_accesses
        assert a2 < 0.3 * a1  # no energy constants involved at all


def random_spec(draw_blocks):
    """Assemble a DSL spec string from drawn block parameters."""
    tokens = []
    for out, k, s, pool in draw_blocks:
        pad = k // 2 if s == 1 else 0
        tokens.append(f"C{out}k{k}s{s}p{pad}")
        tokens.append("R")
        if pool:
            tokens.append("P2")
    return " ".join(tokens)


def partition_piece_ops(ctx, config):
    """Partition's op count when one op's windows cover the whole output
    plane (``ox*oy < Tin // (ks*ks)``), else ``None``.

    Then every (piece, input map, Dout chunk) scan is a single op, so the
    layer costs its piece count ``groups * g*g * Din * ceil(Dout/Tout)``
    however few output pixels there are.
    """
    geom = group_geometry(ctx)
    pgeom = partition_geometry(geom.k, geom.s)
    window = pgeom.sub_window_elements
    if window > config.tin or geom.out_pixels >= config.tin // window:
        return None
    return (
        geom.groups
        * pgeom.pieces
        * geom.d
        * math.ceil(geom.dout_g / config.tout)
    )


block = st.tuples(
    st.sampled_from([4, 8, 16, 24, 32]),   # out maps
    st.sampled_from([1, 3, 5, 7]),          # kernel
    st.sampled_from([1, 2]),                # stride
    st.booleans(),                          # pool after?
)


class TestFuzzedNetworks:
    @settings(deadline=None, max_examples=25)
    @given(blocks=st.lists(block, min_size=1, max_size=4), hw=st.sampled_from([24, 32, 48]))
    def test_plan_and_machine_parity_on_random_nets(self, blocks, hw):
        spec = random_spec(blocks)
        try:
            net = sequential_cnn("fuzz", (3, hw, hw), spec)
        except ShapeError:
            return  # drew a spec that shrinks below the kernel size: fine
        for policy in ("inter", "intra", "partition", "adaptive-2"):
            run = plan_network(net, CONFIG_16_16, policy)
            result = Machine(CONFIG_16_16).execute(
                compile_run(run, CONFIG_16_16)
            )
            assert result.buffer_accesses == run.buffer_accesses, policy
            assert result.dram_words == run.dram_words, policy
            assert result.total_cycles == pytest.approx(
                run.total_cycles, abs=2.0
            ), policy

    @settings(deadline=None, max_examples=25)
    @given(blocks=st.lists(block, min_size=1, max_size=4), hw=st.sampled_from([24, 32, 48]))
    @example(
        # C4k5s2 and C4k5s1 on 1x1 maps: partition costs 36 and 100 ops
        # against intra's 7 each, 380 ops in all against intra's 165
        blocks=[(4, 1, 2, True), (4, 5, 2, False), (4, 5, 1, False), (4, 5, 1, False)],
        hw=24,
    )
    def test_adaptive_never_loses_badly_on_random_nets(self, blocks, hw):
        """Algorithm 2 on arbitrary topologies.

        Fuzzing finds the rule's honest corners, so the bounds encode them:

        * compute within 2x of the best fixed policy — partition's
          zero-padding overhead (g*ks)^2/k^2 peaks at ~1.8x for the
          generator's k=3/s=2 draws, and Algorithm 2 does not model it;
        * wall-clock within 3x — tiny DMA-bound layers (e.g. strided 1x1
          convs, where im2col *deflates* the input to 1/s^2 of the pixels)
          make the rule's inter choice stream the full tensor;
        * partition on an output plane smaller than one op's windows
          (ox*oy < Tin // s^2) is left out of the compute bound: every scan
          is one op whatever the plane size, so the layer costs its piece
          count (asserted exactly, and on the machine) while intra packs
          the whole Din*k*k field into a few ops.

        The oracle policy exists for workloads living in those corners; on
        the paper's benchmarks the rule is within 10% of it (asserted in
        tests/adaptive/test_search.py)."""
        spec = random_spec(blocks)
        try:
            net = sequential_cnn("fuzz", (3, hw, hw), spec)
        except ShapeError:
            return
        contexts = net.conv_contexts()
        runs = {
            policy: plan_network(net, CONFIG_16_16, policy)
            for policy in ("adaptive-2", "inter", "intra", "partition")
        }
        adaptive = runs["adaptive-2"]
        assert len(adaptive.layers) == len(contexts)

        corner = []
        for ctx, result in zip(contexts, adaptive.layers):
            pieces = None
            if result.scheme == "partition":
                pieces = partition_piece_ops(ctx, CONFIG_16_16)
            if pieces is not None:
                assert result.operations == pieces, ctx.name
            corner.append(pieces is not None)
        if any(corner):
            machine = Machine(CONFIG_16_16).execute(
                compile_run(adaptive, CONFIG_16_16)
            )
            regions = machine.regions[-len(contexts):]
            for region, result, in_corner in zip(regions, adaptive.layers, corner):
                if in_corner:
                    assert region.compute_cycles == result.operations

        def layer_totals(policy):
            layers = runs[policy].layers
            return (
                sum(r.total_cycles for r in layers),
                sum(r.operations for r, c in zip(layers, corner) if not c),
            )

        adaptive_total, adaptive_ops = layer_totals("adaptive-2")
        fixed = [layer_totals(p) for p in ("inter", "intra", "partition")]
        best_fixed_total = min(t for t, _ in fixed)
        best_fixed_ops = min(o for _, o in fixed)
        assert adaptive_ops <= 2.0 * best_fixed_ops
        assert adaptive_total <= 3.0 * best_fixed_total


class TestDegenerateInputs:
    def test_network_without_convs_plans_empty(self, cfg16):
        from repro.nn.layers import ReLULayer, TensorShape
        from repro.nn.network import Network

        net = Network("noconv", TensorShape(1, 4, 4))
        net.add(ReLULayer("r"))
        run = plan_network(net, cfg16, "adaptive-2")
        assert run.layers == []
        assert run.total_cycles == 0

    def test_single_pixel_output_layer(self, cfg16):
        net = sequential_cnn("tiny", (8, 7, 7), "C16k7")
        run = plan_network(net, cfg16, "adaptive-2")
        assert run.total_cycles > 0

    def test_overlap_disabled_config(self, alexnet):
        serial = dataclasses.replace(CONFIG_16_16, overlap_streams=False)
        a = plan_network(alexnet, CONFIG_16_16, "adaptive-2").total_cycles
        b = plan_network(alexnet, serial, "adaptive-2").total_cycles
        assert b > a
