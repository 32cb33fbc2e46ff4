"""Tests for the circuit sizing testbenches and the FOM wrapper."""

import numpy as np
import pytest

from repro.circuits import (
    BandgapReference,
    FOMProblem,
    ThreeStageOpAmp,
    TwoStageOpAmp,
    available_problems,
    make_problem,
)

GOOD_TWO_STAGE = dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6, l_load=0.5e-6,
                      w_out=60e-6, l_out=0.3e-6, c_comp=2e-12, r_zero=2e3,
                      i_bias1=20e-6, i_bias2=100e-6)
GOOD_THREE_STAGE = dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6, l_load=0.5e-6,
                        w_mid=30e-6, l_mid=0.35e-6, w_out=80e-6, l_out=0.25e-6,
                        c_m1=2e-12, c_m2=0.5e-12, i_bias1=10e-6, i_bias23=80e-6)
GOOD_BANDGAP = dict(r_ptat=100e3, r_out=600e3, w_mirror=10e-6, l_mirror=1e-6,
                    w_amp_in=5e-6, l_amp_in=0.5e-6, i_amp=1e-6, area_ratio=8.0)


class TestRegistry:
    def test_available_problems(self):
        # The registry is open (register_problem), so other suites may add
        # entries; the paper's circuits must always be present.
        assert {"two_stage_opamp", "two_stage_opamp_settling",
                "three_stage_opamp", "bandgap"} <= set(available_problems())

    def test_make_problem(self):
        problem = make_problem("two_stage_opamp", "40nm")
        assert problem.technology.name == "40nm"
        with pytest.raises(KeyError):
            make_problem("pll")


class TestTwoStageOpAmp:
    def test_design_space_matches_paper_variables(self, two_stage_problem):
        names = two_stage_problem.design_space.names
        assert "c_comp" in names and "r_zero" in names
        assert "i_bias1" in names and "i_bias2" in names
        assert two_stage_problem.design_space.dim == 10

    def test_constraints_match_eq15(self, two_stage_problem):
        specs = {c.name: (c.threshold, c.sense) for c in two_stage_problem.constraints}
        assert specs == {"gain": (60.0, "ge"), "pm": (60.0, "ge"), "gbw": (4.0, "ge")}
        assert two_stage_problem.objective == "i_total"
        assert two_stage_problem.minimize

    def test_good_design_meets_spec(self, two_stage_problem):
        metrics = two_stage_problem.simulate(GOOD_TWO_STAGE)
        assert metrics["gain"] > 60.0
        assert metrics["pm"] > 60.0
        assert metrics["gbw"] > 4.0
        assert 10.0 < metrics["i_total"] < 1000.0

    def test_larger_compensation_cap_lowers_gbw(self, two_stage_problem):
        small_cc = dict(GOOD_TWO_STAGE, c_comp=1e-12)
        large_cc = dict(GOOD_TWO_STAGE, c_comp=8e-12)
        assert (two_stage_problem.simulate(large_cc)["gbw"]
                < two_stage_problem.simulate(small_cc)["gbw"])

    def test_40nm_variant_relaxes_gain_spec(self):
        problem = TwoStageOpAmp("40nm")
        gain_constraint = next(c for c in problem.constraints if c.name == "gain")
        assert gain_constraint.threshold == 50.0

    def test_evaluation_feasibility_flag(self, two_stage_problem):
        design = two_stage_problem.design_space.from_dict(GOOD_TWO_STAGE)
        evaluation = two_stage_problem.evaluate(design)
        assert evaluation.feasible
        assert evaluation.objective == evaluation.metrics["i_total"]

    def test_random_designs_mostly_infeasible(self, two_stage_problem, two_stage_evaluations):
        feasible = sum(e.feasible for e in two_stage_evaluations)
        assert feasible < len(two_stage_evaluations) * 0.5

    def test_failed_metrics_violate_constraints(self, two_stage_problem):
        metrics = two_stage_problem.failed_metrics()
        assert metrics["gain"] < 60.0 and metrics["i_total"] > 1e5

    def test_describe(self, two_stage_problem):
        info = two_stage_problem.describe()
        assert info["technology"] == "180nm"
        assert info["n_design_variables"] == 10


class TestThreeStageOpAmp:
    def test_dimensionality_differs_from_two_stage(self, two_stage_problem):
        problem = ThreeStageOpAmp("180nm")
        assert problem.design_space.dim == 12
        assert problem.design_space.dim != two_stage_problem.design_space.dim

    def test_constraints_match_eq16(self):
        problem = ThreeStageOpAmp("180nm")
        specs = {c.name: c.threshold for c in problem.constraints}
        assert specs == {"gain": 80.0, "pm": 60.0, "gbw": 2.0}

    def test_good_design_has_high_gain_and_positive_margin(self):
        problem = ThreeStageOpAmp("180nm")
        metrics = problem.simulate(GOOD_THREE_STAGE)
        assert metrics["gain"] > 80.0
        assert metrics["gbw"] > 2.0
        assert metrics["pm"] > 45.0

    def test_three_stage_gain_exceeds_two_stage(self, two_stage_problem):
        three = ThreeStageOpAmp("180nm").simulate(GOOD_THREE_STAGE)
        two = two_stage_problem.simulate(GOOD_TWO_STAGE)
        assert three["gain"] > two["gain"]

    def test_removing_compensation_degrades_phase_margin(self):
        problem = ThreeStageOpAmp("180nm")
        compensated = problem.simulate(GOOD_THREE_STAGE)
        uncompensated = problem.simulate(dict(GOOD_THREE_STAGE, c_m1=0.1e-12,
                                              c_m2=0.05e-12))
        assert uncompensated["pm"] < compensated["pm"]


class TestBandgap:
    def test_constraints_match_eq17(self):
        problem = BandgapReference("180nm")
        specs = {c.name: (c.threshold, c.sense) for c in problem.constraints}
        assert specs == {"i_total": (6.0, "le"), "psrr": (50.0, "ge")}
        assert problem.objective == "tc"

    def test_good_design_metrics(self):
        problem = BandgapReference("180nm")
        metrics = problem.simulate(GOOD_BANDGAP)
        assert metrics["i_total"] < 6.0
        assert metrics["psrr"] > 40.0
        assert metrics["tc"] < 1e4
        assert 0.3 < metrics["vref"] < 1.5

    def test_larger_ptat_resistor_lowers_current(self):
        problem = BandgapReference("180nm")
        small = problem.simulate(dict(GOOD_BANDGAP, r_ptat=50e3))
        large = problem.simulate(dict(GOOD_BANDGAP, r_ptat=300e3))
        assert large["i_total"] < small["i_total"]

    def test_design_space_has_eight_variables(self):
        assert BandgapReference("180nm").design_space.dim == 8


class TestFOMProblem:
    def test_fom_wrapper_metrics(self, two_stage_problem):
        fom = FOMProblem(two_stage_problem, n_normalization_samples=8, rng=0)
        metrics = fom.simulate(GOOD_TWO_STAGE)
        assert "fom" in metrics and "gain" in metrics
        assert fom.metric_names[0] == "fom"
        assert not fom.minimize and fom.constraints == []

    def test_better_design_gets_higher_fom(self, two_stage_problem):
        fom = FOMProblem(two_stage_problem, n_normalization_samples=8, rng=0)
        good = fom.fom_from_metrics({"i_total": 100.0, "gain": 70.0, "pm": 70.0, "gbw": 10.0})
        bad = fom.fom_from_metrics({"i_total": 500.0, "gain": 20.0, "pm": 10.0, "gbw": 0.5})
        assert good > bad

    def test_exceeding_spec_earns_no_extra_credit(self, two_stage_problem):
        fom = FOMProblem(two_stage_problem, n_normalization_samples=8, rng=0)
        at_spec = fom.fom_from_metrics({"i_total": 100.0, "gain": 60.0, "pm": 60.0, "gbw": 4.0})
        above_spec = fom.fom_from_metrics({"i_total": 100.0, "gain": 90.0, "pm": 80.0, "gbw": 40.0})
        assert above_spec == pytest.approx(at_spec, abs=1e-9)

    def test_explicit_normalization_skips_sampling(self, two_stage_problem):
        normalization = {name: (0.0, 1.0) for name in two_stage_problem.metric_names}
        fom = FOMProblem(two_stage_problem, normalization=normalization)
        assert fom.normalization == normalization


GOOD_LDO = dict(w_pass=100e-6, l_pass=0.5e-6, gm_ea=3e-3, r_ea=3e5,
                c_ea=5e-12, r_fb=2e4)
GOOD_COMPARATOR = dict(w_in=10e-6, l_in=0.18e-6, w_latch_n=4e-6,
                       w_latch_p=8e-6, w_tail=10e-6)
GOOD_RING = dict(w_n=5e-6, w_p=10e-6, l_gate=0.18e-6, c_stage=1e-12)


class TestLowDropoutRegulator:
    def test_good_design_regulates_and_rejects_supply(self):
        problem = make_problem("ldo")
        metrics, ok = problem.simulate_checked(GOOD_LDO)
        assert ok
        # Regulation to 0.8 * VDD within the spec band, real PSRR and a
        # physical (finite, positive) noise and droop readout.
        assert metrics["v_err"] < 50.0
        assert metrics["psrr"] > 30.0
        assert 0.0 < metrics["vnoise"] < 1e4
        assert 0.0 <= metrics["droop"] < 1e3
        assert metrics["i_q"] > 0.0

    def test_more_loop_gain_improves_psrr(self):
        problem = make_problem("ldo")
        weak = dict(GOOD_LDO, gm_ea=1e-4)
        strong = dict(GOOD_LDO, gm_ea=3e-3)
        psrr_weak = problem.simulate(weak)["psrr"]
        psrr_strong = problem.simulate(strong)["psrr"]
        assert psrr_strong > psrr_weak

    def test_noise_counts_every_device_class(self):
        from repro.bench import Simulator
        problem = make_problem("ldo")
        result = Simulator().run(problem.bench, GOOD_LDO)
        contributions = result["noise"].contribution_fractions()
        # Pass device and both divider resistors all contribute.
        assert {"MPASS", "RFB1", "RFB2"} <= set(contributions)


class TestDynamicComparator:
    def test_decides_correctly_and_fast(self):
        problem = make_problem("comparator")
        metrics, ok = problem.simulate_checked(GOOD_COMPARATOR)
        assert ok
        assert metrics["decision"] == 1.0
        assert 0.0 < metrics["t_decide"] < 5.0
        assert metrics["v_diff"] > 0.5 * problem.technology.vdd

    def test_flipped_input_flips_decision(self):
        problem = make_problem("comparator", input_overdrive=-5e-3)
        metrics = problem.simulate(GOOD_COMPARATOR)
        assert metrics["decision"] == 0.0
        assert metrics["v_diff"] < 0.0

    def test_heavier_load_slows_decision(self):
        fast = make_problem("comparator").simulate(GOOD_COMPARATOR)
        slow = make_problem("comparator",
                            load_capacitance=500e-15).simulate(GOOD_COMPARATOR)
        assert slow["t_decide"] > fast["t_decide"]


class TestRingOscillatorVCO:
    def test_oscillates_with_physical_metrics(self):
        problem = make_problem("ring_vco", t_stop=100e-9)
        metrics, ok = problem.simulate_checked(GOOD_RING)
        assert ok
        assert metrics["freq"] > 50.0
        assert metrics["power"] > 0.0
        assert metrics["pn_proxy"] > 0.0
        # Metastable bias sits between the rails.
        vdd = problem.technology.vdd
        assert 0.2 * vdd < metrics["v_mid"] < 0.8 * vdd

    def test_larger_stage_cap_lowers_frequency(self):
        problem = make_problem("ring_vco", t_stop=100e-9)
        fast = problem.simulate(GOOD_RING)
        slow = problem.simulate(dict(GOOD_RING, c_stage=3e-12))
        assert 0.0 < slow["freq"] < fast["freq"]


class TestRobustProblems:
    def test_registry_carries_robust_variants(self):
        assert {"two_stage_opamp_robust", "bandgap_robust",
                "ldo_robust"} <= set(available_problems())

    def test_structure_composes_corners_and_yield(self):
        problem = make_problem("ldo_robust", mc={"n_min": 4, "n_max": 4})
        try:
            assert problem.name == "ldo_robust_180nm"
            # Yield constraint on top of the base specs, one yield child per
            # corner, nominal corner first.
            assert [c.name for c in problem.constraints][-1] == "yield"
            assert len(problem.children) == 3
            assert problem.children[0].sim_temperature == pytest.approx(27.0)
            info = problem.describe()
            assert len(info["corners"]) == 3
            assert info["yield_target"] == pytest.approx(0.9)
            with pytest.raises(NotImplementedError):
                problem.testbench()
        finally:
            problem.close()

    def test_cache_tokens_distinguish_corner_sets(self):
        from repro.bench import standard_corners
        default = make_problem("ldo_robust")
        full = make_problem("ldo_robust", corners=standard_corners())
        try:
            assert default.cache_token != full.cache_token
        finally:
            default.close()
            full.close()

    @pytest.mark.parametrize("name,options,token", [
        ("ldo_robust", {"mc": {"n_min": 4, "n_max": 4}},
         "ldo_robust_180nm:3d0204d753d7073c"),
        ("two_stage_opamp_robust", {},
         "two_stage_opamp_robust_180nm:f5259211efd4bb48"),
        ("two_stage_opamp_corners", {},
         "two_stage_opamp_corners_180nm:bc2d595a181bc3f4"),
    ])
    def test_cache_tokens_are_pinned(self, name, options, token):
        # Frozen values: a changed token silently orphans every cached and
        # stored result of these problems.
        problem = make_problem(name, **options)
        try:
            assert problem.cache_token == token
        finally:
            problem.close()
