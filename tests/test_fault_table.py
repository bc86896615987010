"""The fault table: for each check of a `verify --full` report, the tests that
inject a fault into it and see it fail.  The meta-tests keep the table whole:
a new check cannot land without a row, and a row cannot name a test that is
gone."""

import ast
import json
from pathlib import Path

from fractrace.cli import main

HERE = Path(__file__).parent

FAULTS = {
    "conformal_covariance": ("test_polys.py::test_perturbed_symbol_fails_conformal_covariance",
                             "test_polys.py::test_default_covariance_samples_reach_every_odd_operator",
                             "test_cli.py::test_scattering_relations_sees_the_odd_recursion_at_s0",
                             "test_polys.py::test_a_wrong_boundary_dimension_fails_covariance"),
    "dirichlet_principle": ("test_energy.py::test_dirichlet_principle_fails_for_a_non_solution",
                            "test_energy.py::test_dirichlet_principle_sees_a_wrong_bessel_norm",
                            "test_energy.py::test_cap_hits_fail_each_check"),
    "dtn_bessel_extraction": ("test_modes.py::test_perturbed_unit_matrix_fails_both_checks",
                              "test_modes.py::test_perturbed_neumann_matrix_fails_only_extraction",
                              "test_cli.py::test_dtn_bessel_extraction_sees_the_odd_trace_chain_at_s0",
                              "test_cli.py::test_gamma_constants_sees_the_odd_constant_at_s0",
                              "test_modes.py::test_decoupling_rows_see_a_remixed_neumann_output",
                              "test_cli.py::test_dtn_bessel_extraction_reads_the_solves_profiles"),
    "energy_trace": ("test_energy.py::test_energy_trace_fails_for_a_wrong_dtn_constant",
                     "test_energy.py::test_energy_trace_sees_a_skewed_gram_power",
                     "test_energy.py::test_energy_trace_sees_a_wrong_bessel_norm",
                     "test_energy.py::test_cap_hits_fail_each_check"),
    "extension_self_consistency": ("test_modes.py::test_perturbed_unit_matrix_fails_both_checks",),
    "flat_hyperbolic_correspondence": ("test_polys.py::test_flat_hyperbolic_correspondence_sees_a_wrong_weight",),
    "gamma_constants": ("test_cli.py::test_gamma_constants_sees_a_wrong_constant",
                        "test_cli.py::test_gamma_constants_sees_a_float_complement",
                        "test_cli.py::test_gamma_constants_sees_the_odd_constant_at_s0"),
    "lebedev_milin": ("test_energy.py::test_lebedev_milin_sees_a_wrong_energy",),
    "mode_ode_residual": ("test_modes.py::test_mode_ode_residual_fails_for_a_broken_profile",
                          "test_cli.py::test_mode_ode_residual_fails_for_a_wrong_bessel_norm",
                          "test_cli.py::test_mode_ode_residual_reads_the_solves_profiles"),
    "operators_via_laplacian": ("test_jets.py::test_perturbed_symbol_fails_exact_checks",
                                "test_cli.py::test_scattering_relations_sees_the_odd_recursion_at_s0"),
    "product_factorization": ("test_polys.py::test_product_factorization_sees_a_wrong_weight",),
    "q_symmetry": ("test_energy.py::test_q_symmetry_sees_a_wrong_boundary_sign",
                   "test_energy.py::test_q_symmetry_sees_a_wrong_laplacian_coefficient",
                   "test_energy.py::test_q_symmetry_holds_both_rows_to_one_bound",
                   "test_cli.py::test_dtn_bessel_extraction_sees_the_odd_trace_chain_at_s0"),
    "r2s_commutation": ("test_polys.py::test_r2s_commutation_sees_a_wrong_weight",
                        "test_polys.py::test_r2s_sweep_samples_see_each_boundary_weight",
                        "test_polys.py::test_combining_two_dimensions_raises"),
    "scattering_annihilation": ("test_jets.py::test_scattering_annihilation_sees_a_wrong_gamma_ratio",),
    "scattering_relations": ("test_jets.py::test_perturbed_symbol_fails_exact_checks",
                             "test_cli.py::test_scattering_relations_sees_the_odd_recursion_at_s0"),
    "sharp_sobolev": ("test_energy.py::test_wrong_sharp_constant_fails_bubble_record",),
    "sum_identities": ("test_cli.py::test_sum_identities_sees_a_wrong_closed_form",),
    "weight_shift_commutator": ("test_polys.py::test_commutator_sees_a_shifted_weight",),
    "yang_extension": ("test_modes.py::test_yang_extension_sees_a_wrong_neumann_constant",
                       "test_modes.py::test_yang_extension_sees_a_wrong_unit_matrix"),
}


def test_fault_table_names_every_check(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--gamma", "5/2", "--full", "--grid", "32", "--out", str(out)]) == 0
    assert set(FAULTS) == {r["check"] for r in json.loads(out.read_text())}


def test_fault_table_tests_exist():
    defined = {}
    for check, tests in FAULTS.items():
        assert tests, check
        for test in tests:
            file, name = test.split("::")
            if file not in defined:
                tree = ast.parse((HERE / file).read_text())
                defined[file] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name in defined[file], (check, test)
