import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrsp import pipeline, protocol
from hrsp.linalg import kron
from hrsp.pipeline import PipelineConfig
from hrsp.protocol import (CORRECTION_TABLES, ORACLE_POINTS, TOKENS,
                           branch_vector, correction_unitary,
                           derive_receiver_table,
                           format_table_report, noiseless_fidelity,
                           oracle_find_correction, parse_gate_string,
                           phase_aligned_distance, verify_table)
from hrsp.states import TargetSpec, basis_ket, target_state

from dense_oracle import (MeasurementScenario, build_measurement_operator,
                          complex_oracle_search, projector, scenario_for)

BALANCED = TargetSpec(1 / np.sqrt(2), 1 / np.sqrt(2))

#: published rows the oracle rejects at every real target
MISMATCH_ROWS = {"II-15", "III-6", "III-14", "III-16"}

#: every token of the gate grammar
ALL_TOKENS = ["H1", "H2", "X1", "X2", "Y1", "Y2", "iY1", "iY2", "-iY1", "-iY2",
              "Z1", "Z2", "CX1-2", "CX2-1", "RCX1-2", "RCX2-1"]

#: CX and RCX written out: column |ab> holds the image of basis state |ab>
CONTROLLED_X = {
    "CX1-2": [[1, 0, 0, 0],
              [0, 1, 0, 0],
              [0, 0, 0, 1],
              [0, 0, 1, 0]],
    "CX2-1": [[1, 0, 0, 0],
              [0, 0, 0, 1],
              [0, 0, 1, 0],
              [0, 1, 0, 0]],
    "RCX1-2": [[0, 1, 0, 0],
               [1, 0, 0, 0],
               [0, 0, 1, 0],
               [0, 0, 0, 1]],
    "RCX2-1": [[0, 0, 1, 0],
               [0, 1, 0, 0],
               [1, 0, 0, 0],
               [0, 0, 0, 1]],
}

#: worked-example correction for table I row 1, as an explicit permutation
ROW1_MATRIX = np.array([[0, 1, 0, 0],
                        [0, 0, 1, 0],
                        [0, 0, 0, 1],
                        [1, 0, 0, 0]], dtype=complex)


class TestParsing:
    def test_two_token_rule(self):
        got = parse_gate_string("X2 CX2-1")
        assert got == ("X2", "CX2-1")

    def test_both_qubits_shorthand(self):
        assert parse_gate_string("H1,2") == ("H1", "H2")

    def test_empty_is_identity(self):
        assert parse_gate_string("") == ()
        assert np.allclose(correction_unitary(()), np.eye(4))

    def test_signed_y_tokens(self):
        toks = parse_gate_string("-iY2 X1,2 CX2-1")
        assert toks == ("-iY2", "X1", "X2", "CX2-1")

    def test_unknown_token_reports_position(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_gate_string("X1 Q2")

    def test_bad_target_rejected(self):
        # a token has one spelling: "X01" and "X+1" are not X1
        for word in ("X3", "CX1-3", "X01", "X+1", "CX01-2"):
            with pytest.raises(ValueError, match="position 2"):
                parse_gate_string(f"H1 {word}")


class TestCorrectionUnitary:
    def test_row1_matches_worked_example_matrix(self):
        got = correction_unitary(parse_gate_string("X2 CX2-1"))
        assert np.max(np.abs(got - ROW1_MATRIX)) < 1e-14

    def test_left_token_applies_first(self):
        x2 = TOKENS["X2"]
        cx21 = TOKENS["CX2-1"]
        got = correction_unitary(parse_gate_string("X2 CX2-1"))
        assert np.allclose(got, cx21 @ x2)

    def test_signed_y_is_global_phase(self):
        rho = projector(np.array([0.6, 0, 0.8j, 0], dtype=complex))
        plus = correction_unitary(parse_gate_string("iY2 CX2-1"))
        minus = correction_unitary(parse_gate_string("-iY2 CX2-1"))
        assert np.max(np.abs(plus @ rho @ plus.conj().T
                             - minus @ rho @ minus.conj().T)) < 1e-14

    def test_table_holds_exactly_the_grammar(self):
        assert sorted(TOKENS) == sorted(ALL_TOKENS)

    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_token_unitary_is_cached_and_read_only(self, token):
        u = TOKENS[token]
        assert TOKENS[parse_gate_string(token)[0]] is u
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-14
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0.0
        # a composite is a fresh array; the cached factors stay as they were
        composite = correction_unitary((token, token))
        composite[0, 0] = 7.0
        assert TOKENS[token][0, 0] != 7.0

    @pytest.mark.parametrize("token", sorted(CONTROLLED_X))
    def test_controlled_x_is_written_out_permutation(self, token):
        assert np.array_equal(TOKENS[token],
                              np.array(CONTROLLED_X[token], dtype=complex))

    def test_rcx_fires_on_control_zero(self):
        rcx = TOKENS["RCX1-2"]
        assert np.allclose(rcx @ basis_ket("00"), basis_ket("01"))
        assert np.allclose(rcx @ basis_ket("10"), basis_ket("10"))

    def test_published_rules_are_unitary(self):
        for rules in CORRECTION_TABLES.values():
            for rule in rules:
                u = rule.unitary()
                assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


class TestMeasurementOperator:
    def test_row1_matches_explicit_blocks(self):
        scen = scenario_for("bob", "zeta1", ("01",), BALANCED)
        assert np.allclose(scen.sender_projector, np.full((2, 2), 0.5))
        u = build_measurement_operator(scen)
        p01 = projector(basis_ket("01"))
        want = kron(np.full((2, 2), 0.5, dtype=complex), np.eye(4), p01, p01)
        assert np.max(np.abs(u - want)) < 1e-12

    def test_row1_rank_is_four(self):
        u = build_measurement_operator(scenario_for("bob", "zeta1", ("01",),
                                                    BALANCED))
        assert np.linalg.matrix_rank(u) == 4

    def test_sender_only_projection(self):
        scen = MeasurementScenario(
            receiver="bob", sender_projector=projector(basis_ket("0")),
            collaborator_projectors={"charlie": np.eye(4, dtype=complex),
                                     "david": np.eye(4, dtype=complex)})
        u = build_measurement_operator(scen)
        want = kron(projector(basis_ket("0")), np.eye(64, dtype=complex))
        assert np.max(np.abs(u - want)) < 1e-14

    @pytest.mark.parametrize("table_id", ["I", "II", "III"])
    def test_scenarios_are_projectors(self, table_id):
        for rule in CORRECTION_TABLES[table_id][:4]:
            u = build_measurement_operator(
                scenario_for(rule.receiver, rule.sender_outcome,
                             rule.collaborator_outcomes, BALANCED))
            assert np.max(np.abs(u @ u - u)) < 1e-10
            assert np.max(np.abs(u - u.conj().T)) < 1e-10

    def test_malformed_projector_rejected(self):
        with pytest.raises(ValueError):
            MeasurementScenario(
                receiver="bob", sender_projector=np.array([[1, 1], [0, 1]],
                                                          dtype=complex),
                collaborator_projectors={})


class TestOracle:
    def test_row1_sequence_matches_worked_example(self):
        rule = oracle_find_correction("bob", "zeta1", ("01",))
        assert phase_aligned_distance(rule.unitary(), ROW1_MATRIX) < 1e-10
        assert rule.gate_string == "X2 CX2-1"

    def test_row3_equivalent_to_published(self):
        rule = oracle_find_correction("bob", "zeta1", ("00",))
        published = correction_unitary(parse_gate_string("X1 CX2-1"))
        assert phase_aligned_distance(rule.unitary(), published) < 1e-10

    def test_garbled_row6_gets_single_token_correction(self):
        rule = oracle_find_correction("bob", "zeta2", ("10",))
        assert rule.gate_string == "CX2-1"

    def test_deterministic(self):
        a = oracle_find_correction("david", "zeta1", ("-+", "--"))
        b = oracle_find_correction("david", "zeta1", ("-+", "--"))
        assert a.gates == b.gates

    def test_oracle_rules_reach_fidelity_one(self):
        rule = oracle_find_correction("david", "zeta2", ("--", "+-"))
        for spec in ORACLE_POINTS:
            assert noiseless_fidelity(rule, spec) > 1 - 1e-10

    def test_real_search_equals_complex_reference(self):
        # the search steps with iY for Y; the complex search with the true Y
        # finds the same first sequence on every branch, 27 of them with Y,
        # and the rule's true unitary, complex where it has a Y, corrects its
        # branch
        with_y = 0
        for receiver, branches in protocol.BRANCHES.items():
            for key in branches:
                rule = oracle_find_correction(receiver, *key)
                assert rule.gates == complex_oracle_search(receiver, *key)
                uses_y = any(g[0] == "Y" for g in rule.gates)
                assert (rule.unitary().dtype == np.complex128) == uses_y
                with_y += uses_y
                for spec in ORACLE_POINTS:
                    assert (noiseless_fidelity(rule, spec)
                            >= 1 - protocol.FIDELITY_TOL)
        assert with_y == 27

    def test_unknown_sender_outcome_rejected(self):
        # used to be read as zeta2 and returned a rule labelled zeta3; a
        # search that raises is not cached, so a second call searches again
        before = oracle_find_correction.cache_info()
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown sender outcome"):
                oracle_find_correction("charlie", "zeta3", ("++", "++"))
        after = oracle_find_correction.cache_info()
        assert after.misses == before.misses + 2
        assert after.currsize == before.currsize


class TestTables:
    def test_table_one_all_rows_work(self):
        rows = verify_table("I")
        assert len(rows) == 8
        assert all(rv.verdict in ("confirmed", "phase-equivalent")
                   for rv in rows)
        assert all(min(rv.published_fidelities) > 1 - 1e-10 for rv in rows)
        # full-matrix agreement with the oracle holds except where the
        # oracle found a shorter sequence differing off the branch
        matrix_equal = {rv.row for rv in rows if rv.matrix_distance < 1e-10}
        assert matrix_equal == {1, 2, 3, 5, 7}
        assert all(rv.branch_distance < 1e-10 for rv in rows)

    def test_table_two_has_one_mismatch(self):
        rows = verify_table("II")
        assert len(rows) == 16
        bad = {rv.row for rv in rows if rv.verdict == "mismatch"}
        assert bad == {15}
        fifteen = rows[14]
        assert fifteen.oracle_rule == "H1 H2 Z1 CX1-2"
        assert min(fifteen.published_fidelities) < 0.5
        # the two rules' outputs on the branch differ beyond a global phase
        assert abs(fifteen.branch_distance - np.sqrt(2)) < 1e-12

    def test_table_three_has_three_mismatches(self):
        rows = verify_table("III")
        bad = {rv.row for rv in rows if rv.verdict == "mismatch"}
        assert bad == {6, 14, 16}
        by_row = {rv.row: rv for rv in rows}
        assert by_row[6].oracle_rule == "H1 H2 Y1 CX1-2"
        assert by_row[14].oracle_rule == "H1 H2 X2 CX1-2"
        assert by_row[16].oracle_rule == "H1 H2 CX1-2 X1"

    def test_duplicate_published_rules_both_hold_in_table_three(self):
        # rows 8 and 15 print the same correction for different outcomes;
        # their collapsed branches coincide, so both verify
        rows = verify_table("III")
        assert rows[7].published_rule == rows[14].published_rule
        assert rows[7].verdict != "mismatch"
        assert rows[14].verdict != "mismatch"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(target=st.floats(0.0, 2 * np.pi).map(lambda t: (np.cos(t), np.sin(t))))
    @example(target=(1.0, 0.0))
    @example(target=(0.0, 1.0))
    @example(target=(-1.0, 0.0))
    @example(target=(0.0, -1.0))
    def test_confirmed_rows_work_at_random_parameters(self, target):
        spec = TargetSpec(*target)
        rules = [(f"{table}-{i}", rule)
                 for table, rows in CORRECTION_TABLES.items()
                 for i, rule in enumerate(rows, start=1)]
        rules += [(f"oracle-{i}", rule) for i, rule
                  in enumerate(derive_receiver_table("charlie"), start=1)]
        failing = [name for name, rule in rules
                   if noiseless_fidelity(rule, spec) < 1 - 1e-10]
        assert set(failing) <= MISMATCH_ROWS, failing

    def test_mismatch_rows_are_the_verified_mismatches(self):
        found = {f"{table}-{rv.row}" for table in CORRECTION_TABLES
                 for rv in verify_table(table) if rv.verdict == "mismatch"}
        assert found == MISMATCH_ROWS

    def test_branch_probabilities_uniform_at_zero_noise(self):
        _, p = branch_vector("bob", "zeta1", ("01",), BALANCED)
        assert np.isclose(p, 1 / 8)
        _, p = branch_vector("david", "zeta1", ("++", "++"), BALANCED)
        assert np.isclose(p, 1 / 32)

    def test_branch_floor_is_the_pipelines(self, monkeypatch):
        # one floor, one comparison: a branch at the floor is rejected
        assert protocol.BRANCH_PROBABILITY_FLOOR is pipeline.BRANCH_PROBABILITY_FLOOR
        _, p = branch_vector("bob", "zeta1", ("01",), BALANCED)
        monkeypatch.setattr(protocol, "BRANCH_PROBABILITY_FLOOR", p)
        # the branch above is cached under the real floor
        branch_vector.cache_clear()
        with pytest.raises(ValueError, match="vanishing probability"):
            branch_vector("bob", "zeta1", ("01",), BALANCED)
        monkeypatch.setattr(protocol, "BRANCH_PROBABILITY_FLOOR", p * (1 - 1e-9))
        branch_vector("bob", "zeta1", ("01",), BALANCED)


class TestPhaseAlignedDistance:
    """phase_aligned_distance aligns the phase at one entry: 0 where two
    arrays agree up to a global phase, else an upper bound on the distance
    min over theta of max |a - e^{i theta} b|."""

    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, np.pi, 5.0])
    def test_zero_for_a_global_phase(self, theta):
        rng = np.random.default_rng(7)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert phase_aligned_distance(np.exp(1j * theta) * b, b) < 1e-14
        for rule in CORRECTION_TABLES["II"]:
            u = rule.unitary()
            assert phase_aligned_distance(np.exp(1j * theta) * u, u) < 1e-15

    def test_never_below_the_minimum_over_phases(self):
        # on a grid of phases, the minimum is at most the grid's resolution
        # times max |b| above the true one, and max |b| <= 1 here
        theta = np.linspace(0.0, 2 * np.pi, 2001)
        resolution = theta[1] / 2

        def grid_min(a, b):
            phased = np.exp(1j * theta)[:, None, None] * b.reshape(1, -1, 1)
            return np.abs(a.reshape(1, -1, 1) - phased).max(axis=(1, 2)).min()

        for table, rules in CORRECTION_TABLES.items():
            for rv, rule in zip(verify_table(table), rules, strict=True):
                up = rule.unitary()
                uo = correction_unitary(parse_gate_string(rv.oracle_rule))
                assert rv.matrix_distance >= grid_min(uo, up) - resolution
                below = [grid_min(uo @ v, up @ v) - resolution
                         for v, _ in (branch_vector(rule.receiver,
                                                    *rule.outcomes, spec)
                                      for spec in ORACLE_POINTS)]
                assert rv.branch_distance >= max(below)


class TestCharlieTable:
    def test_thirtytwo_rows_all_reach_fidelity_one(self):
        rules = derive_receiver_table("charlie")
        assert len(rules) == 32
        per_outcome = {}
        for rule in rules:
            per_outcome.setdefault(rule.sender_outcome, []).append(rule)
            assert rule.source == "oracle"
            for spec in ORACLE_POINTS:
                assert noiseless_fidelity(rule, spec) > 1 - 1e-10
        assert len(per_outcome["zeta1"]) == 16
        assert len(per_outcome["zeta2"]) == 16

    def test_rows_run_over_outcome_then_label_pairs(self):
        labels = ("++", "+-", "-+", "--")
        keys = [(z, (a, b)) for z in ("zeta1", "zeta2")
                for a in labels for b in labels]
        assert list(protocol.BRANCHES["charlie"]) == keys
        for rule, key in zip(derive_receiver_table("charlie"), keys,
                             strict=True):
            assert rule.outcomes == key
            assert rule is oracle_find_correction("charlie", *key)
        assert derive_receiver_table("david") == tuple(
            oracle_find_correction("david", *key)
            for key in protocol.BRANCHES["david"])

    @pytest.mark.parametrize("receiver,row,match",
                             [("charlie", 0, "rows 1..32, got 0"),
                              ("charlie", 33, "rows 1..32, got 33"),
                              ("bob", 1, "charlie or david")])
    def test_bad_row_or_receiver_rejected(self, receiver, row, match):
        # a derived table's rows are named only by the "oracle" table of a
        # config; Bob's outcomes have no Hadamard-measured collaborator duo
        with pytest.raises(ValueError, match=match):
            if receiver == "bob":
                derive_receiver_table(receiver)
            else:
                PipelineConfig("ad", receiver, "oracle", row, BALANCED, (0.5,))

    @pytest.mark.parametrize("row", [True, False, 2.0, 1.5, "1", None])
    def test_non_integer_row_rejected(self, row):
        # True used to return row 1's rule, 2.0 raised TypeError
        with pytest.raises(ValueError, match="row must be an integer"):
            PipelineConfig("ad", "charlie", "oracle", row, BALANCED, (0.5,))

    def test_numpy_integer_row_accepted(self):
        # a numpy integer names the same row of Charlie's derived table
        config = PipelineConfig("ad", "charlie", "oracle", np.int64(2),
                                BALANCED, (0.5,))
        assert type(config.row) is int
        assert config == PipelineConfig("ad", "charlie", "oracle", 2,
                                        BALANCED, (0.5,))


class TestReport:
    def test_report_covers_all_tables_and_charlie(self):
        text = format_table_report(
            {t: verify_table(t) for t in CORRECTION_TABLES})
        assert text.count("mismatch") == 4
        assert "derived correction table for receiver charlie" in text
        # 1 header + 40 table rows + 1 charlie header + 32 charlie rows
        assert len(text.splitlines()) == 74

    def test_each_branch_collapses_once_per_oracle_point(self, monkeypatch):
        # the oracle search, the row verdicts and Charlie's report lines read
        # one cached collapse per branch and point, 72 branches x 2 points,
        # and search each branch once; a second report reads the caches only
        made = []
        kernel = protocol.branch_amplitudes

        def counted(*args, **kwargs):
            made.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(protocol, "branch_amplitudes", counted)
        branch_vector.cache_clear()
        oracle_find_correction.cache_clear()
        for _ in range(2):
            format_table_report({t: verify_table(t) for t in CORRECTION_TABLES})
            assert len(made) == len(set(made)) == 72 * len(ORACLE_POINTS)
            searches = oracle_find_correction.cache_info()
            assert searches.misses == searches.currsize == 72
        # shared by every later caller
        vector, _ = branch_vector("bob", "zeta1", ("01",), BALANCED)
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 0.0
        assert len(made) == 72 * len(ORACLE_POINTS)
