import tracemalloc
from dataclasses import replace

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
from hrsp.states import TargetSpec, basis_ket, branch_amplitudes, target_state

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

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocked_search_equals_complex_reference(self, monkeypatch, block):
        # these blocks split each depth at other prefixes than 256 do, so a
        # hit past the first block is decoded with its block's offset
        monkeypatch.setattr(protocol, "ORACLE_BLOCK", block)
        oracle_find_correction.cache_clear()
        try:
            for receiver, branches in protocol.BRANCHES.items():
                for key in branches:
                    assert (oracle_find_correction(receiver, *key).gates
                            == complex_oracle_search(receiver, *key))
        finally:
            oracle_find_correction.cache_clear()

    def test_depth_cap_raises_without_extending_past_it(self, monkeypatch):
        # the branch's rule has 4 gates; capped at depth 3, the search fails
        # after testing depth 3 and builds no depth 4 sequences, whose
        # (2, 1000, 4) vectors take 64 KB; a search that raises is not cached
        key = ("zeta1", ("++", "++"))
        assert len(oracle_find_correction("david", *key).gates) == 4
        monkeypatch.setattr(protocol, "ORACLE_MAX_DEPTH", 3)
        oracle_find_correction.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(protocol.OracleSearchError,
                               match="no correction up to depth 3 for david"):
                oracle_find_correction("david", *key)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1000 * 4 * 8
        searches = oracle_find_correction.cache_info()
        assert searches.misses == 1 and searches.currsize == 0


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

    def test_table_two_has_one_mismatch(self):
        rows = verify_table("II")
        assert len(rows) == 16
        bad = {rv.row for rv in rows if rv.verdict == "mismatch"}
        assert bad == {15}
        fifteen = rows[14]
        assert fifteen.oracle_rule == "H1 H2 Z1 CX1-2"
        assert min(fifteen.published_fidelities) < 0.5

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
        rules += [(f"oracle-{i}-{receiver}", replace(rule, receiver=receiver))
                  for i, rule in enumerate(derive_receiver_table(), start=1)
                  for receiver in ("charlie", "david")]
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
    """phase_aligned_distance is the exact min over theta of
    max |a - e^{i theta} b|: 0 where two arrays agree up to a global phase,
    and the minimum over a fine grid of phases, to the grid's resolution."""

    #: published rows whose unitary is not the oracle's up to a global
    #: phase, with their distance: sqrt(2) in table I, 1 / sqrt(2) in tables
    #: II and III; that of every other row is 0
    DISTANT_ROWS = {"I-4": np.sqrt(2), "I-6": np.sqrt(2), "I-8": np.sqrt(2),
                    **{f"II-{r}": np.sqrt(0.5) for r in (2, 3, 11, 12, 13, 15)},
                    **{f"III-{r}": np.sqrt(0.5) for r in (4, 5, 6, 12, 14, 16)}}

    @staticmethod
    def grid_min(a, b, theta):
        phased = np.exp(1j * theta)[:, None] * np.ravel(b)
        return np.abs(np.ravel(a) - phased).max(axis=1).min()

    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, np.pi, 5.0])
    def test_zero_for_a_global_phase(self, theta):
        rng = np.random.default_rng(7)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert phase_aligned_distance(np.exp(1j * theta) * b, b) < 1e-14
        for rule in CORRECTION_TABLES["II"]:
            u = rule.unitary()
            assert phase_aligned_distance(np.exp(1j * theta) * u, u) < 1e-15
            assert phase_aligned_distance(-u, u) == 0.0

    def test_rows_equal_the_minimum_over_phases(self):
        # on a grid of phases, the minimum is at most the grid's resolution
        # times max |b| above the true one, and max |b| <= 1 here
        theta = np.linspace(0.0, 2 * np.pi, 2001)
        resolution = theta[1] / 2
        distances = {}
        for table, rules in CORRECTION_TABLES.items():
            for rv, rule in zip(verify_table(table), rules, strict=True):
                up = rule.unitary()
                uo = correction_unitary(parse_gate_string(rv.oracle_rule))
                grid = self.grid_min(uo, up, theta)
                assert grid - resolution <= rv.matrix_distance <= grid + 1e-15
                distances[f"{table}-{rv.row}"] = rv.matrix_distance
        assert len(distances) == 40
        for name, distance in distances.items():
            expected = self.DISTANT_ROWS.get(name, 0.0)
            assert abs(distance - expected) < 1e-15, (name, distance)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_arrays_equal_the_minimum_over_phases(self, seed):
        # complex pairs, and real ones, whose minimum lies where two entries
        # cross as well as where one is least
        rng = np.random.default_rng(seed)
        theta = np.linspace(0.0, 2 * np.pi, 20001)
        resolution = theta[1] / 2
        a, b = (rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
                if seed % 2 else rng.normal(size=(2, 3, 4)))
        grid = self.grid_min(a, b, theta)
        assert (grid - resolution * np.abs(b).max()
                <= phase_aligned_distance(a, b) <= grid + 1e-15)


class TestRuleOnItsBranch:
    """A rule that maps the noiseless branch a_0 alpha + a_1 beta onto the
    target has rows 0 and 3, those that xi weighs, equal to v_m = a_m /
    ||a_0|| up to sign: the correction the derived table reads off its
    branch."""

    def test_published_rows_are_the_normalized_branch(self):
        units = (TargetSpec(1.0, 0.0), TargetSpec(0.0, 1.0))
        for table, rules in CORRECTION_TABLES.items():
            for i, rule in enumerate(rules, start=1):
                a = branch_amplitudes(rule.receiver, *rule.outcomes,
                                      units).reshape(2, 4)
                v = a / np.linalg.norm(a[0])
                rows = rule.unitary()[[0, 3]]
                gap = min(np.max(np.abs(rows - v)), np.max(np.abs(rows + v)))
                if f"{table}-{i}" in MISMATCH_ROWS:
                    assert abs(gap - 1.0) < 1e-15, (table, i, gap)
                else:
                    assert gap < 1e-15, (table, i, gap)
                # the entries are 0, +-1/2 and +-1
                assert np.max(np.abs(2 * rows - np.rint(2 * rows))) < 1e-15


class TestCharlieTable:
    def test_thirtytwo_rows_all_reach_fidelity_one(self):
        # on David's branches, and carried over to Charlie's own
        rules = derive_receiver_table()
        assert len(rules) == 32
        per_outcome = {}
        for rule in rules:
            per_outcome.setdefault(rule.sender_outcome, []).append(rule)
            assert rule.source == "oracle"
            for spec in ORACLE_POINTS:
                for receiver in ("charlie", "david"):
                    assert noiseless_fidelity(replace(rule, receiver=receiver),
                                              spec) > 1 - 1e-10
        assert len(per_outcome["zeta1"]) == 16
        assert len(per_outcome["zeta2"]) == 16

    def test_rows_run_over_outcome_then_label_pairs(self):
        labels = ("++", "+-", "-+", "--")
        keys = [(z, (a, b)) for z in ("zeta1", "zeta2")
                for a in labels for b in labels]
        assert list(protocol.BRANCHES["david"]) == keys
        assert protocol.BRANCHES["charlie"] == protocol.BRANCHES["david"]
        for rule, key in zip(derive_receiver_table(), keys, strict=True):
            assert rule.outcomes == key
            assert rule is oracle_find_correction("david", *key)
            # Charlie's own search, on Charlie's qubits, finds the same rule
            assert oracle_find_correction("charlie", *key).gates == rule.gates

    @pytest.mark.parametrize("receiver,row,match",
                             [("charlie", 0, "rows 1..32, got 0"),
                              ("charlie", 33, "rows 1..32, got 33"),
                              ("bob", 1, "charlie or david")])
    def test_bad_row_or_receiver_rejected(self, receiver, row, match):
        # a derived table's rows are named only by the "oracle" table of a
        # config; Bob's outcomes have no Hadamard-measured collaborator duo
        with pytest.raises(ValueError, match=match):
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
        # the oracle search, the row verdicts and the derived report lines
        # read one cached collapse per branch and point, Bob's 8 and David's
        # 32 branches x 2 points, and search each branch once; the derived
        # rows are David's, so no Charlie branch is read; a second report
        # reads the caches only
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
            assert len(made) == len(set(made)) == 40 * len(ORACLE_POINTS)
            assert {args[0] for args in made} == {"bob", "david"}
            searches = oracle_find_correction.cache_info()
            assert searches.misses == searches.currsize == 40
        # shared by every later caller
        vector, _ = branch_vector("bob", "zeta1", ("01",), BALANCED)
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 0.0
        assert len(made) == 40 * len(ORACLE_POINTS)
