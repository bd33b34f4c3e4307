import hashlib
import itertools
import random

import pytest

from hcramsey.colorings import random_coloring
from hcramsey.graphs import EdgeColoring, InputFormatError, connectivity_table
from hcramsey.satbridge import (
    NoModel,
    cnf_satisfiable_by_enumeration,
    coloring_to_literals,
    decode_model,
    emit_cnf,
    parse_dimacs,
    parse_model_text,
    to_dimacs,
    verify_cnf_equivalence,
    violated_clause,
)
from hcramsey.search import (
    AVOIDING,
    arrow_check,
    exists_avoiding_coloring,
    minimal_connected_graphs,
)

from conftest import two_pentagons_coloring


class TestEmitCnf:
    def test_variables_are_dense(self):
        inst = emit_cnf(4, 3, 2, 2)
        seen = {abs(l) for clause in inst.clauses for l in clause}
        assert seen == set(range(1, inst.num_vars + 1))

    def test_n5_satisfiable_by_known_avoider(self):
        inst = emit_cnf(5, 3, 3, 2)
        assert violated_clause(inst, two_pentagons_coloring()) is None

    def test_n6_unsatisfiable(self):
        assert cnf_satisfiable_by_enumeration(emit_cnf(6, 3, 3, 2)) is False

    def test_single_coloring_unsatisfiable(self):
        assert cnf_satisfiable_by_enumeration(emit_cnf(3, 3, 1, 1)) is False

    def test_enumeration_declines_past_the_limit(self):
        # 2^21 colorings of K_7 exceed the enumeration limit.
        assert cnf_satisfiable_by_enumeration(emit_cnf(7, 3, 1, 2)) is None

    def test_no_clause_repeats_and_every_clause_is_sorted(self):
        for n, m, k in itertools.product(range(8), range(2, 6), range(1, 4)):
            for kappa in range(1, m + 1):
                clauses = emit_cnf(n, m, kappa, k).clauses
                assert len(set(clauses)) == len(clauses), (n, m, kappa, k)
                assert list(clauses) == sorted(clauses)
                assert all(list(cl) == sorted(cl) for cl in clauses)

    def test_grid_digest_is_stable(self):
        # The grid above, in the same order, as one stream of DIMACS text.
        h = hashlib.sha256()
        for n, m, k in itertools.product(range(8), range(2, 6), range(1, 4)):
            for kappa in range(1, m + 1):
                h.update(to_dimacs(emit_cnf(n, m, kappa, k)).encode())
        assert h.hexdigest()[:12] == "9450754b6da6"

    def test_byte_identical_output(self):
        assert to_dimacs(emit_cnf(5, 3, 2, 2)) == to_dimacs(emit_cnf(5, 3, 2, 2))

    @pytest.mark.parametrize("params", [(4, 3, 0, 2), (4, 1, 1, 2), (4, 3, 1, 0)])
    def test_bad_parameters(self, params):
        with pytest.raises(ValueError, match="need m >= 2"):
            emit_cnf(*params)

    def test_negative_n_is_refused(self):
        with pytest.raises(ValueError, match="need n >= 0, got n=-2"):
            emit_cnf(-2, 3, 2, 2)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="size limit"):
            emit_cnf(12, 7, 2, 4)

    def test_size_limit_refuses_before_building_a_table(self):
        before = connectivity_table.cache_info()
        with pytest.raises(ValueError, match="size limit"):
            emit_cnf(12, 7, 2, 4)
        after = connectivity_table.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("params, clauses", [
        # m > n: no m-set, so the forbidden-clause estimate reads 0.
        ((3, 4, 1, 100_000), 3 * (1 + 100_000 * 99_999 // 2)),
        # The forbidden estimate, 768,000, is under CLAUSE_LIMIT.
        ((4, 4, 1, 2000), 6 * (1 + 2000 * 1999 // 2)),
    ])
    def test_size_limit_counts_the_one_hot_clauses(self, params, clauses):
        before = connectivity_table.cache_info(), minimal_connected_graphs.cache_info()
        with pytest.raises(ValueError, match=f"size limit: {clauses} one-hot clauses"):
            emit_cnf(*params)
        after = connectivity_table.cache_info(), minimal_connected_graphs.cache_info()
        assert [(c.hits, c.misses) for c in after] == [(c.hits, c.misses) for c in before]

    @pytest.mark.parametrize("params", [(9, 6, 1, 2), (8, 6, 3, 2)])
    def test_size_limit_counts_the_forbidden_list(self, params):
        with pytest.raises(ValueError, match="size limit: about"):
            emit_cnf(*params)

    @pytest.mark.parametrize(
        "params, digest",
        [
            ((8, 5, 2, 2), "a2d7f7632856"),
            ((10, 4, 2, 3), "cac8edea13b0"),
            ((4, 2, 1, 2), "b608d35adea4"),  # m = 2: each forbidden graph is one edge
            ((6, 6, 2, 2), "afe2c794ff05"),
        ],
    )
    def test_dimacs_digest_is_stable(self, params, digest):
        text = to_dimacs(emit_cnf(*params))
        assert hashlib.sha256(text.encode()).hexdigest()[:12] == digest


def _first_false_clause(inst, c):
    """violated_clause read literal by literal: variable e*k + i + 1 is
    true iff edge e has color i."""

    def lit_true(lit):
        e, i = divmod(abs(lit) - 1, inst.k)
        return (c.colors[e] == i) == (lit > 0)

    return next((cl for cl in inst.clauses if not any(map(lit_true, cl))), None)


class TestViolatedClause:
    def test_agrees_with_a_literal_evaluator(self):
        rng = random.Random(1814)
        outcomes = []
        for n, m, kappa, k in itertools.product(range(2, 7), (2, 3, 4), (1, 2, 3), (1, 2, 3)):
            if kappa > m:
                continue
            inst = emit_cnf(n, m, kappa, k)
            for _ in range(3):
                c = random_coloring(n, k, rng.randrange(1 << 30))
                expected = _first_false_clause(inst, c)
                assert violated_clause(inst, c) == expected
                outcomes.append(expected is None)
        assert 0 < outcomes.count(True) < len(outcomes)  # both kinds occur

    def test_a_monochromatic_triangle_violates_its_clause(self):
        inst = emit_cnf(3, 3, 2, 2)
        # Literal (edge e, color i) is 2e + i + 1.
        assert violated_clause(inst, EdgeColoring(3, 2, (0, 0, 0))) == (-5, -3, -1)
        assert violated_clause(inst, EdgeColoring(3, 2, (0, 1, 0))) is None


class TestDecodeModel:
    def test_round_trip_from_search(self):
        inst = emit_cnf(5, 3, 3, 2)
        out = exists_avoiding_coloring(5, 3, 3, 2)
        decoded = decode_model(inst, coloring_to_literals(inst, out.coloring))
        assert decoded == out.coloring
        assert arrow_check(decoded, 3, 3) is None

    def test_bad_solver_model_is_flagged_downstream(self):
        # constant color 0 on K3 decodes fine, but the native check
        # catches that it is not avoiding
        inst = emit_cnf(3, 3, 1, 1)
        c = EdgeColoring.constant(3, 1, 0)
        decoded = decode_model(inst, coloring_to_literals(inst, c))
        assert arrow_check(decoded, 1, 3) is not None

    def test_two_colors_on_one_edge(self):
        inst = emit_cnf(3, 3, 1, 2)
        lits = [inst.var(0, 0), inst.var(0, 1)]
        lits += [
            -v for v in range(1, inst.num_vars + 1) if v not in {abs(l) for l in lits}
        ]
        with pytest.raises(ValueError, match="malformed model"):
            decode_model(inst, lits)

    def test_color_out_of_range_has_no_variable(self):
        inst = emit_cnf(3, 3, 1, 2)
        assert inst.var(2, 1) == inst.num_vars
        for color in (2, -1):
            with pytest.raises(ValueError, match=f"color {color} out of range"):
                inst.var(0, color)

    def test_literal_beyond_the_variables_rejected(self):
        inst = emit_cnf(3, 3, 1, 2)
        with pytest.raises(ValueError, match="literal -7 references no variable"):
            decode_model(inst, [1, -2, 3, -4, 5, -6, -7])

    def test_partial_assignment_rejected(self):
        inst = emit_cnf(3, 3, 1, 2)
        with pytest.raises(ValueError, match="not total"):
            decode_model(inst, [1, 2])

    def test_contradictory_literals_rejected(self):
        # Read last-wins, "-1 2" turned coloring (0, 1, 0) into (1, 1, 0),
        # which the solver never stated.
        inst = emit_cnf(3, 3, 2, 2)
        lits = coloring_to_literals(inst, EdgeColoring(3, 2, (0, 1, 0)))
        assert decode_model(inst, lits + lits) == EdgeColoring(3, 2, (0, 1, 0))
        with pytest.raises(ValueError, match="literal -1 contradicts literal 1"):
            decode_model(inst, lits + [-1, 2])


class TestModelText:
    def test_vline_format(self):
        assert parse_model_text("s SATISFIABLE\nv 1 -2 3\nv -4 0\n") == [1, -2, 3, -4]

    def test_bad_token(self):
        with pytest.raises(InputFormatError):
            parse_model_text("v one 0")

    def test_comment_lines_are_skipped(self):
        text = "c solver banner\ns SATISFIABLE\nv 1 -2 0\n"
        assert parse_model_text(text) == [1, -2]

    def test_model_without_terminating_zero(self):
        assert parse_model_text("v 1 -2\n") == [1, -2]

    def test_minisat_result_file(self):
        assert parse_model_text("SAT\n1 -2 3 0\n") == [1, -2, 3]

    @pytest.mark.parametrize("text, status, line", [
        ("s UNSATISFIABLE\n", "UNSATISFIABLE", 1),
        ("c banner\ns UNKNOWN\n", "UNKNOWN", 2),
        ("UNSAT\n", "UNSAT", 1),
    ])
    def test_no_model_answers(self, text, status, line):
        with pytest.raises(NoModel, match=f"line {line}: ") as info:
            parse_model_text(text)
        assert info.value.status == status

    @pytest.mark.parametrize("text, message", [
        ("c x\n\nv 1 2\nv 3 x 0\n", "line 4: bad literal 'x'"),
        ("s MAYBE\n", "line 1: unknown solver answer 'MAYBE'"),
    ])
    def test_errors_name_the_line(self, text, message):
        with pytest.raises(InputFormatError, match=message):
            parse_model_text(text)


class TestProvenance:
    def test_round_trip(self):
        inst = emit_cnf(5, 3, 2, 2)
        parsed = parse_dimacs(to_dimacs(inst))
        params = {"n": parsed.n, "m": parsed.m, "kappa": parsed.kappa, "k": parsed.k}
        assert params == {"n": 5, "m": 3, "kappa": 2, "k": 2}

    def test_missing(self):
        with pytest.raises(InputFormatError):
            parse_dimacs("p cnf 1 0\n")


class TestParseDimacs:
    @pytest.mark.parametrize("params", [(3, 3, 1, 1), (5, 3, 3, 2), (8, 5, 2, 2)])
    def test_round_trip(self, params):
        inst = emit_cnf(*params)
        assert parse_dimacs(to_dimacs(inst)) == inst

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t.replace("p cnf 3 ", "p cnf 4 "),
            lambda t: t.replace("p cnf 3 6", "p cnf 3 7"),
            lambda t: t.replace(" forbidden=", " hash="),
            lambda t: t.rstrip().removesuffix(" 0") + "\n",
            lambda t: t.replace("\n1 0\n", "\n9 0\n"),
            lambda t: t.replace("\n1 0\n", "\nx 0\n"),
            lambda t: t.replace("p cnf", "p dnf"),
        ],
    )
    def test_malformed(self, edit):
        text = to_dimacs(emit_cnf(3, 3, 1, 1))
        assert "p cnf 3 6" in text and "\n1 0\n" in text
        with pytest.raises(InputFormatError):
            parse_dimacs(edit(text))

    @pytest.mark.parametrize("key, provenance", [
        ("n", "n=-1 m=3 kappa=2 k=2"),
        ("m", "n=2 m=-3 kappa=2 k=2"),
        ("kappa", "n=2 m=3 kappa=-2 k=2"),
        ("k", "n=2 m=3 kappa=2 k=-2"),
    ])
    def test_negative_provenance_field(self, key, provenance):
        # C(-1, 2) = 1, so n=-1 with k=2 used to match the 2 declared
        # variables.
        text = f"c {provenance} forbidden=0\np cnf 2 0\n"
        with pytest.raises(InputFormatError, match=f"provenance {key}=-"):
            parse_dimacs(text)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.replace("p cnf 3 6\n", "p cnf 3 6\np cnf 3 6\n"), "line 4: second 'p' line"),
        (lambda t: t.replace(" k=1 ", " k=one "), "malformed provenance comment"),
        (lambda t: t.replace("p cnf 3 6", "p cnf 3 six"), "'p cnf' counts must be integers"),
    ])
    def test_refusal_names_the_fault(self, edit, message):
        text = to_dimacs(emit_cnf(3, 3, 1, 1))
        assert edit(text) != text
        with pytest.raises(InputFormatError, match=message):
            parse_dimacs(edit(text))

    def test_bad_literal_names_its_line(self):
        text = to_dimacs(emit_cnf(3, 3, 1, 1)).replace("\n1 0\n", "\n\n\n1 x 0\n")
        line = text.splitlines().index("1 x 0") + 1
        with pytest.raises(InputFormatError, match=f"line {line}: literals must be integers"):
            parse_dimacs(text)


class TestVerifyEquivalence:
    def test_degenerate_point(self):
        (report,) = verify_cnf_equivalence([(2, 2, 1, 1)])
        assert report["match"] and not report["cnf_satisfiable"]

    def test_small_grid(self):
        grid = [(4, 3, kappa, k) for kappa in (1, 2, 3) for k in (1, 2)]
        assert all(r["match"] for r in verify_cnf_equivalence(grid))

    def test_clause_check_past_the_enumeration_limit(self):
        # 2^21 colorings of K_7: enumeration declines, so the native
        # search's avoiding coloring is checked against the clauses.
        (report,) = verify_cnf_equivalence([(7, 4, 3, 2)])
        assert report == {
            "params": {"n": 7, "m": 4, "kappa": 3, "k": 2},
            "native_avoiding": True, "cnf_satisfiable": True, "match": True,
        }

    def test_satisfiable_point(self):
        (report,) = verify_cnf_equivalence([(5, 3, 3, 2)])
        assert report["match"] and report["cnf_satisfiable"]
