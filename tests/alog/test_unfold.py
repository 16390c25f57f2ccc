"""Description-rule unfolding tests (paper section 4, Figure 4.a)."""

from repro.xlog.ast import ConstraintAtom, PredicateAtom
from repro.xlog.program import Program
from repro.alog.unfold import unfold_program, unfold_rules


def program(source, **kwargs):
    kwargs.setdefault("extensional", ["base"])
    return Program.parse(source, **kwargs)


class TestUnfolding:
    def test_single_ie_atom(self):
        p = program(
            """
            q(x, p) :- base(x), ie(@x, p).
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            """
        )
        (rule,) = unfold_rules(p)
        names = [a.name for a in rule.body_atoms(PredicateAtom)]
        assert names == ["base", "from"]
        constraints = rule.body_atoms(ConstraintAtom)
        assert len(constraints) == 1
        assert constraints[0].var.name == "p"  # head var flows through

    def test_paper_figure4_shape(self, figure2_program):
        unfolded = unfold_program(figure2_program)
        s1 = unfolded.rules_for("houses")[0]
        from_atoms = [
            a for a in s1.body_atoms(PredicateAtom) if a.name == "from"
        ]
        assert len(from_atoms) == 3
        assert len(s1.body_atoms(ConstraintAtom)) == 2
        # annotations survive unfolding
        assert s1.annotations == (False, ("p", "a", "h"))
        s2 = unfolded.rules_for("schools")[0]
        assert s2.annotations == (True, ())

    def test_body_only_vars_renamed_fresh(self):
        p = program(
            """
            q(x, p) :- base(x), ie(@x, p).
            r(y, w) :- base(y), ie(@y, w).
            ie(@d, out) :- from(@d, tmp), from(@tmp, out).
            """,
            query="q",
        )
        rules = unfold_rules(p)
        tmp_names = set()
        for rule in rules:
            for atom in rule.body_atoms(PredicateAtom):
                for var in atom.variables:
                    if var.name.startswith("tmp"):
                        tmp_names.add(var.name)
        assert len(tmp_names) == 2  # one fresh name per unfolding instance

    def test_multiple_description_rules_multiply(self):
        p = program(
            """
            q(x, p) :- base(x), ie(@x, p).
            ie(@x, p) :- from(@x, p), numeric(p) = yes.
            ie(@x, p) :- from(@x, p), bold_font(p) = yes.
            """
        )
        rules = unfold_rules(p)
        assert len(rules) == 2

    def test_two_ie_atoms_in_one_rule(self):
        p = program(
            """
            q(x, p, s) :- base(x), ie1(@x, p), ie2(@x, s).
            ie1(@x, p) :- from(@x, p), numeric(p) = yes.
            ie2(@x, s) :- from(@x, s), bold_font(s) = yes.
            """
        )
        (rule,) = unfold_rules(p)
        froms = [a for a in rule.body_atoms(PredicateAtom) if a.name == "from"]
        assert len(froms) == 2

    def test_procedural_ie_atoms_left_alone(self):
        from repro.xlog.program import PPredicate

        p = program(
            "q(x, p) :- base(x), cleanup(@x, p).",
            p_predicates={"cleanup": PPredicate("cleanup", lambda x: [], 1, 1)},
        )
        (rule,) = unfold_rules(p)
        assert rule.body[1].name == "cleanup"

    def test_unfolded_program_has_no_description_rules(self, figure2_program):
        unfolded = unfold_program(figure2_program)
        assert not unfolded.description_rules
        assert unfolded.query == figure2_program.query
