import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontopath.errors import FragmentViolation, TBoxSyntaxError
from ontopath.tbox import (
    And,
    AtomicInclusion,
    ConceptInclusion,
    ConjInclusion,
    Exists,
    ExistsLeft,
    ExistsRight,
    Name,
    Role,
    RoleInclusion,
    TBox,
    Top,
    as_axiom,
    conj,
    normalize,
    parse_tbox,
    tbox_to_text,
    validate_fragment,
)


def parse_one(line):
    (axiom,) = parse_tbox(line).axioms
    return axiom


def test_parse_concept_inclusion_with_exists():
    ax = parse_one("Teacher <= exists teaches . Student")
    assert ax == ConceptInclusion(Name("Teacher"), Exists(Role("teaches"), Name("Student")))


def test_parse_role_inclusion():
    ax = parse_one("mentors <= teaches")
    assert ax == RoleInclusion(Role("mentors"), Role("teaches"))


def test_parse_conjunction_and_inverse_and_top():
    ax = parse_one("A & B <= exists inv(r) . top")
    assert ax == ConceptInclusion(
        conj([Name("A"), Name("B")]), Exists(Role("r", inverted=True), Top())
    )


def test_parse_inverse_role_inclusion():
    ax = parse_one("inv(employs) <= worksFor")
    assert ax == RoleInclusion(Role("employs", inverted=True), Role("worksFor"))


def test_comments_and_blank_lines_ignored():
    t = parse_tbox("# header\n\nA <= B  # trailing\n\n# done\n")
    assert t.axioms == (ConceptInclusion(Name("A"), Name("B")),)


def test_parse_error_carries_position():
    with pytest.raises(TBoxSyntaxError) as err:
        parse_tbox("A <= B\nA <= exists r .\n")
    assert err.value.line == 2


def test_lowercase_concept_rejected():
    with pytest.raises(TBoxSyntaxError):
        parse_tbox("lower <= exists r . B")


def test_reserved_prefix_rejected():
    with pytest.raises(TBoxSyntaxError):
        parse_tbox("__nf0 <= B")


def test_case_convention_diagnostics():
    with pytest.raises(TBoxSyntaxError) as err:
        parse_tbox("r <= s & t")
    assert "uppercase" in str(err.value)
    with pytest.raises(TBoxSyntaxError):
        parse_tbox("A <= exists Teaches . B")  # role must be lowercase


def test_negation_rejected_as_fragment_violation():
    for text in ["not A <= B", "!A <= B", "A <= not B"]:
        with pytest.raises(FragmentViolation):
            parse_tbox(text)


# Each case pins the exception class, its message (position included), the
# line and the column; a FragmentViolation carries no position.
TBOX_SYNTAX_ERRORS = [
    ("A <= B $", TBoxSyntaxError, "unexpected character '$' (line 1, column 8)", 1, 8),
    ("A <=", TBoxSyntaxError, "unexpected end of axiom (line 1)", 1, None),
    ("# c\n  A <= B & ", TBoxSyntaxError, "unexpected end of axiom (line 2)", 2, None),
    ("A <= exists r C", TBoxSyntaxError, "expected '.', found 'C' (line 1, column 15)", 1, 15),
    ("top(x)", TBoxSyntaxError, "expected '<=', found '(' (line 1, column 4)", 1, 4),
    ("A <= B )", TBoxSyntaxError, "trailing input ')' (line 1, column 8)", 1, 8),
    ("__nfX <= B", TBoxSyntaxError,
     "identifier '__nfX' uses the reserved prefix '__nf' (line 1, column 1)", 1, 1),
    ("A <= __nf1", TBoxSyntaxError,
     "identifier '__nf1' uses the reserved prefix '__nf' (line 1, column 6)", 1, 6),
    ("A <= B\nr <= s t", TBoxSyntaxError,
     "concept names start with an uppercase letter, got 'r' (line 2, column 1)", 2, 1),
    ("A <= exists R . B", TBoxSyntaxError,
     "role names start with a lowercase letter, got 'R' (line 1, column 13)", 1, 13),
    ("A <= exists top . B", TBoxSyntaxError,
     "'top' is not a valid role name (line 1, column 13)", 1, 13),
    ("A <= !B", FragmentViolation, "negation is not part of the input fragment", None, None),
    ("not A <= B", FragmentViolation, "negation is not part of the input fragment", None, None),
    ("A <= exists ~r . B", FragmentViolation,
     "negation is not part of the input fragment", None, None),
    ("A <= exists inv(top) . B", TBoxSyntaxError,
     "expected a role name inside inv(...) (line 1, column 17)", 1, 17),
    ("A <= exists inv r . B", TBoxSyntaxError, "expected '(', found 'r' (line 1, column 17)", 1, 17),
    ("A <= exists inv(r . B", TBoxSyntaxError, "expected ')', found '.' (line 1, column 19)", 1, 19),
    # Lines are tokenized one at a time: line 1 ends early before line 2's
    # bad character is ever read.
    ("A <=\nB <= C $", TBoxSyntaxError, "unexpected end of axiom (line 1)", 1, None),
]


@pytest.mark.parametrize("text, kind, message, line, column", TBOX_SYNTAX_ERRORS)
def test_syntax_error_table(text, kind, message, line, column):
    with pytest.raises(kind) as err:
        parse_tbox(text)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert getattr(err.value, "line", None) == line
    assert getattr(err.value, "column", None) == column


def test_conj_is_commutative_for_equality():
    assert conj([Name("B"), Name("A")]) == conj([Name("A"), Name("B")])
    assert conj([Name("A"), conj([Name("B"), Name("C")])]) == conj(
        [conj([Name("A"), Name("B")]), Name("C")]
    )
    assert conj([Name("A"), Top()]) == Name("A")


@pytest.mark.parametrize("axiom", [
    parse_one("Teacher <= exists teaches . Student"),
    parse_one("A & B <= exists r . top"),
    RoleInclusion(Role("teaches"), Role("knows", inverted=True)),
])
def test_validate_accepts_fragment_member(axiom):
    validate_fragment(TBox((axiom,)))


class _Weird:
    pass


# Axioms that parsing never produces, built directly, with the construct
# each violation names.  A name that starts with the reserved prefix
# already fails the case convention.
@pytest.mark.parametrize("axiom, construct", [
    (ConceptInclusion(Name("A"), _Weird()), "_Weird"),
    (ConceptInclusion(Name("A"), Exists(Role("R"), Name("B"))), "role name"),
    (ConceptInclusion(Exists(Role("__nf0"), Top()), Name("B")), "role name"),
    (ConceptInclusion(Name("A"), Exists(Role("inv"), Name("B"))), "role name"),
    (RoleInclusion(Role("r"), Role("inv")), "role name"),
    (ConceptInclusion(Name("a"), Name("B")), "concept name"),
    (ConceptInclusion(Name("A"), Name("__nf0")), "concept name"),
    (ConceptInclusion(And((Name("A"),)), Name("B")), "conjunction"),
    (_Weird(), "_Weird"),
])
def test_validate_rejects_foreign_construct(axiom, construct):
    with pytest.raises(FragmentViolation) as err:
        validate_fragment(TBox((axiom,)))
    assert err.value.construct == construct
    assert err.value.axiom is axiom


def test_normalize_splits_right_conjunction():
    t = normalize(parse_tbox("A <= B & C"))
    assert t.normalized == (AtomicInclusion("A", "B"), AtomicInclusion("A", "C"))


def test_normalize_flattens_exists_filler():
    t = normalize(parse_tbox("A <= exists r . (B & C)"))
    assert t.normalized == (
        ExistsRight("A", Role("r"), "__nf0"),
        AtomicInclusion("__nf0", "B"),
        AtomicInclusion("__nf0", "C"),
    )


def test_normalize_flattens_nested_exists_on_left():
    t = normalize(parse_tbox("exists r . exists s . B <= A"))
    assert t.normalized == (
        ExistsLeft(Role("s"), "B", "__nf0"),
        ExistsLeft(Role("r"), "__nf0", "A"),
    )


def test_normalize_keeps_atomic_inclusion():
    t = normalize(parse_tbox("A <= B"))
    assert t.normalized == (AtomicInclusion("A", "B"),)


def test_normalize_conjunction_on_left():
    t = normalize(parse_tbox("Student & Employee <= TA"))
    assert t.normalized == (ConjInclusion(("Employee", "Student"), "TA"),)


def test_normalize_complex_conjunct_on_left():
    t = normalize(parse_tbox("exists r . B & C <= A"))
    assert t.normalized == (
        ExistsLeft(Role("r"), "B", "__nf0"),
        ConjInclusion(("C", "__nf0"), "A"),
    )


def test_normalize_exists_both_sides():
    t = normalize(parse_tbox("exists r . B <= exists s . C"))
    assert t.normalized == (
        ExistsLeft(Role("r"), "B", "__nf0"),
        ExistsRight("__nf0", Role("s"), "C"),
    )


def test_normalized_axioms_are_axioms():
    t = normalize(parse_tbox("A <= exists r . (B & C)\nmentors <= teaches"))
    for nf in t.normalized:
        as_axiom(nf)


def test_normalize_is_idempotent():
    t = normalize(parse_tbox("A <= exists r . (B & C)\nexists r . exists s . B <= A"))
    # Feed the normal form back in as plain axioms (bypassing the parser,
    # which rightly rejects fresh names) and re-normalize.
    again = normalize(type(t)(tuple(as_axiom(nf) for nf in t.normalized)))
    assert again.normalized == t.normalized


# -- round-trip property ----------------------------------------------------

_concept_names = st.sampled_from(["A", "B", "C", "Teacher", "Student", "Region"])
_role_names = st.sampled_from(["r", "s", "teaches", "partOf"])
_roles = st.builds(Role, _role_names, st.booleans())

_concepts = st.recursive(
    st.one_of(st.builds(Top), st.builds(Name, _concept_names)),
    lambda inner: st.one_of(
        st.builds(Exists, _roles, inner),
        st.builds(lambda a, b: conj([a, b]), inner, inner),
    ),
    max_leaves=6,
)

_axioms = st.one_of(
    st.builds(ConceptInclusion, _concepts, _concepts),
    st.builds(RoleInclusion, _roles, _roles),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_axioms, max_size=5))
def test_print_parse_round_trip(axioms):
    from ontopath.tbox import TBox

    t = TBox(tuple(axioms))
    assert parse_tbox(tbox_to_text(t)).axioms == t.axioms
