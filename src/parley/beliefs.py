"""Core belief machinery: propositions, ranked endorsements, knowledge bases,
evidence pieces, and threshold-based belief revision.

Belief strengths form a three-step scale (weak < strong < warranted).  An
evidence piece pairs a believed proposition with a believed evidential
relation and is only as strong as the weaker of the two.  Revision sums the
strengths on each side of a target proposition and compares the difference
against a threshold; a belief whose entire derivation basis has been refuted
is abandoned rather than merely doubted.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, fields, replace
from enum import Enum, IntEnum
from functools import partial, total_ordering
from typing import Callable, Iterable, Iterator, Optional, Sequence


class StructureError(ValueError):
    """A value violates a structural requirement of the model."""


class ContradictionError(StructureError):
    """A belief store holds both a proposition and its negation."""


class ContractViolation(RuntimeError):
    """An operation was invoked outside its stated contract."""


# ---------------------------------------------------------------------------
# strengths and expertise


class StrengthLevel(IntEnum):
    WEAK = 1
    STRONG = 2
    WARRANTED = 3

    def render(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "StrengthLevel":
        try:
            return _LEVELS_BY_TEXT[text]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise StructureError(f"unknown strength level: {text!r}") from None


# exactly the names ``render`` writes; parsing runs once per scenario belief
_LEVELS_BY_TEXT = {level.render(): level for level in StrengthLevel}


class Expertise(str, Enum):
    EXPERT = "expert"
    NON_EXPERT = "non-expert"

    @classmethod
    def parse(cls, text: str) -> "Expertise":
        try:
            return _EXPERTISE_BY_TEXT[text]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise StructureError(f"unknown expertise: {text!r}") from None


# exactly the values ``render_scenario`` writes; parsed once per agent and
# once per assertion source
_EXPERTISE_BY_TEXT = {member.value: member for member in Expertise}


# ---------------------------------------------------------------------------
# propositions

SUPPORTS = "supports"

_NAME = re.compile(r"[a-z_][a-z0-9_]*")
_ARG = re.compile(r"[a-z0-9_]+")
_WS = re.compile(r"\s*")

# A flat literal spelled as ``render`` spells it, but perhaps with ``~`` for
# its one ``¬``, or a relation spelled that way over two such literals: the
# parser keeps that text rather than rebuilding it.  One pattern matches
# both, so a text is matched once; its groups are the negation, then a
# literal's predicate and arguments or a relation's two literals.  Any other
# spelling goes to the recursive parser.  Every quantifier is possessive,
# so a miss costs linear time, never a backtracking search.
_LITERAL_NAME = r"(?!supports(?![a-z0-9_]))[a-z_][a-z0-9_]*+"
_LITERAL_ARGS = r"[a-z0-9_]++(?:, [a-z0-9_]++)*+"
_LITERAL = rf"[~¬]?+{_LITERAL_NAME}(?:\({_LITERAL_ARGS}\))?+"
_CANONICAL = re.compile(
    rf"([~¬]?+)(?:({_LITERAL_NAME})(?:\(({_LITERAL_ARGS})\))?+"
    rf"|{SUPPORTS}\(({_LITERAL}), ({_LITERAL})\))"
)

# How many supports(...) may enclose one another in parsed text.  Only the
# recursive-descent parser needs this bound: a proposition builds its text
# from its arguments' texts, so nothing else recurses over ``args``.
MAX_PROP_NESTING = 100

# Trusted builders set attributes with ``object.__setattr__``, as the frozen
# dataclasses' own ``__init__`` does.  Writing through ``__dict__`` instead
# makes the interpreter give the object a dict of its own, and every later
# attribute read on it gets slower.
_setattr = object.__setattr__


def _builder(cls: type, **fixed) -> Callable:
    """A function that builds a ``cls`` from its fields' values, in field
    order, without ``__init__`` or ``__post_init__``: it checks nothing, so
    each caller passes parts it has checked.  A field in ``fixed`` takes
    that value and is no parameter."""
    names = [f.name for f in fields(cls)]
    params = ", ".join(name for name in names if name not in fixed)
    # written out as the generated ``__init__`` writes them: a loop over the
    # names would cost half as much again per object, or more
    writes = "".join(f"    _setattr(obj, {name!r}, {name})\n" for name in names)
    source = f"def build({params}):\n    obj = _new(cls)\n{writes}    return obj\n"
    scope = {"_new": object.__new__, "_setattr": _setattr, "cls": cls, **fixed}
    exec(compile(source, f"<trusted {cls.__name__}>", "exec"), scope)
    return scope["build"]


@total_ordering
@dataclass(frozen=True, eq=False)
class Proposition:
    """A ground literal, or an evidential relation between two literals.

    Relation propositions use the reserved predicate ``supports`` and take
    exactly two proposition arguments; every other predicate takes plain
    identifier arguments.
    """

    negated: bool
    predicate: str
    args: tuple = ()
    # the rendered text, built once from the arguments' texts: the only field
    # that equality, hashing and ordering look at
    _text: str = field(init=False, repr=False)
    # the negation, cached on the first ``negate()``.  Only the receiver
    # points to it: linking the pair both ways makes a reference cycle, and
    # every negated proposition then waits for the collector.
    _negation = None

    def __post_init__(self) -> None:
        if not _NAME.fullmatch(self.predicate):
            raise StructureError(f"bad predicate: {self.predicate!r}")
        object.__setattr__(self, "args", tuple(self.args))
        if self.predicate == SUPPORTS:
            if len(self.args) != 2 or not all(isinstance(a, Proposition) for a in self.args):
                raise StructureError("supports(...) takes exactly two propositions")
        else:
            for a in self.args:
                if not isinstance(a, str) or not _ARG.fullmatch(a):
                    raise StructureError(f"bad argument {a!r} for {self.predicate}")
        object.__setattr__(self, "_text", _text_of(self.negated, self.predicate, self.args))

    @property
    def is_relation(self) -> bool:
        return self.predicate == SUPPORTS

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Proposition):
            return self._text == other._text
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if isinstance(other, Proposition):
            return self._text < other._text
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._text)

    def negate(self) -> "Proposition":
        negation = self._negation
        if negation is None:
            # only the polarity and the leading ¬ of the text change
            text = self._text[1:] if self.negated else f"¬{self._text}"
            negation = _trusted_prop(not self.negated, self.predicate, self.args, text)
            _setattr(self, "_negation", negation)
        return negation

    def render(self, ascii_not: bool = False) -> str:
        return self._text.replace("¬", "~") if ascii_not else self._text

    def __str__(self) -> str:
        return self._text


def _text_of(negated: bool, predicate: str, args: tuple) -> str:
    body = f"{predicate}({', '.join(map(str, args))})" if args else predicate
    return f"¬{body}" if negated else body


# a proposition from parts already checked, and its text
_trusted_prop = _builder(Proposition)


def supports_prop(antecedent: Proposition, consequent: Proposition) -> Proposition:
    if not (isinstance(antecedent, Proposition) and isinstance(consequent, Proposition)):
        raise StructureError("supports(...) takes exactly two propositions")
    text = f"{SUPPORTS}({antecedent._text}, {consequent._text})"
    return _trusted_prop(False, SUPPORTS, (antecedent, consequent), text)


def parse_proposition(text: str) -> Proposition:
    """Parse a proposition from text.  Accepts either ``~`` or ``¬`` negation."""
    if not isinstance(text, str):
        raise StructureError(f"proposition text must be a string, got {text!r}")
    return proposition_parser()(text)


def proposition_parser() -> Callable[[str], Proposition]:
    """A :func:`parse_proposition` for one document, which parses each text
    once and returns one shared object per proposition."""
    # the memo's own lookup: a text already read costs no Python call.  A
    # bound method, not a closure that calls itself: that would be a
    # reference cycle, and the document's propositions would wait for the
    # collector.
    return _Memo().__getitem__


class _Memo(dict):
    # proposition texts read for one document: a text and the ``~``
    # rendering of its result both map to that result

    def __missing__(self, text: str) -> Proposition:
        # ``text`` parsed whole, and stored.  The pattern differs from what
        # ``render`` spells only in allowing ``~`` for ``¬``, so a matched
        # text's rendering needs no rebuilding.  Text it does not match
        # goes to the recursive parser, which owns every error message.
        m = _CANONICAL.fullmatch(text)
        if m is None:
            prop, pos = _parse_prop(text, 0)
            if text[pos:].strip():
                raise StructureError(f"trailing input after proposition: {text[pos:]!r}")
        else:
            neg, predicate, args, antecedent, consequent = m.groups()
            if predicate is None:
                predicate, args = SUPPORTS, (self[antecedent], self[consequent])
            else:
                args = tuple(args.split(", ")) if args else ()
            prop = _trusted_prop(neg != "", predicate, args, text.replace("~", "¬"))
        # each result is kept under the text ``render(ascii_not=True)``
        # gives it, the spelling of a file ``render_scenario`` wrote, so a
        # text spelled that way is stored once: a matched text is spelled
        # so unless it holds a ``¬``
        if m is None or "¬" in text:
            prop = self.setdefault(prop._text.replace("¬", "~"), prop)
        self[text] = prop
        return prop


def _parse_prop(text: str, pos: int, depth: int = 0) -> tuple[Proposition, int]:
    pos = _WS.match(text, pos).end()
    negated = False
    while pos < len(text) and text[pos] in "~¬":
        negated = not negated
        pos = _WS.match(text, pos + 1).end()
    m = _NAME.match(text, pos)
    if not m:
        raise StructureError(f"expected predicate at position {pos} in {text!r}")
    predicate = m.group(0)
    pos = _WS.match(text, m.end()).end()
    args: list = []
    if pos < len(text) and text[pos] == "(":
        pos = _WS.match(text, pos + 1).end()
        while pos < len(text) and text[pos] != ")":
            if predicate == SUPPORTS:
                if depth >= MAX_PROP_NESTING:
                    raise StructureError(
                        f"supports(...) nested deeper than {MAX_PROP_NESTING} levels"
                    )
                arg, pos = _parse_prop(text, pos, depth + 1)
            else:
                m = _ARG.match(text, pos)
                if not m:
                    raise StructureError(f"expected argument at position {pos} in {text!r}")
                arg = m.group(0)
                pos = m.end()
            args.append(arg)
            pos = _WS.match(text, pos).end()
            if pos < len(text) and text[pos] == ",":
                pos = _WS.match(text, pos + 1).end()
                if pos >= len(text) or text[pos] == ")":
                    raise StructureError(f"dangling ',' at position {pos} in {text!r}")
            elif pos < len(text) and text[pos] != ")":
                raise StructureError(f"expected ',' or ')' at position {pos} in {text!r}")
        if pos >= len(text):
            raise StructureError(f"unterminated argument list in {text!r}")
        pos += 1
    return Proposition(negated, predicate, tuple(args)), pos


# ---------------------------------------------------------------------------
# endorsements and beliefs


class SourceKind(str, Enum):
    KB_RECORD = "kb-record"
    ASSERTION = "assertion"
    STEREOTYPE = "stereotype"
    DERIVED = "derived"


@dataclass(frozen=True)
class Endorsement:
    """How strongly a belief is held and where that strength comes from.
    Only an assertion has a speaker and expertise, and only a derived
    endorsement has support: a nonempty set of propositions."""

    level: StrengthLevel
    kind: SourceKind
    speaker: Optional[str] = None
    expertise: Optional[Expertise] = None
    support: frozenset = frozenset()

    def __post_init__(self) -> None:
        _check_level(self.level)
        kind, support = self.kind, frozenset(self.support)
        object.__setattr__(self, "support", support)
        if not isinstance(kind, SourceKind):
            raise StructureError(f"endorsement kind must be a SourceKind, got {kind!r}")
        if kind is SourceKind.ASSERTION:
            if self.speaker is None or self.expertise is None:
                raise StructureError("assertion endorsements need speaker and expertise")
            _check_name("assertion speaker", self.speaker)
            _check_expertise("assertion", self.expertise)
        elif self.speaker is not None or self.expertise is not None:
            raise StructureError(f"{kind.value} endorsements have no speaker or expertise")
        if kind is SourceKind.DERIVED:
            if not support:
                raise StructureError("derived endorsements need a nonempty support set")
            for member in support:
                if not isinstance(member, Proposition):
                    raise StructureError(f"derived support must be propositions, got {member!r}")
        elif support:
            raise StructureError(f"{kind.value} endorsements have no support set")

    @classmethod
    def kb_record(cls, level: StrengthLevel) -> "Endorsement":
        return _PLAIN[SourceKind.KB_RECORD, _check_level(level)]

    @classmethod
    def stereotype(cls, level: StrengthLevel) -> "Endorsement":
        return _PLAIN[SourceKind.STEREOTYPE, _check_level(level)]

    @classmethod
    def derived(cls, level: StrengthLevel, support: Iterable[Proposition]) -> "Endorsement":
        return cls(level, SourceKind.DERIVED, support=frozenset(support))


def _check_level(level: StrengthLevel) -> StrengthLevel:
    # an int or a bool compares and hashes equal to a level, so only the
    # type tells them apart
    if not isinstance(level, StrengthLevel):
        raise StructureError(f"level must be a StrengthLevel, got {level!r}")
    return level


def _check_name(what: str, name: str) -> None:
    # a scenario file spells a name as a non-empty string, so no other
    # name would read back
    if not isinstance(name, str) or not name:
        raise StructureError(f"{what} must be a non-empty string, got {name!r}")


def _check_expertise(what: str, expertise: Expertise) -> Expertise:
    # a plain string compares and hashes equal to its member, so only the
    # type tells them apart
    if not isinstance(expertise, Expertise):
        raise StructureError(f"{what} expertise must be an Expertise, got {expertise!r}")
    return expertise


def _check_count(what: str, value: int) -> None:
    # a bool is an int, and a float or a str would pass or crash the
    # comparison, so the type is checked first
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ContractViolation(f"{what} must be an integer at least 1, got {value!r}")


# the endorsements with neither speaker nor support, one shared instance each
_PLAIN = {
    (kind, level): Endorsement(level, kind)
    for kind in (SourceKind.KB_RECORD, SourceKind.STEREOTYPE)
    for level in StrengthLevel
}
# the same, keyed by their source and level texts as a file spells them
_PLAIN_SOURCES = {(kind.value, level.render()): e for (kind, level), e in _PLAIN.items()}


# a derived endorsement at a checked level, from a nonempty frozenset of
# propositions
_trusted_derived = _builder(Endorsement, kind=SourceKind.DERIVED, speaker=None, expertise=None)
# an assertion endorsement at a checked level, by a checked speaker name and
# expertise
_trusted_assertion = _builder(Endorsement, kind=SourceKind.ASSERTION, support=frozenset())


@dataclass(frozen=True)
class Belief:
    prop: Proposition
    endorsement: Endorsement


# a belief in a proposition, held as an endorsement, each already checked
_trusted_belief = _builder(Belief)


@dataclass(frozen=True)
class EvidencePiece:
    """A believed proposition plus a believed relation tying it to a target.
    The piece counts for the relation's consequent, whichever side of the
    target that is."""

    belief: Belief
    relation: Belief

    def __post_init__(self) -> None:
        rel = self.relation.prop
        if not rel.is_relation or rel.negated:
            raise StructureError("evidence relation must be a positive supports(...)")
        if rel.args[0] != self.belief.prop:
            raise StructureError("relation antecedent must match the believed proposition")

    @property
    def consequent(self) -> Proposition:
        return self.relation.prop.args[1]

    def key(self) -> tuple[str, str]:
        return (self.belief.prop._text, self.relation.prop._text)


# a piece whose relation is a positive ``supports(...)`` from ``belief``'s
# proposition
_trusted_piece = _builder(EvidencePiece)


def piece_strength(piece: EvidencePiece) -> StrengthLevel:
    # weakest-link rule: a piece is only as strong as its weakest component
    return min(piece.belief.endorsement.level, piece.relation.endorsement.level)


@dataclass(frozen=True)
class Speaker:
    """A source of assertions: a name and the expertise that sets how
    strongly its bare say-so is believed.  Every case it presents, and
    every assertion it is credited with, is endorsed through ``endorse``."""

    name: str
    expertise: Expertise
    # what its bare say-so is worth: warranted from an expert, else strong
    level: StrengthLevel = field(init=False, repr=False, compare=False)
    # one assertion endorsement per level, built on first use from the
    # checked name and expertise
    _endorsements: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_name("speaker name", self.name)
        expert = _check_expertise("speaker", self.expertise) is Expertise.EXPERT
        _setattr(self, "level", StrengthLevel.WARRANTED if expert else StrengthLevel.STRONG)

    def endorse(self, level: StrengthLevel) -> Endorsement:
        """This speaker's assertion endorsement at ``level``, shared per level."""
        # the type before the lookup, where an int would find the level it
        # equals: any other value goes to the constructor, which refuses it,
        # and nothing is kept
        if type(level) is not StrengthLevel:
            return Endorsement(level, SourceKind.ASSERTION, self.name, self.expertise)
        if level not in self._endorsements:
            # the name and expertise were checked when the speaker was built
            self._endorsements[level] = _trusted_assertion(level, self.name, self.expertise)
        return self._endorsements[level]

    def case(self, claim: Proposition, backing: Iterable[tuple] = ()) -> tuple[EvidencePiece, ...]:
        """What the speaker puts forward for ``claim``: the bare assertion,
        then one piece per ``(prop, relation, belief_level, relation_level)``
        in ``backing``, both parts asserted at the given strengths.  The
        bare piece's self-relation is warranted, so it carries exactly
        ``level``."""
        endorse = self.endorse
        pieces = [
            _trusted_piece(
                _trusted_belief(claim, endorse(self.level)),
                _trusted_belief(supports_prop(claim, claim), endorse(StrengthLevel.WARRANTED)),
            )
        ]
        for prop, relation, belief_level, relation_level in backing:
            belief = _trusted_belief(prop, endorse(belief_level))
            held = _trusted_belief(relation, endorse(relation_level))
            # ``EvidencePiece``'s checks, made here once
            if not relation.is_relation or relation.negated:
                raise StructureError("evidence relation must be a positive supports(...)")
            if relation.args[0] != prop:
                raise StructureError("relation antecedent must match the believed proposition")
            pieces.append(_trusted_piece(belief, held))
        return tuple(pieces)


# ---------------------------------------------------------------------------
# knowledge bases


def _given(label: str, item: object, i: int) -> Belief:
    # item ``i`` of the list given to ``KnowledgeBase`` as ``label``, checked
    if isinstance(item, Belief) and isinstance(item.prop, Proposition):
        if isinstance(item.endorsement, Endorsement):
            return item
    raise StructureError(f"{label}[{i}] must be a Belief of a Proposition and an Endorsement")


def _index(
    items: Iterable, label: str, by_consequent: dict, read: Callable, plain: dict
) -> tuple[dict, Optional[StructureError]]:
    """One side of a store, keyed by canonical text, and its first fault
    (the first duplicate, else the first contradiction) or None.  Positive
    relations go in ``by_consequent``.  A belief spelled as in a file, whose
    source and level ``plain`` maps to an endorsement and whose text the
    pattern matches, stays unbuilt, as that endorsement; ``read(item, i)``
    returns the belief of any other item, or raises."""
    side: dict = {}
    negated = []
    duplicate = None
    match = _CANONICAL.fullmatch
    for i, item in enumerate(items):
        m = None
        if type(item) is dict and len(item) == 3:
            try:
                text, level, source = item["prop"], item["level"], item["source"]
                if type(source) is str and type(level) is str:
                    endorsement = plain.get((source, level))
                    if endorsement is not None:
                        m = match(text)
            except (KeyError, TypeError):  # TypeError: a text that is no string
                pass
        if m is not None:
            item, text, consequent = endorsement, text.replace("~", "¬"), m[5]
        else:
            item = read(item, i)
            prop = item.prop
            text = prop._text
            consequent = prop.args[1]._text if prop.predicate == SUPPORTS else None
        # one dict operation per item: a duplicate leaves the size as it
        # was, and every later size one short, so only the first is noted
        side[text] = item
        if len(side) == i and duplicate is None:
            duplicate = text
        if text[0] == "¬":
            negated.append(text)
        elif consequent is not None:
            by_consequent.setdefault(consequent.replace("~", "¬"), {})[text] = None
    if duplicate is not None:
        return side, StructureError(f"duplicate belief in {label}: {duplicate}")
    for text in negated:
        if text[1:] in side:
            return side, ContradictionError(f"{label} holds both {text[1:]} and {text}")
    return side, None


@dataclass(frozen=True, init=False)
class KnowledgeBase:
    """An agent's own beliefs plus its model of the other conversant.

    Each side is one dict keyed by canonical text (``¬`` spelling),
    contradiction-free; its order means nothing.  ``_index`` reads each
    list given to the constructor or read from a file into its side in one
    pass.  A plain parsed belief is its shared endorsement until its first
    read builds it in place, once, through the document's proposition memo.  ``own`` and ``user_model``
    build and sort a side on every read, for output; equality compares
    built contents.  All update helpers return a new instance.  An update
    copies only the side it writes, once, in O(n), and re-validates
    nothing: a removal drops every proposition it is given; an add drops
    the negation and then inserts.  Each helper takes any number of
    propositions or beliefs and applies them in order within that one
    copy, so a step that writes k beliefs copies the side once.

    Both sides share one consequent index, which only grows: the text of
    each proposition ``c`` maps to the texts of positive ``supports(a, c)``
    propositions, the keys of a dict.  ``_index`` builds it; every
    store derived from that one (each write's result, each
    ``model_view()``) shares it, and an add lists each positive relation
    it writes.  Nothing is dropped or copied, so it is a superset of what
    any store of the lineage holds, bounded by the relations given to the
    constructor plus those the lineage wrote; a reader keeps what the side
    it reads holds.  A negotiation does not copy it.  It takes no part in
    equality.
    """

    _own: dict
    _model: dict
    expertise: Expertise
    _by_consequent: dict = field(compare=False, repr=False)
    # the document's proposition memo, which builds an unbuilt item
    _parse = None

    def __init__(
        self,
        own: Iterable[Belief],
        user_model: Iterable[Belief] = (),
        expertise: Expertise = Expertise.EXPERT,
    ) -> None:
        _check_expertise("store", expertise)
        by_consequent: dict[str, dict] = {}
        # no plain sources: each item goes to the reader, which checks it
        own, fault = _index(own, "own beliefs", by_consequent, partial(_given, "own beliefs"), {})
        model, model_fault = _index(
            user_model, "user model", by_consequent, partial(_given, "user model"), {}
        )
        if fault or model_fault:
            raise fault or model_fault
        _setattr(self, "_own", own)
        _setattr(self, "_model", model)
        _setattr(self, "expertise", expertise)
        _setattr(self, "_by_consequent", by_consequent)

    def __eq__(self, other: object) -> bool:
        same = type(other) is KnowledgeBase and self.expertise == other.expertise
        return same and self.own == other.own and self.user_model == other.user_model

    @property
    def own(self) -> tuple[Belief, ...]:
        return tuple(self._read(self._own, text) for text in sorted(self._own))

    @property
    def user_model(self) -> tuple[Belief, ...]:
        return tuple(self._read(self._model, text) for text in sorted(self._model))

    def _read(self, side: dict, text: str) -> Optional[Belief]:
        # the belief ``side`` holds in ``text``, built on its first read
        item = side.get(text)
        if type(item) is Endorsement:
            item = side[text] = Belief(self._parse(text), item)
        return item

    def own_belief(self, prop: Proposition) -> Optional[Belief]:
        return self._read(self._own, prop._text)

    def holds(self, prop: Proposition) -> bool:
        return prop._text in self._own

    def model_view(self) -> "KnowledgeBase":
        """The user model as a store's own beliefs, with no model of its own."""
        return _trusted(self._model, {}, Expertise.EXPERT, self._by_consequent, self._parse)

    def own_add(self, *beliefs: Belief) -> "KnowledgeBase":
        return self._write(True, (), beliefs)

    def own_remove(self, *props: Proposition) -> "KnowledgeBase":
        return self._write(True, props)

    def model_add(self, *beliefs: Belief) -> "KnowledgeBase":
        return self._write(False, (), beliefs)

    def model_remove(self, *props: Proposition) -> "KnowledgeBase":
        return self._write(False, props)

    def _write(
        self, own: bool, dropped: Iterable[Proposition], added: Iterable[Belief] = ()
    ) -> "KnowledgeBase":
        """This store with one side (``own`` or the user model) patched in
        one copy: ``dropped`` removed, then each of ``added`` in turn
        inserted in place of its negation and of any belief in the same
        proposition."""
        side = dict(self._own if own else self._model)
        for prop in dropped:
            side.pop(prop._text, None)
        index = self._by_consequent
        for belief in added:
            prop = belief.prop
            side.pop(prop.negate()._text, None)
            side[prop._text] = belief
            if prop.predicate == SUPPORTS and not prop.negated:
                index.setdefault(prop.args[1]._text, {})[prop._text] = None
        sides = (side, self._model) if own else (self._own, side)
        return _trusted(*sides, self.expertise, index, self._parse)


def _trusted(own: dict, model: dict, expertise: Expertise, index: dict, parse=None) -> KnowledgeBase:
    """A store from sides already keyed by text and free of contradictions,
    with the consequent index it shares and the memo that builds its
    unbuilt items, built without ``__init__``.  The sides are shared."""
    kb = object.__new__(KnowledgeBase)
    _setattr(kb, "_own", own)
    _setattr(kb, "_model", model)
    _setattr(kb, "expertise", expertise)
    _setattr(kb, "_by_consequent", index)
    _setattr(kb, "_parse", parse)
    return kb


class _PendingAdds:
    """Beliefs bound for one side of ``kb`` (its own beliefs if ``own``,
    else its user model), in order, readable before they are written.
    ``belief`` reads the side as ``store()`` will leave it after the adds
    so far: each add drops its negation, then inserts."""

    def __init__(self, kb: KnowledgeBase, own: bool) -> None:
        self._kb = kb
        self._to_own = own
        self._side = kb._own if own else kb._model
        # the text of each proposition an add wrote: its belief, or None if dropped
        self._written: dict[str, Optional[Belief]] = {}
        self._beliefs: list[Belief] = []

    def belief(self, prop: Proposition) -> Optional[Belief]:
        text, written = prop._text, self._written
        return written[text] if text in written else self._kb._read(self._side, text)

    def add(self, belief: Belief) -> None:
        self._written[belief.prop.negate()._text] = None
        self._written[belief.prop._text] = belief
        self._beliefs.append(belief)

    def adopt(self, prop: Proposition, evidence: Sequence[EvidencePiece]) -> None:
        """Add ``prop`` as :func:`_adopted` builds it, if it builds one."""
        belief = _adopted(self.belief(prop), prop, evidence)
        if belief is not None:
            self.add(belief)

    def store(self) -> KnowledgeBase:
        """``kb`` with every add made, in one write; ``kb`` if there are none."""
        kb, beliefs = self._kb, self._beliefs
        if not beliefs:
            return kb
        return kb.own_add(*beliefs) if self._to_own else kb.model_add(*beliefs)


# ---------------------------------------------------------------------------
# evidence collection and revision


class VerdictOutcome(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    ABANDON = "abandon"
    UNCERTAIN = "uncertain"


# each outcome's text, read without the enum's ``value`` descriptor
_OUTCOME_TEXTS = {outcome: outcome.value for outcome in VerdictOutcome}


@dataclass(frozen=True)
class Verdict:
    """One judgement of a proposition: the outcome, the score of each side,
    and the evidence credited on each side.  ``prior_support`` is the
    judge's own belief in the target when it counted towards the support."""

    outcome: VerdictOutcome
    support_score: int
    attack_score: int
    support_pieces: tuple[EvidencePiece, ...] = ()
    attack_pieces: tuple[EvidencePiece, ...] = ()
    prior_support: Optional[Belief] = None

    def accepted_strength(self) -> Optional[StrengthLevel]:
        """The strength the target is accepted at; None unless accepted."""
        if self.outcome is not VerdictOutcome.ACCEPT:
            return None
        ranks = [piece_strength(p) for p in self.support_pieces]
        if self.prior_support is not None:
            ranks.append(self.prior_support.endorsement.level)
        if not ranks:
            raise ContractViolation("no credited evidence on the winning side")
        return max(ranks)


# a verdict from the scores and pieces a judgement weighed
_trusted_verdict = _builder(Verdict)


def build_evidence_set(
    kb: KnowledgeBase,
    target: Proposition,
    presented: Iterable[EvidencePiece] = (),
) -> tuple[EvidencePiece, ...]:
    """Collect every evidence piece bearing on ``target``.

    Combines the pieces derivable from the store's own beliefs (a held relation whose
    antecedent is also held) with the pieces the caller presents, each of
    which must count for the target or its negation.  Pieces are
    deduplicated by (belief, relation), keeping the stronger reading, and
    returned in canonical order.
    """
    sides = (target, target.negate())
    own, read, index = kb._own, kb._read, kb._by_consequent
    pieces: list[EvidencePiece] = []
    for side in sides:
        # the index is shared by the store's whole lineage: keep only the
        # relations this store holds
        for rel in index.get(side._text, ()):
            # ``_read`` inline for a built item, which most reads here find
            relation = own.get(rel)
            if type(relation) is Endorsement:
                relation = read(own, rel)
            if relation is not None:
                basis = own.get(relation.prop.args[0]._text)
                if type(basis) is Endorsement:
                    basis = read(own, relation.prop.args[0]._text)
                if basis is not None:
                    pieces.append(_trusted_piece(basis, relation))
    pieces += _addressing(target, presented)
    best: dict[tuple[str, str], tuple[EvidencePiece, StrengthLevel]] = {}
    for pc in pieces:
        # ``piece_strength`` and ``key`` inline: this runs for every piece
        # of every judgement
        belief, relation = pc.belief, pc.relation
        strength = min(belief.endorsement.level, relation.endorsement.level)
        key = (belief.prop._text, relation.prop._text)
        prev = best.get(key)
        if prev is None or strength > prev[1]:
            best[key] = (pc, strength)
    # a list, where a generator would cost a Python call per piece
    return tuple([best[key][0] for key in sorted(best)])


def _addressing(target: Proposition, presented: Iterable[EvidencePiece]) -> list[EvidencePiece]:
    """``presented`` as a list, each piece checked to count for ``target``
    or its negation."""
    sides = (target._text, target.negate()._text)
    pieces = list(presented)
    for pc in pieces:
        if pc.relation.prop.args[1]._text not in sides:
            raise StructureError(f"evidence piece does not address {target}: {pc.relation.prop}")
    return pieces


def _standing(kb: KnowledgeBase | _Removal, belief: Belief) -> bool:
    """A derived belief stands only while some member of its basis is still
    held and standing: it can reach a held belief that is not derived
    through held derived beliefs.  ``kb`` is a store, or a :class:`_Removal`
    view of one."""
    if belief.endorsement.kind is not SourceKind.DERIVED:
        return True
    seen = {belief.prop}
    todo = [belief]
    while todo:
        for member in todo.pop().endorsement.support:
            held = kb.own_belief(member)
            if held is None:
                continue
            if held.endorsement.kind is not SourceKind.DERIVED:
                return True
            if member not in seen:
                seen.add(member)
                todo.append(held)
    return False


def _judged(
    kb: KnowledgeBase | _Removal, target: Proposition, pool: Sequence[EvidencePiece], tau: int
) -> Verdict:
    """The verdict on ``target`` of the judge whose own beliefs ``kb``
    reads, a store or a :class:`_Removal` view of one, weighing ``pool``,
    whose pieces each count for ``target`` or its negation."""
    # per side, keyed by its text: the judge's own belief in it, whether
    # that stands, the side's score and its credited pieces.  A standing
    # prior counts at its level and replaces a bare self-assertion of the side.
    sides = {}
    for prop in (target, target.negate()):
        prior = kb.own_belief(prop)
        counts = prior is not None and _standing(kb, prior)
        sides[prop._text] = [prior, counts, int(prior.endorsement.level) if counts else 0, []]
    for pc in pool:
        text = pc.relation.prop.args[1]._text
        side = sides[text]
        if not (side[1] and pc.belief.prop._text == text):
            side[2] += min(pc.belief.endorsement.level, pc.relation.endorsement.level)
            side[3].append(pc)
    (prior, counts, support_score, support), (_, _, attack_score, attack) = sides.values()
    if support_score - attack_score >= tau:
        outcome = VerdictOutcome.ACCEPT
    elif attack_score - support_score >= tau:
        outcome = VerdictOutcome.REJECT
    elif prior is not None and prior.endorsement.kind is SourceKind.DERIVED and not counts:
        outcome = VerdictOutcome.ABANDON
    else:
        outcome = VerdictOutcome.UNCERTAIN
    return _trusted_verdict(
        outcome, support_score, attack_score, tuple(support), tuple(attack),
        prior if counts else None,
    )


def record_verdict(
    trace,
    agent: str,
    target: Proposition,
    verdict: Verdict,
    note: str = "",
    *,
    method: str = "",
    removed: Optional[Iterable[Proposition]] = None,
) -> None:
    """Emit one verdict to ``trace``, if any: a ``predict`` record when
    ``removed`` is given, otherwise a ``revise`` record reached by ``method``."""
    if trace is None:
        return
    payload = {
        "agent": agent,
        "target": target.render(),
        "supportScore": verdict.support_score,
        "attackScore": verdict.attack_score,
        "outcome": _OUTCOME_TEXTS[verdict.outcome],
    }
    if removed is None:
        kind, payload["method"] = "revise", method
    else:
        kind, payload["removed"] = "predict", sorted(p.render() for p in removed)
    if note:
        payload["note"] = note
    trace.emit(kind, **payload)


def revise_detail(
    kb: KnowledgeBase,
    target: Proposition,
    presented: Iterable[EvidencePiece] = (),
    tau: int = 1,
    *,
    trace=None,
    agent: str = "",
    note: str = "",
) -> Verdict:
    """:func:`revise`, with the verdict recorded to ``trace``."""
    _check_count("threshold", tau)
    verdict = _judged(kb, target, build_evidence_set(kb, target, presented), tau)
    record_verdict(trace, agent, target, verdict, note, method="scores")
    return verdict


def revise(
    kb: KnowledgeBase,
    target: Proposition,
    presented: Iterable[EvidencePiece] = (),
    tau: int = 1,
) -> Verdict:
    """Weigh all evidence about ``target`` and return the verdict, with the
    pieces it credited on each side and the prior it counted.

    The store's own evidence and the ``presented`` pieces form one pool;
    each piece counts for its relation's consequent, which must be the
    target or its negation.  Scores are rank sums over the deduplicated
    pool on each side, plus the agent's own prior on the matching side when
    it independently stands.  Accept and reject require a margin of at
    least ``tau``; a derived prior whose entire basis is refuted is
    abandoned; everything else is uncertain.  Untraced: a traced revision
    goes through :func:`revise_detail`.
    """
    return revise_detail(kb, target, presented, tau)


# ---------------------------------------------------------------------------
# hypothetical removal and minimal-subset search


def _support(own: dict, text: str) -> Optional[Iterator[Proposition]]:
    # the support members of the derived belief ``own`` holds in ``text``;
    # None if it holds none there
    item = own.get(text)
    if type(item) is Belief and item.endorsement.kind is SourceKind.DERIVED:
        return iter(item.endorsement.support)
    return None


class _Removal(dict):
    """A store's own beliefs less what removing some propositions loses,
    read in place, and whether each proposition is lost, keyed by text and
    worked out on its first lookup.  A proposition is lost if it was
    removed, or if it is a derived belief of the store and every member of
    its support is lost; so a cycle of supports is lost only through a
    removed member.  Each lookup costs what it visits, once per removal,
    not a scan of the store.  ``own_belief`` still reads the ``kept``
    proposition, if any, when it is lost: the target of a judgement."""

    __slots__ = ("_kb", "_kept")

    def __init__(
        self,
        kb: KnowledgeBase,
        removed: Iterable[Proposition],
        kept: Optional[Proposition] = None,
        plain: Iterable = (),
    ) -> None:
        # ``plain`` maps texts that hold no derived belief to False: each is
        # lost only if removed
        super().__init__(plain)
        self.update(dict.fromkeys([prop._text for prop in removed], True))
        self._kb, self._kept = kb, None if kept is None else kept._text

    def own_belief(self, prop: Proposition) -> Optional[Belief]:
        text = prop._text
        if text != self._kept and self[text]:
            return None
        return self._kb.own_belief(prop)

    def __missing__(self, text: str) -> bool:
        # depth first, on an explicit stack of (text, its members not yet
        # looked at).  Each text on the stack is a member of the one below
        # it, so one kept member keeps the whole stack; a text still on the
        # stack reads as kept, as a cycle of supports must be.
        own = self._kb._own
        self[text] = False
        stack = [(text, _support(own, text))]
        while stack:
            top, members = stack[-1]
            if members is None:
                return False
            member = next(members, None)
            if member is None:
                self[top] = True
                stack.pop()
                continue
            lost = self.get(member._text)
            if lost is None:
                self[member._text] = False
                stack.append((member._text, _support(own, member._text)))
            elif not lost:
                return False
        return True


class _Pool:
    """The evidence on ``target`` from ``model``'s own beliefs and from
    ``hypothesized``, prepared once to be weighed under many removals.

    The two sources stay apart until a removal is known: it drops a
    hypothesized piece whose belief or relation it loses, and a held piece
    whose relation, or whose belief other than the target, it loses (the
    judged store keeps the target).  Deduplication comes after that, so
    each key keeps its readings in the order it prefers them: stronger
    first, then held before hypothesized, then as given.
    """

    __slots__ = ("_model", "_target", "_readings", "_plain")

    def __init__(
        self, model: KnowledgeBase, target: Proposition, hypothesized: Iterable[EvidencePiece] = ()
    ) -> None:
        text, own = target._text, model._own
        found = [(pc, pc.belief.prop._text != text) for pc in build_evidence_set(model, target)]
        found += [(pc, True) for pc in _addressing(target, hypothesized)]
        readings: dict[tuple[str, str], list] = {}
        for order, (pc, basis_tested) in enumerate(found):
            basis, relation = key = pc.key()
            tested = (basis, relation) if basis_tested else (relation,)
            readings.setdefault(key, []).append((-piece_strength(pc), order, pc, tested))
        # the texts a removal may test that no derived belief is held in:
        # each is lost only if removed
        self._plain = {t: False for key in readings for t in key if _support(own, t) is None}
        self._model, self._target = model, target
        self._readings = [sorted(readings[key]) for key in sorted(readings)]

    def judge(self, removed: Sequence[Proposition], tau: int) -> Verdict:
        """The verdict on the target once ``removed`` is gone from the model."""
        model, target = self._model, self._target
        lost = _Removal(model, removed, target, self._plain)
        pool = []
        for readings in self._readings:
            for _, _, pc, tested in readings:
                if not any(map(lost.__getitem__, tested)):
                    pool.append(pc)
                    break
        return _judged(lost, target, pool, tau)

    def smallest_flip(self, tau: int) -> int:
        """A size below which no removal flips the target.  A removal only
        drops pieces and priors, so none rejects the target if the attack
        side with nothing removed, every key at its strongest reading, falls
        short of ``tau``.  Then only abandoning flips, and that removes
        every held, non-derived support member of the target's derived
        prior, each of which keeps the prior standing."""
        model, target = self._model, self._target
        negated = target.negate()
        against = model.own_belief(negated)
        reach = 0 if against is None else against.endorsement.level
        text = negated._text
        # a key's readings come strongest first, as (-strength, ...)
        reach -= sum(r[0][0] for r in self._readings if r[0][2].consequent._text == text)
        prior = model.own_belief(target)
        if reach >= tau or prior is None or prior.endorsement.kind is not SourceKind.DERIVED:
            return 1
        held = [model.own_belief(m) for m in prior.endorsement.support]
        return max(1, sum(b is not None and b.endorsement.kind is not SourceKind.DERIVED for b in held))


def removal_closure(model: KnowledgeBase, removed: Iterable[Proposition]) -> frozenset:
    """Everything lost when ``removed`` goes, as :class:`_Removal` decides
    it: the set itself plus every modelled belief lost with it."""
    closure = set(removed)
    lost = _Removal(model, closure)
    # an unbuilt item is its plain endorsement, never a derived one
    own = model._own
    closure.update([item.prop for text, item in own.items() if type(item) is Belief and lost[text]])
    return frozenset(closure)


def minimal_subsets(
    items: Sequence, sufficient: Callable[[tuple], bool], smallest: int = 1
) -> Iterator[tuple]:
    """Each sufficient subset of ``items`` that holds no smaller sufficient
    one, yielded as soon as it is found.

    Sizes run from ``smallest`` upwards, and each size tries its
    combinations in ``itertools.combinations`` order.  ``smallest`` is a
    size below which no subset is sufficient: sizes below it are not
    tried, so if that holds the yields are those from size 1.  A
    combination holding one already found is skipped without calling
    ``sufficient``.  Nothing past the last subset taken is tried, so
    ``next(...)`` stops at the first hit.
    """
    alone = set()
    for i, item in enumerate(items if smallest <= 1 else ()):
        if sufficient((item,)):
            alone.add(i)
            yield (item,)
    # a member sufficient alone lies in no larger minimal subset, so larger
    # sizes combine only the rest, in the same relative order
    pool = [i for i in range(len(items)) if i not in alone]
    found: list[frozenset] = []
    for size in range(max(2, smallest), len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            members = frozenset(combo)
            if any(f <= members for f in found):
                continue
            subset = tuple(items[i] for i in combo)
            if sufficient(subset):
                found.append(members)
                yield subset


# ---------------------------------------------------------------------------
# assimilation


def _adopted(
    prior: Optional[Belief], prop: Proposition, evidence: Sequence[EvidencePiece]
) -> Optional[Belief]:
    """``prop`` at the strength of the strongest piece of ``evidence``, all
    of which counts for ``prop``; None if ``prior``, the belief held in
    ``prop``, is already that strong."""
    if not evidence:
        if prior is None:
            raise ContractViolation(f"cannot adopt {prop} with no evidence and no prior")
        return None
    win = max(map(piece_strength, evidence))
    if prior is not None and prior.endorsement.level >= win:
        return None
    basis = {pc.belief.prop for pc in evidence if pc.belief.prop != prop}
    if basis:
        return _trusted_belief(prop, _trusted_derived(win, frozenset(basis)))
    # bare assertion: keep the assertion provenance rather than a
    # self-referential derivation, at the piece's strength, which a
    # caller-built self-relation may hold below the assertion's level
    endorsement = max(evidence, key=piece_strength).belief.endorsement
    if endorsement.level != win:
        endorsement = replace(endorsement, level=win)
    return _trusted_belief(prop, endorsement)


def assimilate(kb: KnowledgeBase, verdict: Verdict, target: Proposition) -> KnowledgeBase:
    """Fold into the store a verdict on ``target`` shaped as :func:`revise`
    gives one: its support pieces count for ``target``, its attack pieces
    for the negation.

    Accepting adopts the target (at the winning strength, derived from the
    support pieces) and drops its negation; rejecting does the mirror image
    from the attack pieces; abandoning removes the target without endorsing
    its negation.
    """
    if verdict.outcome is VerdictOutcome.ACCEPT:
        prop, evidence = target, verdict.support_pieces
    elif verdict.outcome is VerdictOutcome.REJECT:
        # adding the negation drops the target, if it is held at all
        prop, evidence = target.negate(), verdict.attack_pieces
    elif verdict.outcome is VerdictOutcome.ABANDON:
        return kb.own_remove(target)
    else:
        raise ContractViolation(f"an uncertain verdict on {target} cannot be assimilated")
    pending = _PendingAdds(kb, own=True)
    pending.adopt(prop, evidence)
    return pending.store()
