"""Languages and their decidable subset algebra.

A language is the universe a deduction lives in: either an explicit
finite set of elements or the denumerable set of names `{prefix}0`,
`{prefix}1`, ..., which is known by its prefix alone.  Subsets
come in two representations, finite and cofinite, and every operation
on them (membership, inclusion, union, intersection) is exact -- no
operation ever tries to enumerate an infinite language.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator, Union

from .errors import DomainError, UsageError

# ---------------------------------------------------------------------------
# elements


_WHITESPACE = re.compile(r"\s")  # matches exactly the characters str.isspace accepts


class Element(tuple):
    """A named point of a language: the 1-tuple `(name,)`, nothing more.

    Names double as the on-disk token syntax, hence the restrictions:
    non-empty, no whitespace, no '#' (comment marker), no '=>' (rule
    arrow).  Hashing, equality and ordering are the tuple's own, so an
    element hashes as `hash((name,))`, orders by name, and equals the
    bare tuple `(name,)`.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Element":
        """The element named `name`, refused with a `DomainError` that
        names the rule it breaks.  An alphanumeric name is accepted at
        once: it is non-empty and holds no whitespace, '#' or '='."""
        if name.isalnum():
            return tuple.__new__(cls, (name,))
        if not name:
            raise DomainError("element name must be non-empty")
        if _WHITESPACE.search(name):
            raise DomainError(f"element name may not contain whitespace: {name!r}")
        if "#" in name:
            raise DomainError(f"element name may not contain '#': {name!r}")
        if "=>" in name:
            raise DomainError(f"element name may not contain '=>': {name!r}")
        return tuple.__new__(cls, (name,))

    @classmethod
    def _of_names(cls, names: Iterable[str]) -> tuple["Element", ...]:
        """The elements with these names, which the caller vouches pass
        the name checks: nothing is validated."""
        new = tuple.__new__
        return tuple([new(cls, (name,)) for name in names])

    name = property(itemgetter(0))

    def __getnewargs__(self) -> tuple[str]:
        # copies and unpickled elements go through __new__: re-validated, hashed in this process
        return (self.name,)

    def __repr__(self) -> str:
        return f"Element(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


def _as_element(value: Element | str) -> Element:
    return value if isinstance(value, Element) else Element(value)


# ---------------------------------------------------------------------------
# languages


@dataclass(frozen=True)
class ExplicitLanguage:
    """A finite language, its elements stored in name order.

    `positions` maps each element to its index in that order, built
    once, so membership is a hash lookup and bit masks have their bit
    numbering.  It is not a dataclass field, so equality, hashing and
    repr see only `elements`.
    """

    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise DomainError("an explicit language needs at least one element")
        elements = tuple(sorted(self.elements))
        positions = {e: i for i, e in enumerate(elements)}
        if len(positions) != len(elements):
            raise DomainError("language elements must be distinct")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "positions", positions)

    @classmethod
    def of_tokens(cls, tokens: Iterable[str]) -> "ExplicitLanguage":
        return cls(tuple(Element(t) for t in tokens))

    def __contains__(self, element: Element) -> bool:
        return element in self.positions

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"ExplicitLanguage({','.join(e.name for e in self.elements)})"


@dataclass(frozen=True)
class EnumeratedLanguage:
    """The denumerable language of the names `{prefix}0`, `{prefix}1`, ...

    The prefix is the whole language: two languages with the same prefix
    are equal, and element i is the name `{prefix}{i}`, in plain decimal
    with no leading zeros, so distinct indices give distinct names.
    `index_of` reads an index back off a name, so membership is decided
    on the name alone.
    """

    prefix: str

    def __post_init__(self) -> None:
        Element(self.prefix)  # reuse the token validation

    @classmethod
    def prefixed(cls, prefix: str) -> "EnumeratedLanguage":
        return cls(prefix)

    def element(self, index: int) -> Element:
        if index < 0:
            raise DomainError("enumeration index must be non-negative")
        return Element(f"{self.prefix}{index}")

    def prefix_elements(self, count: int) -> tuple[Element, ...]:
        """First `count` elements, in enumeration order."""
        return tuple(self.element(i) for i in range(count))

    def index_of(self, element: Element) -> int | None:
        name = element[0]  # a bare 1-tuple equals the Element of its name
        if not name.startswith(self.prefix):
            return None
        digits = name[len(self.prefix):]
        # ASCII decimal only (str.isdigit alone accepts '²' and '١'), no leading zero
        if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and digits != "0"):
            return None
        return int(digits)

    def __contains__(self, element: Element) -> bool:
        return self.index_of(element) is not None

    def __repr__(self) -> str:
        return f"EnumeratedLanguage(prefix:{self.prefix})"


Language = Union[ExplicitLanguage, EnumeratedLanguage]


def require_same_language(a: Language, b: Language, context: str) -> None:
    if a != b:
        raise DomainError(f"{context}: mismatched languages {a!r} and {b!r}")


# ---------------------------------------------------------------------------
# subsets


def _member_set(
    language: Language, values: Iterable[Element | str], what: str
) -> frozenset[Element]:
    out = []
    for v in values:
        e = _as_element(v)
        if e not in language:
            raise DomainError(f"{what} {e} is not in the language")
        out.append(e)
    return frozenset(out)


def bit_indices(mask: int) -> Iterator[int]:
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def intersection_closure(masks: Iterable[int]) -> set[int]:
    """The least family of masks that holds every one of `masks` and the
    AND of any two of its members.

    The family grows one generator at a time and stays closed: a
    generator g adds itself and its AND with every member, since
    (g & a) & b == g & (a & b).  Larger generators go first, so a smaller
    one that is already the AND of larger ones is found present and adds
    nothing.
    """
    family: set[int] = set()
    for generator in sorted(set(masks), key=int.bit_count, reverse=True):
        if generator not in family:
            family |= {generator & member for member in family}
            family.add(generator)
    return family


# b"0" to the byte 0 and b"1" to the byte 1, for reading bin() digits as flags
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class FiniteSubset:
    """A finite subset, stored sorted and duplicate-free.

    `member_set` holds the same members as a frozenset, for membership
    and inclusion tests.  Over an explicit language `mask` holds them
    as an int: member e is bit `language.positions[e]`.  An enumerated
    language has no mask, since an enumeration index is unbounded and
    one bit per index could need any amount of memory.  Both are
    computed at most once and are not dataclass fields, so equality,
    hashing and repr see only `language` and `members`.
    """

    language: Language
    members: tuple[Element, ...] = ()

    def __post_init__(self) -> None:
        member_set = _member_set(self.language, self.members, "member")
        object.__setattr__(self, "members", tuple(sorted(member_set)))
        object.__setattr__(self, "member_set", member_set)

    @classmethod
    def of(cls, language: Language, values: Iterable[Element | str]) -> "FiniteSubset":
        return cls(language, tuple(_as_element(v) for v in values))

    @classmethod
    def empty(cls, language: Language) -> "FiniteSubset":
        return cls(language, ())

    @classmethod
    def _of_mask(cls, language: ExplicitLanguage, mask: int) -> "FiniteSubset":
        """The subset whose members are the set bits of `mask`, which the
        caller vouches are all in the language: nothing is validated,
        and nothing is sorted either, since bit order is name order."""
        # bin() lists the bits highest first after '0b'; reversed, bit i is
        # digit i, and as bytes each digit becomes the byte 0 or 1
        flags = bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)
        members = tuple(compress(language.elements, flags))
        subset = object.__new__(cls)
        subset.__dict__.update(language=language, members=members, mask=mask)
        return subset

    @cached_property
    def member_set(self) -> frozenset[Element]:
        return frozenset(self.members)

    @cached_property
    def mask(self) -> int:
        if not isinstance(self.language, ExplicitLanguage):
            raise UsageError("bit masks need an explicit finite language")
        mask = 0
        for i in map(self.language.positions.__getitem__, self.members):
            mask |= 1 << i
        return mask

    # -- queries ------------------------------------------------------

    def contains(self, element: Element) -> bool:
        if element not in self.language:
            raise DomainError(f"element {element} is not in the language")
        return element in self.member_set

    def __contains__(self, element: Element) -> bool:
        return self.contains(element)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def is_subset_of(self, other: "Subset") -> bool:
        require_same_language(self.language, other.language, "is_subset_of")
        if isinstance(other, FiniteSubset):
            return self.member_set <= other.member_set
        return self.member_set.isdisjoint(other.excluded_set)

    __le__ = is_subset_of

    # -- algebra ------------------------------------------------------

    def union(self, other: "Subset") -> "Subset":
        require_same_language(self.language, other.language, "union")
        if isinstance(other, FiniteSubset):
            return FiniteSubset(self.language, self.members + other.members)
        return CofiniteSubset(self.language, tuple(other.excluded_set - self.member_set))

    __or__ = union

    def intersect(self, other: "Subset") -> "FiniteSubset":
        require_same_language(self.language, other.language, "intersect")
        if isinstance(other, FiniteSubset):
            kept = self.member_set & other.member_set
        else:
            kept = self.member_set - other.excluded_set
        return FiniteSubset(self.language, tuple(kept))

    __and__ = intersect

    def __str__(self) -> str:
        return "{" + ",".join(e.name for e in self.members) + "}"


@dataclass(frozen=True)
class CofiniteSubset:
    """Everything except a finite excluded set.

    Only meaningful over an enumerated language; over a finite language
    the complement is itself finite and FiniteSubset should be used.

    `excluded_set` holds the excluded elements as a frozenset, built
    once, like FiniteSubset's `member_set`.  It is not a dataclass
    field, so equality, hashing and repr see only `language` and
    `excluded`.
    """

    language: Language
    excluded: tuple[Element, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.language, EnumeratedLanguage):
            raise UsageError("cofinite subsets require an enumerated language")
        excluded_set = _member_set(self.language, self.excluded, "excluded element")
        object.__setattr__(self, "excluded", tuple(sorted(excluded_set)))
        object.__setattr__(self, "excluded_set", excluded_set)

    @classmethod
    def of(cls, language: Language, excluded: Iterable[Element | str]) -> "CofiniteSubset":
        return cls(language, tuple(_as_element(v) for v in excluded))

    @classmethod
    def full(cls, language: Language) -> "CofiniteSubset":
        return cls(language, ())

    # -- queries ------------------------------------------------------

    def contains(self, element: Element) -> bool:
        if element not in self.language:
            raise DomainError(f"element {element} is not in the language")
        return element not in self.excluded_set

    def __contains__(self, element: Element) -> bool:
        return self.contains(element)

    def is_subset_of(self, other: "Subset") -> bool:
        require_same_language(self.language, other.language, "is_subset_of")
        if isinstance(other, FiniteSubset):
            return False  # a cofinite set is infinite, a finite one is not
        return other.excluded_set <= self.excluded_set

    __le__ = is_subset_of

    # -- algebra ------------------------------------------------------

    def union(self, other: "Subset") -> "CofiniteSubset":
        require_same_language(self.language, other.language, "union")
        if isinstance(other, FiniteSubset):
            return CofiniteSubset(self.language, tuple(self.excluded_set - other.member_set))
        return CofiniteSubset(self.language, tuple(self.excluded_set & other.excluded_set))

    __or__ = union

    def intersect(self, other: "Subset") -> "Subset":
        require_same_language(self.language, other.language, "intersect")
        if isinstance(other, FiniteSubset):
            return FiniteSubset(self.language, tuple(other.member_set - self.excluded_set))
        return CofiniteSubset(self.language, self.excluded + other.excluded)

    __and__ = intersect

    def __str__(self) -> str:
        if not self.excluded:
            return "L"
        return "L-{" + ",".join(e.name for e in self.excluded) + "}"


Subset = Union[FiniteSubset, CofiniteSubset]


def full_subset(language: Language) -> Subset:
    """The language itself, in the representation that fits it."""
    if isinstance(language, ExplicitLanguage):
        return FiniteSubset(language, language.elements)
    return CofiniteSubset.full(language)


def subsets_equal(a: Subset, b: Subset) -> bool:
    return a == b


# The largest language the exhaustive checks take unless told otherwise.
DEFAULT_BOUND = 6


def all_subsets(language: ExplicitLanguage) -> Iterator[FiniteSubset]:
    """Every subset of a finite language, in binary-counting order."""
    if not isinstance(language, ExplicitLanguage):
        raise UsageError("cannot enumerate the subsets of an enumerated language")
    return (FiniteSubset._of_mask(language, mask) for mask in range(1 << len(language.elements)))
