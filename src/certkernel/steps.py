"""Certificate data model: rules, steps, and the linear certificate.

A certificate is a forward-reference-free sequence of steps.  Input clauses
occupy clause ids 0..k-1; the steps then define ids k, k+1, ... in order,
each one produced by exactly one small checker.  The final ``qed`` id names
the step intended to conclude the empty clause; the replay loop itself
accepts any derived empty clause.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from typing import NamedTuple

from .terms import Clause, class_eq


class RuleKind(Enum):
    INPUT = "input"
    RES = "res"
    AND_POS = "and_pos"
    AND_NEG = "and_neg"
    OR_POS = "or_pos"
    OR_NEG = "or_neg"
    IMP_POS = "imp_pos"
    IMP_NEG1 = "imp_neg1"
    IMP_NEG2 = "imp_neg2"
    XOR_POS1 = "xor_pos1"
    XOR_POS2 = "xor_pos2"
    XOR_NEG1 = "xor_neg1"
    XOR_NEG2 = "xor_neg2"
    ITE_POS1 = "ite_pos1"
    ITE_POS2 = "ite_pos2"
    ITE_NEG1 = "ite_neg1"
    ITE_NEG2 = "ite_neg2"
    IFF_POS1 = "iff_pos1"
    IFF_POS2 = "iff_pos2"
    IFF_NEG1 = "iff_neg1"
    IFF_NEG2 = "iff_neg2"
    NOT_NOT = "not_not"
    EUF = "euf"
    LIA = "lia"
    BB_VAR = "bb_var"
    BB_CONST = "bb_const"
    BB_NOT = "bb_not"
    BB_AND = "bb_and"
    BB_OR = "bb_or"
    BB_XOR = "bb_xor"
    BB_ADD = "bb_add"
    BB_EQ = "bb_eq"
    BB_ULT = "bb_ult"
    ASSUME = "assume"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality; it runs in C, Enum.__hash__ in Python.
    __hash__ = object.__hash__


class Step(NamedTuple):
    """One certificate line: the clause slot it defines, its rule, the
    premise clause ids (all strictly smaller), and a rule-specific payload.
    A named tuple: it builds in half the time of a slots dataclass, and
    the main checker unpacks it in one operation."""

    id: int
    rule: RuleKind
    premises: tuple[int, ...]
    payload: object = None


@class_eq
class AssumePayload(NamedTuple):
    """The clause ``lemma`` taken on trust; checking downgrades the verdict to Trusted."""

    lemma: Clause


@class_eq
class Certificate(NamedTuple):
    """Linear refutation: steps in id order, goal = derive the empty clause.
    The steps are a tuple, or an iterator that ``kernel.check`` consumes."""

    steps: Iterable[Step]
    qed: int | None = None
