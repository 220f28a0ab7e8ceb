"""Bit-blasting checkers: maps, link clauses, word/bit agreement."""

import itertools
import random

from certkernel import (
    BOOL, BitBlastState, BitVecSort, BvPayload, CheckContext, Kind, Model,
    RuleKind, TRIVIALLY_TRUE, TermStore, dispatch, eval_term, mk_clause, pos,
)
from certkernel.bitblast import bb_step
from certkernel.oracle import int_to_bits


def _setup(width, names="xy", ctx=None):
    """[store, state, *variables]: the variables ``names`` of the width,
    each mapped by bb_var in ``ctx``'s bit-blast state (a new context's by
    default)."""
    ctx = CheckContext(TermStore()) if ctx is None else ctx
    store, state = ctx.store, ctx.bitblast
    out = [store, state]
    for name in names:
        v = store.var(name, BitVecSort(width))
        aux = tuple(store.var(f"{name}{i}", BOOL) for i in range(width))
        assert bb_step(store, state, BvPayload(v, aux), Kind.VAR) == TRIVIALLY_TRUE
        assert state.bits[v] == aux
        out.append(v)
    return out


def _bit_model(store, state, word_vals):
    """Model assigning bit variables from word values, carries from their
    ripple definitions (the definition-respecting extension)."""
    model = Model()
    for var, value in word_vals.items():
        for i, bit in enumerate(state.bits[var]):
            model.values[bit] = bool((value >> i) & 1)
    return model


def _eval_bits(store, model, bits):
    memo = {}
    return sum(1 << i for i, b in enumerate(bits)
               if eval_term(store, model, b, memo))


def test_bb_var_rejections():
    store, state, x, y = _setup(2)
    # remap
    aux2 = tuple(store.var(f"z{i}", BOOL) for i in range(2))
    assert bb_step(store, state, BvPayload(x, aux2), Kind.VAR) == TRIVIALLY_TRUE
    assert state.bits[x] != aux2
    # width mismatch
    w = store.var("w", BitVecSort(2))
    aux3 = tuple(store.var(f"w{i}", BOOL) for i in range(3))
    bb_step(store, state, BvPayload(w, aux3), Kind.VAR)
    assert w not in state.bits
    # non-fresh aux (reuses x's bits)
    bb_step(store, state, BvPayload(w, state.bits[x]), Kind.VAR)
    assert w not in state.bits


def test_bb_const_lsb_first():
    store = TermStore()
    state = BitBlastState()
    c = store.bv_const(int_to_bits(5, 3))  # #b101
    bb_step(store, state, BvPayload(c), Kind.BV_CONST)
    assert state.bits[c] == (store.true_id, store.false_id, store.true_id)
    c0 = store.bv_const(int_to_bits(0, 2))
    bb_step(store, state, BvPayload(c0), Kind.BV_CONST)
    assert state.bits[c0] == (store.false_id, store.false_id)
    # remap rejected: entries are immutable once set
    before = state.bits[c]
    bb_step(store, state, BvPayload(c), Kind.BV_CONST)
    assert state.bits[c] is before


def test_bb_bitwise_shapes():
    store, state, x, y = _setup(2)
    t = store.intern(Kind.BV_AND, (x, y))
    bb_step(store, state, BvPayload(t), Kind.BV_AND)
    x0, x1 = state.bits[x]
    y0, y1 = state.bits[y]
    assert state.bits[t] == (store.intern(Kind.AND, [x0, y0]), store.intern(Kind.AND, [x1, y1]))
    tn = store.intern(Kind.BV_NOT, (x,))
    bb_step(store, state, BvPayload(tn), Kind.BV_NOT)
    assert state.bits[tn] == (store.intern(Kind.NOT, (x0,)), store.intern(Kind.NOT, (x1,)))
    # unmapped operand
    z = store.var("z", BitVecSort(2))
    tz = store.intern(Kind.BV_OR, (z, x))
    bb_step(store, state, BvPayload(tz), Kind.BV_OR)
    assert tz not in state.bits


def test_bitwise_rules_map_only_their_own_operation():
    rules = {RuleKind.BB_NOT: Kind.BV_NOT, RuleKind.BB_AND: Kind.BV_AND,
             RuleKind.BB_OR: Kind.BV_OR, RuleKind.BB_XOR: Kind.BV_XOR}
    for rule, kind in rules.items():
        for target_kind in rules.values():
            ctx = CheckContext(TermStore())
            store, state, x, y = _setup(2, ctx=ctx)
            t = store.intern(target_kind, (x,) if target_kind is Kind.BV_NOT else (x, y))
            out = dispatch(ctx, rule, [], BvPayload(t))
            assert out == TRIVIALLY_TRUE
            assert (t in state.bits) == (target_kind is kind), (rule, target_kind)


def test_bitwise_agrees_with_word_semantics_exhaustively():
    for op_kind, word_op in (
        (Kind.BV_AND, lambda a, b: a & b),
        (Kind.BV_OR, lambda a, b: a | b),
        (Kind.BV_XOR, lambda a, b: a ^ b),
    ):
        store, state, x, y = _setup(2)
        t = store.intern(op_kind, (x, y))
        bb_step(store, state, BvPayload(t), op_kind)
        for xv, yv in itertools.product(range(4), repeat=2):
            model = _bit_model(store, state, {x: xv, y: yv})
            assert _eval_bits(store, model, state.bits[t]) == word_op(xv, yv)
    store, state, x, y = _setup(2)
    t = store.intern(Kind.BV_NOT, (x,))
    bb_step(store, state, BvPayload(t), Kind.BV_NOT)
    for xv in range(4):
        model = _bit_model(store, state, {x: xv})
        assert _eval_bits(store, model, state.bits[t]) == (~xv) & 3


def _install_add(store, state, x, y, width, tag="c"):
    t = store.intern(Kind.BV_ADD, (x, y))
    carries = tuple(store.var(f"{tag}{i}", BOOL) for i in range(width))
    link = bb_step(store, state, BvPayload(t, carries), Kind.BV_ADD)
    assert link != TRIVIALLY_TRUE and len(link) == 1
    return t, carries, link


def _extend_with_carries(store, model, state, x, y, carries):
    memo = {}
    xv = [bool(eval_term(store, model, b, memo)) for b in state.bits[x]]
    yv = [bool(eval_term(store, model, b, memo)) for b in state.bits[y]]
    c = False
    for i, var in enumerate(carries):
        model.values[var] = c
        c = (xv[i] and yv[i]) or ((xv[i] != yv[i]) and c)
    return model


def test_bb_add_matches_modular_addition():
    for width in (1, 2, 4):
        store, state, x, y = _setup(width)
        t, carries, link = _install_add(store, state, x, y, width)
        for xv, yv in itertools.product(range(1 << width), repeat=2):
            model = _bit_model(store, state, {x: xv, y: yv})
            _extend_with_carries(store, model, state, x, y, carries)
            # the carry-definition link clause holds in the extension
            assert eval_term(store, model, link.enc[0] >> 1) is True
            assert _eval_bits(store, model, state.bits[t]) \
                == (xv + yv) % (1 << width)


def test_bb_add_additive_identity():
    store = TermStore()
    state = BitBlastState()
    x = store.var("x", BitVecSort(2))
    aux = tuple(store.var(f"x{i}", BOOL) for i in range(2))
    bb_step(store, state, BvPayload(x, aux), Kind.VAR)
    zero = store.bv_const(int_to_bits(0, 2))
    bb_step(store, state, BvPayload(zero), Kind.BV_CONST)
    t, carries, link = _install_add(store, state, x, zero, 2)
    for xv in range(4):
        model = _bit_model(store, state, {x: xv})
        _extend_with_carries(store, model, state, x, zero, carries)
        assert _eval_bits(store, model, state.bits[t]) == xv


def test_bb_add_rejects_stale_aux():
    store, state, x, y = _setup(2)
    t = store.intern(Kind.BV_ADD, (x, y))
    # reusing x's bit names is not fresh
    assert bb_step(store, state, BvPayload(t, state.bits[x]), Kind.BV_ADD) == TRIVIALLY_TRUE
    assert t not in state.bits


def test_bb_eq_link_shape_and_validity():
    store, state, x, y = _setup(1)
    atom = store.eq(x, y)
    link = bb_step(store, state, BvPayload(atom), Kind.EQ)
    x0 = state.bits[x][0]
    y0 = state.bits[y][0]
    agree = store.intern(Kind.IFF, (x0, y0))
    assert link == mk_clause(store, [pos(store.intern(Kind.IFF, (atom, agree)))])
    # same term on both sides folds to iff(atom, x0 <-> x0)
    refl = store.eq(x, x)
    link2 = bb_step(store, state, BvPayload(refl), Kind.EQ)
    assert link2 != TRIVIALLY_TRUE


def test_bb_eq_random_links_valid_under_bv_semantics():
    rng = random.Random(9)
    store, state, x, y = _setup(3)
    atom = store.eq(x, y)
    link = bb_step(store, state, BvPayload(atom), Kind.EQ)
    link_term = link.enc[0] >> 1
    for xv, yv in itertools.product(range(8), repeat=2):
        model = _bit_model(store, state, {x: xv, y: yv})
        model.values[x] = int_to_bits(xv, 3)
        model.values[y] = int_to_bits(yv, 3)
        assert eval_term(store, model, link_term) is True


def test_bb_ult_width1_shape():
    store, state, x, y = _setup(1)
    atom = store.intern(Kind.BV_ULT, (x, y))
    link = bb_step(store, state, BvPayload(atom), Kind.BV_ULT)
    x0 = state.bits[x][0]
    y0 = state.bits[y][0]
    lower = store.intern(Kind.AND, [store.intern(Kind.NOT, (x0,)), y0])
    expected = store.intern(Kind.IFF, (atom, lower))
    assert link == mk_clause(store, [pos(expected)])


def test_bb_ult_agrees_with_unsigned_order():
    store, state, x, y = _setup(2)
    atom = store.intern(Kind.BV_ULT, (x, y))
    link = bb_step(store, state, BvPayload(atom), Kind.BV_ULT)
    # extract the comparison formula and evaluate it over all operand pairs
    link_term = link.enc[0] >> 1
    formula = store.args(link_term)[1]
    for xv, yv in itertools.product(range(4), repeat=2):
        model = _bit_model(store, state, {x: xv, y: yv})
        assert eval_term(store, model, formula) == (xv < yv)
    # irreflexivity: x < x evaluates false for every x
    refl = store.intern(Kind.BV_ULT, (x, x))
    link2 = bb_step(store, state, BvPayload(refl), Kind.BV_ULT)
    formula2 = store.args(link2.enc[0] >> 1)[1]
    for xv in range(4):
        model = _bit_model(store, state, {x: xv})
        assert eval_term(store, model, formula2) is False


def test_aux_freshness_registry_under_fuzz():
    rng = random.Random(31)
    for _ in range(100):
        store = TermStore()
        state = BitBlastState()
        width = rng.choice((1, 2, 3))
        claimed = set()
        for name in "xyz":
            v = store.var(name, BitVecSort(width))
            aux = tuple(store.var(f"{name}{i}", BOOL) for i in range(width))
            if rng.random() < 0.4 and claimed:
                aux = (rng.choice(sorted(claimed)),) + aux[1:]
            before = dict(state.bits)
            bb_step(store, state, BvPayload(v, aux), Kind.VAR)
            if any(a in claimed for a in aux) or len(set(aux)) != len(aux):
                assert v not in state.bits, "non-fresh aux accepted"
            if v in state.bits:
                claimed.update(aux)
            else:
                assert state.bits == before, "rejection must not mutate"


BB_TARGET_KINDS = {
    RuleKind.BB_VAR: Kind.VAR, RuleKind.BB_CONST: Kind.BV_CONST,
    RuleKind.BB_NOT: Kind.BV_NOT, RuleKind.BB_AND: Kind.BV_AND,
    RuleKind.BB_OR: Kind.BV_OR, RuleKind.BB_XOR: Kind.BV_XOR,
    RuleKind.BB_ADD: Kind.BV_ADD, RuleKind.BB_EQ: Kind.EQ,
    RuleKind.BB_ULT: Kind.BV_ULT,
}


def _target_of_kind(store, kind, a, b):
    if kind is Kind.VAR:
        return store.var("w", BitVecSort(2))
    if kind is Kind.BV_CONST:
        return store.bv_const(int_to_bits(1, 2))
    return store.intern(kind, (a,) if kind is Kind.BV_NOT else (a, b))


def test_every_bb_rule_checks_target_kind_and_operands():
    """Through dispatch, each of the nine bb_* rules takes only a target of
    its own kind, and only once its operands are mapped; a rejection yields
    [true] and leaves the bit-blast state as it was."""
    for rule, kind in BB_TARGET_KINDS.items():
        for target_kind in BB_TARGET_KINDS.values():
            ctx = CheckContext(TermStore())
            store, state, x, y = _setup(2, ctx=ctx)
            t = _target_of_kind(store, target_kind, x, y)
            aux = (store.var("a0", BOOL), store.var("a1", BOOL))
            before = (dict(state.bits), set(state.used_vars))
            out = dispatch(ctx, rule, [], BvPayload(t, aux))
            if target_kind is kind:
                assert t in state.bits or out != TRIVIALLY_TRUE, rule
            else:
                assert out == TRIVIALLY_TRUE, (rule, target_kind)
                assert (state.bits, state.used_vars) == before, (rule, target_kind)
        if kind in (Kind.VAR, Kind.BV_CONST):
            continue  # no operands
        ctx = CheckContext(TermStore())
        store, state, x, y = _setup(2, ctx=ctx)
        unmapped = store.var("z", BitVecSort(2))
        operands = ((unmapped, y),) if kind is Kind.BV_NOT else ((unmapped, y), (x, unmapped))
        for a, b in operands:
            t = _target_of_kind(store, kind, a, b)
            aux = (store.var("a0", BOOL), store.var("a1", BOOL))
            out = dispatch(ctx, rule, [], BvPayload(t, aux))
            assert out == TRIVIALLY_TRUE and t not in state.bits, (rule, a, b)
