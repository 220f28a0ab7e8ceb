#!/usr/bin/env python3
"""Bit-blasting: bit-vector terms as lists of Boolean formulas.

Each bit-vector term maps to per-bit formulas (least significant first).
Variables get fresh Boolean names, operations combine operand bits, and
word-level atoms get unit link clauses that the ordinary CNF and
resolution rules then decompose.  The oracle cross-checks everything
against word-level semantics.
"""

import itertools

from certkernel import (
    BOOL, BitBlastState, BitVecSort, BvPayload, Kind, Model, TermStore, eval_term,
    to_sexpr,
)
from certkernel.bitblast import bb_step

width = 2
store = TermStore()
state = BitBlastState()

x = store.var("x", BitVecSort(width))
y = store.var("y", BitVecSort(width))
for var, tag in ((x, "x"), (y, "y")):
    bits = tuple(store.var(f"{tag}{i}", BOOL) for i in range(width))
    bb_step(store, state, BvPayload(var, bits), Kind.VAR)
    print(f"bits({tag}) =", [to_sexpr(store, b) for b in state.bits[var]])

# Addition threads a ripple carry through fresh variables and returns a
# unit clause defining them.
t = store.intern(Kind.BV_ADD, (x, y))
carries = tuple(store.var(f"c{i}", BOOL) for i in range(width))
link = bb_step(store, state, BvPayload(t, carries), Kind.BV_ADD)
print("\nbits(x + y) =", [to_sexpr(store, b) for b in state.bits[t]])
print("carry definitions:", to_sexpr(store, link.enc[0] >> 1))

# The equality atom links to bitwise agreement of both sides.
atom = store.eq(t, x)
eq_link = bb_step(store, state, BvPayload(atom), Kind.EQ)
print("link for (x + y = x):", to_sexpr(store, eq_link.enc[0] >> 1))

# Exhaustive cross-check against word-level semantics: for every operand
# pair, extending the model with the carry definitions makes the mapped
# bits compute modular addition.
print("\nword/bit agreement over all operand pairs:")
mask = (1 << width) - 1
bad = 0
for xv, yv in itertools.product(range(1 << width), repeat=2):
    model = Model()
    for var, value in ((x, xv), (y, yv)):
        for i, bit in enumerate(state.bits[var]):
            model.values[bit] = bool((value >> i) & 1)
    carry = False
    for i, cvar in enumerate(carries):
        model.values[cvar] = carry
        xb = model.values[state.bits[x][i]]
        yb = model.values[state.bits[y][i]]
        carry = (xb and yb) or ((xb != yb) and carry)
    got = sum(1 << i for i, b in enumerate(state.bits[t])
              if eval_term(store, model, b))
    want = (xv + yv) & mask
    marker = "ok" if got == want else "MISMATCH"
    bad += got != want
    print(f"  {xv} + {yv} = {want}  bit-level {got}  {marker}")
print("mismatches:", bad)
