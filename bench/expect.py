"""Expected results of the sweep-grid and divergence workloads.

Copied from the frozen counts of the acceptance suite, which were taken
from independent reference computations; the benchmark compares against
these copies so that editing the program's own tests cannot move them.
"""

# loop bound 4, capacity 4, one operation per thread:
# (enqueuers, dequeuers): (complete traces, bound-hit traces, classes).
# Every cell here is swept in each round.  Cells (2, 3) (about 3 s),
# (3, 2) (about 5 s) and (3, 3) (about 124 s and 406 MiB) are left out:
# a run must time every cell many times over to give a steady median,
# and the acceptance suite keeps covering them.
GRID_EXPECT = {
    (0, 1): (0, 1, 0),
    (0, 2): (0, 70, 0),
    (0, 3): (0, 34650, 0),
    (1, 0): (1, 0, 1),
    (1, 1): (70, 5, 2),
    (1, 2): (0, 1318924, 0),
    (1, 3): (0, 1812456071658, 0),
    (2, 0): (20, 0, 2),
    (2, 1): (24224, 500, 12),
    (2, 2): (56593098636, 17071912740, 67),
    (3, 0): (1680, 0, 6),
    (3, 1): (20510004, 210000, 72),
}

# purity outcomes per number of enqueuers (cells with dequeuers only)
PURITY_EXPECT = {
    0: {"PURE": 1},
    1: {"PURE": 3, "TERMINATES": 3},
    2: {"PURE": 7, "TERMINATES": 36},
    3: {"PURE": 14, "TERMINATES": 342},
}

# (enqueuers, dequeuers, mutant): (classes, violations, violation kind).
# The (3, 2) nonatomic_enq cell (about 10 s) is left out like cell (3, 2).
MUTANT_EXPECT = {
    (1, 2, "no_swap_clear"): (6, 6, "vrepet"),
    (2, 1, "skip_slot_zero"): (7, 3, "vord"),
}

# (m, k): states of the clean duplicate-return harness.  Left out like
# cell (3, 2): m=2 k=1 (95,562 states, about 4 s) and m=3 k=1 (4,076,372
# states, about 300 s and 2 GiB).
VREPET_EXPECT = {(2, 0): 920, (3, 0): 23_596}

# k: states of the clean overtake harness.  k=2 (642,546 states, about
# 30 s) is left out like cell (3, 2).
VORD_EXPECT = {0: 40, 1: 3_817}

# mutant harnesses: (harness, k, mutant): (states, counterexample note)
MUTANT_HARNESS_EXPECT = {
    ("vrepet", 0, "no_swap_clear"): (968, "two deq(7) threads finished on one enq(7)"),
    ("vord", 1, "skip_slot_zero"): (
        1_829, "deq(2) finished although enq(1) came first and was never dequeued"),
}
