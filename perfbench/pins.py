"""Exact results every benchmark pass is checked against.

Class counts, descriptions and template matches are the ones pinned in
``tests/test_acceptance.py``; automorphism orders, ledger values and
Sylow orders were computed with the code the benchmark was written
against and do not depend on the seed (moduli, derivation points and
point labellings change the inputs, not these invariants).
"""

PINS = {
    "census": {
        "classes": {2: 4, 3: 2, 5: 2},
        "descriptions": {
            2: ["C2 x C2 x C2", "C4 x C2", "D8", "D8"],
            3: ["extraspecial 27 of exponent 3",
                "extraspecial 27 of exponent 9"],
            5: ["extraspecial 125 of exponent 5"] * 2,
        },
        "matches": {
            2: {"E": "C2 x C2 x C2", "P": "C4 x C2"},
            3: {"E": "extraspecial 27 of exponent 3",
                "P": "extraspecial 27 of exponent 9"},
            5: {"E": "extraspecial 125 of exponent 5",
                "P": "extraspecial 125 of exponent 5"},
        },
        "report_rows": {
            2: "| 2 | 4 | E; P; D8; D8 |",
            3: "| 3 | 2 | P; E |",
            5: "| 5 | 2 | E; P |",
        },
    },
    "geometry": {
        # (points, lines) of W(3,q), its derivation and Q-(5,q)
        "w3": {3: (40, 40), 5: (156, 156)},
        "derived": {3: (27, 45), 5: (125, 175)},
        "qminus5": {2: (27, 45), 3: (112, 280), 5: (756, 3276)},
        "aut_derived": {3: 51840, 5: 60000},
        "gu513": {"points": 4617, "lines": 33345, "order": (8, 64),
                  "group_order": 4617},
    },
    "matrix-groups": {
        # group -> (order, exponent, centre order, derived order)
        "ledger": {
            4: {"E": (64, 2, 64, 1), "P": (64, 4, 16, 2),
                "S": (64, 4, 16, 2)},
            9: {"E": (729, 3, 9, 9), "P": (729, 9, 9, 9),
                "S": (729, 9, 9, 27)},
        },
        "sylow_exponent": {4: 4, 8: 4},
    },
    "sylow-climb": {
        "aut": {3: 51840, 4: 138240},
        "sylow": {3: 81},
        # (E normal, P normal) in the full automorphism group
        "normal": {4: (True, False)},
    },
}
