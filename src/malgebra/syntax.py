"""The parenthesis rule of the formula syntax, and the search that names
propositional members by their smallest formulas.  The printer in
``formulas`` and the member names, which load without ``formulas``, share
the rule; ``models`` imports this module only to name propositional
members, so a table or ray load never compiles the search."""

PRECEDENCE = {"->": 1, "|": 2, "&": 3, "~": 4, "": 5}  # an atom, "", binds tightest


def join(symbol: str, pad: str, *operands: tuple[str, int]) -> str:
    """The text of a ``symbol`` node from its operands' (text, precedence)
    pairs, with the fewest parentheses that reparse to the same tree: ``->``
    associates to the right and ``&``, ``|`` to the left."""
    prec = PRECEDENCE[symbol]
    texts = ["(" + text + ")" if inner < prec or inner == prec and (i == 0) == (symbol == "->")
             else text for i, (text, inner) in enumerate(operands)]
    return "~" + texts[0] if symbol == "~" else texts[0] + pad + symbol + pad + texts[1]


def _formula_names(atoms: tuple[str, ...]) -> dict[int, str]:
    """The compact text of a smallest formula (by node count, ties broken by
    discovery order) for each boolean function over ``atoms``, keyed by its
    truth mask over the valuations.  A text is built only for a new mask;
    ``best`` keeps discovery order, so its tail is the size just found."""
    k = len(atoms)
    full = (1 << (1 << k)) - 1
    columns = [sum(1 << i for i in range(1 << k) if i >> (k - 1 - j) & 1) for j in range(k)]
    best = {column: (atom, PRECEDENCE[""]) for column, atom in zip(columns, atoms)}
    by_size = [[], list(best.items())]

    while len(best) <= full:
        start, size = len(best), len(by_size)  # the size of the formulas found now
        for m, f in by_size[-1]:
            if full ^ m not in best:
                best[full ^ m] = join("~", "", f), PRECEDENCE["~"]
        for left_size in range(1, size - 1):
            for fm, f in by_size[left_size]:
                not_f = full ^ fm
                for gm, g in by_size[size - 1 - left_size]:
                    if fm & gm not in best:
                        best[fm & gm] = join("&", "", f, g), PRECEDENCE["&"]
                    if fm | gm not in best:
                        best[fm | gm] = join("|", "", f, g), PRECEDENCE["|"]
                    if not_f | gm not in best:
                        best[not_f | gm] = join("->", "", f, g), PRECEDENCE["->"]
        by_size.append(list(best.items())[start:])
    return {m: text for m, (text, _) in best.items()}
