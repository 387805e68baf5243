"""The parenthesis rule of the formula syntax: the printer in ``formulas`` and
propositional member names, which load without ``formulas``, share it."""

PRECEDENCE = {"->": 1, "|": 2, "&": 3, "~": 4, "": 5}  # an atom, "", binds tightest


def join(symbol: str, pad: str, *operands: tuple[str, int]) -> str:
    """The text of a ``symbol`` node from its operands' (text, precedence)
    pairs, with the fewest parentheses that reparse to the same tree: ``->``
    associates to the right and ``&``, ``|`` to the left."""
    prec = PRECEDENCE[symbol]
    texts = ["(" + text + ")" if inner < prec or inner == prec and (i == 0) == (symbol == "->")
             else text for i, (text, inner) in enumerate(operands)]
    return "~" + texts[0] if symbol == "~" else texts[0] + pad + symbol + pad + texts[1]
