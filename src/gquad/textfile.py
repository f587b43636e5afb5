"""Strict reader for the package's whitespace-separated integer files.

Quadrangle (``GQ``) and group (``GRP``) files share one layout: a header
line of a magic word and integers, then a fixed number of integer rows of
a fixed length.
"""


def read_int_file(path, magic: str, n_fields: int, count, arity):
    """Header integers and rows of a strict whitespace-separated file.

    Line 1 is ``magic`` and ``n_fields`` integers; then come exactly
    ``count(header)`` rows of ``arity(header)`` integers each, and only
    blank lines after them.  A fault raises ``ValueError`` naming its
    1-based line number.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()

    def ints(no: int, text: str) -> list[int]:
        try:
            return [int(tok) for tok in text.split()]
        except ValueError:
            raise ValueError(f"{path}, line {no}: non-integer entry") from None

    head = lines[0].split() if lines else []
    if len(head) != n_fields + 1 or head[0] != magic:
        raise ValueError(f"{path}, line 1: not a {magic} file")
    header = ints(1, " ".join(head[1:]))
    n, k = count(header), arity(header)
    if n < 0 or k < 0:
        raise ValueError(f"{path}, line 1: negative size")
    rows = []
    for no in range(2, n + 2):
        if no > len(lines):
            raise ValueError(f"{path}, line {no}: file ends after "
                             f"{no - 2} of {n} rows")
        row = ints(no, lines[no - 1])
        if len(row) != k:
            raise ValueError(f"{path}, line {no}: {len(row)} entries, "
                             f"expected {k}")
        rows.append(row)
    for no in range(n + 2, len(lines) + 1):
        if lines[no - 1].strip():
            raise ValueError(f"{path}, line {no}: trailing row after "
                             f"{n} rows")
    return header, rows
