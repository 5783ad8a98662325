"""Small text-formatting helpers shared by the code emitters and reports."""

from itertools import zip_longest


def indent_block(text, levels=1, width=2):
    """Indent every non-empty line of *text* by ``levels * width`` spaces."""
    pad = " " * (levels * width)
    lines = text.splitlines()
    return "\n".join(pad + line if line.strip() else line for line in lines)


def format_table(headers, rows):
    """Render a simple monospace table used by synthesis and benchmark reports.

    *headers* is a sequence of column titles; *rows* a sequence of sequences.
    Every cell is converted with ``str``; a short row is padded with empty
    cells.  Each line is rendered by one format string built from the
    column widths.
    """
    headers = [str(h) for h in headers]
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(map(len, column))
              for column in zip_longest(headers, *str_rows, fillvalue="")]
    template = "| " + " | ".join(f"{{:<{width}}}" for width in widths) + " |"
    blank = [""] * len(widths)
    separator = "|-" + "-|-".join("-" * width for width in widths) + "-|"
    out = [template.format(*headers, *blank[len(headers):]), separator]
    out.extend(template.format(*row, *blank[len(row):]) for row in str_rows)
    return "\n".join(out)
