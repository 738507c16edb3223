"""The golden documents' provenance lines, in the field set they were pinned with.

The golden SVG and v2 table hashes were recorded before the run's record held
the canvas and the state's parameters.  These formatters rewrite only the
``<metadata>`` line of an SVG or the header line of a sample table written
today to the old fields in the old order, so every other byte is still checked
against the pinned hash.
"""

import re

from qchain.sampling import read_provenance

_SVG_KEYS = ("tool", "rng", "seed", "samples", "window", "n_dims", "mode", "color_mode", "state")
_TABLE_KEYS = ("n_dims", "samples", "seed", "window", "mode", "color_mode", "width", "height",
               "rng", "points_sha256", "state")
_TABLE_HEAD = b"# qchain-samples v2, "


def _old_line(line: bytes, sep: str, keys) -> bytes:
    fields = read_provenance(line.decode(), sep)
    return sep.join(f"{key}={fields[key]}" for key in keys).encode()


def old_svg(svg: bytes) -> bytes:
    """``svg`` with its metadata line in the old field set and order."""
    return re.sub(rb"(?<=<metadata>).*(?=</metadata>)",
                  lambda m: _old_line(m.group(), "; ", _SVG_KEYS), svg, count=1)


def old_table(table: bytes) -> bytes:
    """``table`` with its header line in the old field set and order."""
    header, _, rows = table.partition(b"\n")
    assert header.startswith(_TABLE_HEAD), header[:40]
    return _TABLE_HEAD + _old_line(header[len(_TABLE_HEAD):], ", ", _TABLE_KEYS) + b"\n" + rows
