#!/usr/bin/env bash
# Runs the qchain console script that `pip install` put on PATH, as users run
# it, and checks what it wrote: a figure, the package version that
# pyproject.toml reads, a v2 sample table that loads the same with '\r\n' line
# ends, and one record in both outputs (the table's header fields are the SVG
# metadata's, plus points_sha256).  fig2 covers a chain state and fig1 the 2D
# oscillator, the two callers of the evaluation loop.  A rejected expression
# must exit 1 with one error line and write nothing; an output in a missing
# directory must exit 3 with one error line that names it, before anything is
# drawn (10^11 samples would exceed the draw's bound and exit 2); so must an
# output that is a FIFO, which is left a FIFO.  A state whose every sampled
# value is zero must exit 2 with one numeric error line and write nothing.
# Writes into $RUNNER_TEMP, or a new temporary directory when that is unset.
set -euo pipefail
out="${RUNNER_TEMP:-$(mktemp -d)}"
python -c 'import importlib.metadata as m, qchain; assert m.version("qchain") == qchain.__version__, m.version("qchain")'
for fig in fig2 fig1; do
  qchain "$fig" --samples 200 --out "$out/$fig.svg" --dump-samples "$out/$fig.table"
  test -s "$out/$fig.svg"
  python - "$out/$fig.svg" "$out/$fig.table" <<'PY'
import html, re, sys

import qchain

svg, table = (open(path, encoding="utf-8").read() for path in sys.argv[1:])
assert table.startswith("# qchain-samples v2, "), table[:40]
a, b = (qchain.load_samples(text) for text in (table, table.replace("\n", "\r\n")))
assert (a.points.tobytes(), a.values.tobytes(), a.spec, a.state_label, a.state_params) == (
    b.points.tobytes(), b.values.tobytes(), b.spec, b.state_label, b.state_params)
meta = re.search(r"<metadata>(.*)</metadata>", svg).group(1)
svg_fields = qchain.read_provenance(html.unescape(meta), "; ")
header = table.partition("\n")[0].removeprefix("# qchain-samples v2, ")
table_fields = qchain.read_provenance(header, ", ")
del table_fields["points_sha256"]
assert svg_fields == table_fields, (svg_fields, table_fields)
PY
done
code=0
qchain --n 3 --state '(1e308 a[1] + 1e308 a[1]) vac' --samples 200 \
  --out "$out/rejected.svg" 2> "$out/rejected.err" || code=$?
test "$code" -eq 1
test "$(wc -l < "$out/rejected.err")" -eq 1
grep -q '^qchain: error: .*(position 14)$' "$out/rejected.err"
test ! -e "$out/rejected.svg"
code=0
qchain --n 3 --state 'a[1] vac' --samples 100000000000 --out "$out/nodir/x.svg" \
  2> "$out/nodir.err" || code=$?
test "$code" -eq 3
test "$(wc -l < "$out/nodir.err")" -eq 1
grep -qF "qchain: i/o error: [Errno 2] No such file or directory: '$out/nodir/x.svg'" "$out/nodir.err"
test ! -e "$out/nodir"
mkfifo "$out/pipe"
code=0
qchain fig2 --samples 200 --out "$out/pipe" 2> "$out/pipe.err" || code=$?
test "$code" -eq 3
test "$(wc -l < "$out/pipe.err")" -eq 1
grep -qF "qchain: i/o error: '$out/pipe' exists and is not a regular file" "$out/pipe.err"
test -p "$out/pipe"
code=0
qchain --n 5 --state '0 vac' --samples 10 --out "$out/zero.svg" 2> "$out/zero.err" || code=$?
test "$code" -eq 2
test "$(cat "$out/zero.err")" = "qchain: numeric error: every sampled wavefunction value is zero"
test "$(wc -l < "$out/zero.err")" -eq 1
test ! -e "$out/zero.svg"
