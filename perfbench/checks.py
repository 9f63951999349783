"""Output checkers and the percentile rule of the benchmark.

The checkers are written independently of the program: they re-read
its CSV output, re-check every functional dependency and recompute the
repair distance from the paper's definitions (Section 2.3):

- an S-repair is a consistent subset of the input; its distance is the
  total weight of the deleted tuples;
- a U-repair is a consistent update of the input (same ids, same
  weights); its distance is the weighted count of changed cells.
"""

import csv
import io
import math
import statistics


def parse_fds(text):
    """'A B -> C; C -> A' -> [(('A', 'B'), ('C',)), (('C',), ('A',))]."""
    fds = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        lhs, rhs = part.replace("→", "->").split("->")
        side = lambda s: tuple(a for a in s.replace(",", " ").split() if a != "∅")
        fds.append((side(lhs), side(rhs)))
    return fds


class Table:
    """A parsed CSV table: attribute names and id -> (weight, values)."""

    def __init__(self, attrs, rows):
        self.attrs = attrs
        self.rows = rows

    def index(self, names):
        return [self.attrs.index(a) for a in names]


def read_table(text):
    """Parse CSV text with optional #id and #weight columns, as the
    program writes it. Missing ids count 1..n, missing weights are 1."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    id_col = header.index("#id") if "#id" in header else None
    w_col = header.index("#weight") if "#weight" in header else None
    data_cols = [i for i, h in enumerate(header) if i not in (id_col, w_col)]
    attrs = [header[i] for i in data_cols]
    rows = {}
    for n, rec in enumerate(reader, start=1):
        if not rec:
            continue
        i = int(rec[id_col]) if id_col is not None else n
        w = float(rec[w_col]) if w_col is not None else 1.0
        rows[i] = (w, tuple(rec[c] for c in data_cols))
    return Table(attrs, rows)


def read_table_file(path):
    with open(path, newline="") as f:
        return read_table(f.read())


def violation(table, fds):
    """A description of the first FD violation, or None."""
    for lhs, rhs in fds:
        li, ri = table.index(lhs), table.index(rhs)
        seen = {}
        for i, (_, t) in table.rows.items():
            key = tuple(t[k] for k in li)
            val = tuple(t[k] for k in ri)
            j, other = seen.setdefault(key, (i, val))
            if other != val:
                return "tuples %d and %d violate %s -> %s" % (
                    j, i, " ".join(lhs), " ".join(rhs))
    return None


def check_s_repair(fds, inp, out, distance):
    """Errors (empty when correct) of an S-repair [out] of [inp] that
    reports [distance]."""
    if out.attrs != inp.attrs:
        return ["schema %r differs from the input's %r" % (out.attrs, inp.attrs)]
    errors = []
    for i, row in out.rows.items():
        if inp.rows.get(i) != row:
            errors.append("tuple %d is not an input tuple" % i)
            break
    v = violation(out, fds)
    if v:
        errors.append(v)
    deleted = sum(w for i, (w, _) in inp.rows.items() if i not in out.rows)
    if not same_number(distance, deleted):
        errors.append("distance %r, recomputed %r" % (distance, deleted))
    return errors


def check_u_repair(fds, inp, out, distance):
    """Errors (empty when correct) of a U-repair [out] of [inp] that
    reports [distance]."""
    if out.attrs != inp.attrs:
        return ["schema %r differs from the input's %r" % (out.attrs, inp.attrs)]
    if out.rows.keys() != inp.rows.keys():
        return ["the ids differ from the input's"]
    errors = []
    changed = 0.0
    for i, (w, t) in inp.rows.items():
        w2, t2 = out.rows[i]
        if w2 != w:
            errors.append("tuple %d changed weight" % i)
            break
        changed += w * sum(1 for a, b in zip(t, t2) if a != b)
    v = violation(out, fds)
    if v:
        errors.append(v)
    if not same_number(distance, changed):
        errors.append("distance %r, recomputed %r" % (distance, changed))
    return errors


def same_number(reported, recomputed):
    """[reported] is a float or the program's '%g' rendering of one."""
    if isinstance(reported, str):
        return reported == "%g" % recomputed
    return math.isclose(reported, recomputed, rel_tol=1e-9, abs_tol=1e-9)


# ---------- percentiles ----------

TAIL_LEVELS = (99.9, 99.0, 90.0)


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so that 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p / 100.0 * n, 6)))


def percentile(values, p):
    """Nearest-rank percentile of raw samples."""
    xs = sorted(values)
    return xs[rank(len(xs), p) - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail_level(n):
    """The highest percentile with at least ten samples beyond it, or
    None when there are too few samples for any."""
    for p in TAIL_LEVELS:
        if beyond(n, p) >= 10:
            return p
    return None


def summary(values):
    """(n, median, tail percentile level, tail value) of raw samples."""
    n = len(values)
    p = tail_level(n)
    return (n, statistics.median(values), p,
            percentile(values, p) if p is not None else None)
