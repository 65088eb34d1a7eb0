"""Shared randomized-case generators and CSV-load comparisons for the test
suite."""

import numpy as np

from fairnoise.bench import _parse_csv
from fairnoise.core import Dataset, LinearScorer

from _oracles import Population


def random_population(rng, max_cells=16, dim=2, require_all_cells=False):
    """Random discrete population with positive mass in both groups.

    With ``require_all_cells`` every (A, Y) combination carries mass, so
    EO-conditional quantities are well defined.
    """
    if require_all_cells:
        n_extra = int(rng.integers(0, max_cells - 4 + 1))
        a = np.concatenate([[0, 0, 1, 1], rng.integers(0, 2, n_extra)])
        y = np.concatenate([[0, 1, 0, 1], rng.integers(0, 2, n_extra)])
    else:
        n = int(rng.integers(2, max_cells + 1))
        a = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        a[0], a[1] = 0, 1  # both groups present
    feats = rng.normal(0.0, 2.0, (len(a), dim))
    mass = rng.random(len(a)) + 0.05
    mass = mass / mass.sum()
    # push the masses onto exact floats that still sum to 1 within 1e-12
    return Population(feats, a, y, mass / mass.sum())


def random_dataset(rng, n=None, dim=3):
    n = int(rng.integers(8, 60)) if n is None else n
    a = rng.integers(0, 2, n)
    a[0], a[1] = 0, 1
    y = rng.integers(0, 2, n)
    X = rng.normal(0.0, 1.5, (n, dim))
    return Dataset(X, a, y)


def random_scorer(rng, dim):
    return LinearScorer(rng.normal(0.0, 1.0, dim), float(rng.normal(0.0, 0.5)))


FILE_MUTATIONS = ("truncate", "token", "drop_column", "bad_byte")


def mutate_file_text(rng, text, sep, kind):
    """One seeded corruption of a line-oriented file whose fields are split
    by ``sep``: cut it short, replace one field with junk, drop one field
    from every line that has it, or insert a byte that is not UTF-8.
    Returns bytes."""
    if kind == "truncate":
        return text[:int(rng.integers(0, len(text)))].encode()
    if kind == "bad_byte":
        raw = text.encode()
        cut = int(rng.integers(0, len(raw)))
        return raw[:cut] + b"\xff" + raw[cut:]
    lines = [line.split(sep) for line in text.splitlines()]
    if kind == "token":
        row = lines[int(rng.integers(0, len(lines)))]
        row[int(rng.integers(0, len(row)))] = str(rng.choice(
            ["x", "nan", "inf", "-inf", "1e999", ""]))
    elif kind == "drop_column":
        j = int(rng.integers(0, max(len(row) for row in lines)))
        lines = [row[:j] + row[j + 1:] if len(row) > j else row for row in lines]
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return ("\n".join(sep.join(row) for row in lines) + "\n").encode()


def row_parser_load(path, drop_missing=False):
    """``load_csv`` by the row-by-row parser alone: the reference for the
    numpy fast path's results and errors."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _parse_csv(fh, drop_missing)


def csv_load_outcome(load, path, drop_missing=False):
    """What ``load(path, drop_missing)`` gives: ``("raises", type, text)``,
    or ``("ok", ...)`` with the dtype, shape and bytes of each array, so
    that equal outcomes mean equal errors or bit-identical datasets."""
    try:
        data = load(path, drop_missing)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return ("ok",) + tuple((a.dtype, a.shape, a.tobytes()) for a in
                           (data.features, data.sensitive, data.target))
