"""SQLite cross-run index over the ``.repro_runs`` artifacts.

The run directories written by :mod:`repro.harness.rundir` are the
source of truth; this index is a *derived*, queryable view of them:

* ``runs``  -- one row per run (command, timestamps, git rev, model
  epoch, scales, status, check counts, engine-stats rollup).
* ``cells`` -- one row per ``cells.jsonl`` line (cell id, machine,
  job, simulated seconds, per-run stats JSON).
* ``rows``  -- one row per reproduced table row in ``report.json``
  (experiment, label, paper vs simulated), which is what
  ``repro runs diff`` compares.

Because every insert is computed from the artifact files alone --
never from in-process state -- re-indexing is lossless: ``repro runs
reindex`` drops the tables and rebuilds them from the run directories,
and the result is row-identical to the incrementally maintained index
(a property the test suite asserts via :func:`dump_rows`).

The database lives at ``<runs root>/index.sqlite``.  A missing
database is rebuilt on first use, so deleting it (or cloning a repo
with run artifacts but no index) is always safe.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
from typing import Optional

from repro.harness.rundir import runs_root

#: bumped on any index schema change; a mismatch triggers a rebuild
INDEX_SCHEMA = 1

DB_NAME = "index.sqlite"

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
CREATE TABLE IF NOT EXISTS runs (
    run_id            TEXT PRIMARY KEY,
    command           TEXT,
    started           TEXT,
    finished          TEXT,
    duration_s        REAL,
    status            TEXT,
    exit_status       INTEGER,
    git_rev           TEXT,
    model_epoch       TEXT,
    threat_scale      REAL,
    terrain_scale     REAL,
    jobs              INTEGER,
    flags_json        TEXT,
    n_cells           INTEGER,
    n_experiments     INTEGER,
    checks_passed     INTEGER,
    checks_total      INTEGER,
    engine_stats_json TEXT
);
CREATE TABLE IF NOT EXISTS cells (
    run_id      TEXT,
    seq         INTEGER,
    cell        TEXT,
    kind        TEXT,
    machine     TEXT,
    job         TEXT,
    seconds     REAL,
    seed_offset INTEGER,
    source      TEXT,
    stats_json  TEXT,
    PRIMARY KEY (run_id, seq)
);
CREATE INDEX IF NOT EXISTS idx_cells_cell ON cells(cell);
CREATE TABLE IF NOT EXISTS rows (
    run_id        TEXT,
    experiment_id TEXT,
    label         TEXT,
    paper         REAL,
    simulated     REAL,
    unit          TEXT,
    PRIMARY KEY (run_id, experiment_id, label)
);
"""


def db_path(root: Optional[str] = None) -> str:
    return os.path.join(root or runs_root(), DB_NAME)


def connect(root: Optional[str] = None) -> sqlite3.Connection:
    """Open (creating if needed) the index for a runs root."""
    root = root or runs_root()
    os.makedirs(root, exist_ok=True)
    conn = sqlite3.connect(db_path(root))
    conn.executescript(_TABLES)
    row = conn.execute(
        "SELECT value FROM meta WHERE key = 'schema'").fetchone()
    if row is None:
        conn.execute("INSERT INTO meta (key, value) VALUES (?, ?)",
                     ("schema", str(INDEX_SCHEMA)))
        conn.commit()
    elif row[0] != str(INDEX_SCHEMA):
        # stale schema: wipe and let callers rebuild from artifacts
        conn.executescript(
            "DELETE FROM runs; DELETE FROM cells; DELETE FROM rows;")
        conn.execute("UPDATE meta SET value = ? WHERE key = 'schema'",
                     (str(INDEX_SCHEMA),))
        conn.commit()
        _index_all(conn, root)
    return conn


# ----------------------------------------------------------------------
# indexing (artifacts -> rows)
# ----------------------------------------------------------------------

def _load_json(path: str) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def index_run(conn: sqlite3.Connection, run_dir: str) -> bool:
    """(Re-)index one run directory from its artifact files.

    Everything inserted is read from ``manifest.json`` /
    ``cells.jsonl`` / ``report.json`` -- never from live state -- so
    incremental indexing and :func:`reindex` produce identical rows.
    Returns ``False`` (and indexes nothing) when the manifest is
    missing or unreadable.
    """
    manifest = _load_json(os.path.join(run_dir, "manifest.json"))
    if not isinstance(manifest, dict) or "run_id" not in manifest:
        return False
    run_id = manifest["run_id"]
    flags = manifest.get("flags") or {}
    report = _load_json(os.path.join(run_dir, "report.json"))
    summary = manifest.get("report") or {}

    conn.execute("DELETE FROM runs WHERE run_id = ?", (run_id,))
    conn.execute("DELETE FROM cells WHERE run_id = ?", (run_id,))
    conn.execute("DELETE FROM rows WHERE run_id = ?", (run_id,))
    conn.execute(
        "INSERT INTO runs VALUES "
        "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (run_id,
         manifest.get("command"),
         manifest.get("started"),
         manifest.get("finished"),
         manifest.get("duration_s"),
         manifest.get("status"),
         manifest.get("exit_status"),
         manifest.get("git_rev"),
         manifest.get("model_epoch"),
         flags.get("threat_scale"),
         flags.get("terrain_scale"),
         flags.get("jobs"),
         json.dumps(flags, sort_keys=True),
         manifest.get("n_cells", 0),
         summary.get("experiments"),
         summary.get("checks_passed"),
         summary.get("checks_total"),
         json.dumps(manifest.get("engine_stats") or {},
                    sort_keys=True)))

    cells_path = os.path.join(run_dir, "cells.jsonl")
    if os.path.exists(cells_path):
        with open(cells_path, encoding="utf-8") as fh:
            for n, raw in enumerate(fh):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    line = json.loads(raw)
                except ValueError:
                    continue  # torn final line of a crashed run
                conn.execute(
                    "INSERT INTO cells VALUES "
                    "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (run_id, line.get("seq", n), line.get("cell"),
                     line.get("kind"), line.get("machine"),
                     line.get("job"), line.get("seconds"),
                     line.get("seed_offset", 0), line.get("source"),
                     json.dumps(line.get("stats") or {},
                                sort_keys=True)))

    if isinstance(report, dict):
        for result in report.get("results") or ():
            for row in result.get("rows") or ():
                conn.execute(
                    "INSERT OR REPLACE INTO rows VALUES "
                    "(?, ?, ?, ?, ?, ?)",
                    (run_id, result.get("experiment_id"),
                     row.get("label"), row.get("paper"),
                     row.get("simulated"), row.get("unit")))
    return True


def index_run_dir(run_dir: str, root: Optional[str] = None) -> None:
    """Index one finished run into the live database (commit + close)."""
    conn = connect(root)
    try:
        index_run(conn, run_dir)
        conn.commit()
    finally:
        conn.close()


def run_dirs(root: Optional[str] = None) -> list[str]:
    """Every run directory under the root, sorted by run id."""
    root = root or runs_root()
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    return [os.path.join(root, n) for n in names
            if os.path.isfile(os.path.join(root, n, "manifest.json"))]


def _index_all(conn: sqlite3.Connection, root: str) -> int:
    n = 0
    for run_dir in run_dirs(root):
        n += index_run(conn, run_dir)
    conn.commit()
    return n


def reindex(root: Optional[str] = None) -> tuple[int, int]:
    """Drop and rebuild the whole index from the run artifacts.

    Returns ``(runs indexed, cell rows)``.  Lossless by construction:
    the rebuild runs the same :func:`index_run` over the same files
    the live index was maintained from.
    """
    root = root or runs_root()
    conn = connect(root)
    try:
        conn.executescript(
            "DELETE FROM runs; DELETE FROM cells; DELETE FROM rows;")
        n = _index_all(conn, root)
        cells = conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]
        return n, cells
    finally:
        conn.close()


def dump_rows(conn: sqlite3.Connection) -> dict[str, list[tuple]]:
    """Deterministic full dump of every indexed table.

    The re-indexing losslessness contract is stated over this dump:
    ``dump_rows(live) == dump_rows(rebuilt)``.
    """
    out: dict[str, list[tuple]] = {}
    for table, order in (("runs", "run_id"),
                         ("cells", "run_id, seq"),
                         ("rows", "run_id, experiment_id, label")):
        out[table] = list(conn.execute(
            f"SELECT * FROM {table} ORDER BY {order}"))
    return out


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------

def resolve_run(conn: sqlite3.Connection, prefix: str) -> str:
    """A unique run id from a prefix; raises KeyError otherwise."""
    hits = [r[0] for r in conn.execute(
        "SELECT run_id FROM runs WHERE run_id LIKE ? "
        "ORDER BY run_id", (prefix + "%",))]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise KeyError(f"no indexed run matches {prefix!r} "
                       f"(try `repro runs reindex`)")
    raise KeyError(f"{prefix!r} is ambiguous: matches "
                   + ", ".join(hits))


def _since_started(conn: sqlite3.Connection, token: str) -> str:
    """Resolve ``--since`` to a ``started`` lower bound.

    The token may be a run-id prefix, a git-rev prefix (the earliest
    run at that rev anchors the window), or an ISO timestamp prefix
    used verbatim.
    """
    row = conn.execute(
        "SELECT MIN(started) FROM runs "
        "WHERE run_id LIKE ? OR git_rev LIKE ?",
        (token + "%", token + "%")).fetchone()
    if row and row[0]:
        return row[0]
    return token


def list_runs(conn: sqlite3.Connection,
              limit: Optional[int] = None) -> list[dict]:
    """Newest-first run summaries for ``repro runs list``."""
    sql = ("SELECT run_id, command, started, duration_s, status, "
           "n_cells, checks_passed, checks_total FROM runs "
           "ORDER BY started DESC, run_id DESC")
    if limit is not None:
        sql += f" LIMIT {int(limit)}"
    cols = ("run_id", "command", "started", "duration_s", "status",
            "n_cells", "checks_passed", "checks_total")
    return [dict(zip(cols, r)) for r in conn.execute(sql)]


def query_cells(conn: sqlite3.Connection, cell: Optional[str] = None,
                since: Optional[str] = None,
                limit: Optional[int] = None) -> list[dict]:
    """Cell trajectory across runs, oldest first.

    ``cell`` matches the cell id exactly, or as a substring when no
    exact match exists (so ``--cell exemplar16`` finds every Exemplar
    cell without knowing the full slug).
    """
    where, params = [], []
    if cell:
        exact = conn.execute(
            "SELECT 1 FROM cells WHERE cell = ? LIMIT 1",
            (cell,)).fetchone()
        if exact:
            where.append("c.cell = ?")
            params.append(cell)
        else:
            where.append("c.cell LIKE ?")
            params.append(f"%{cell}%")
    if since:
        where.append("r.started >= ?")
        params.append(_since_started(conn, since))
    sql = ("SELECT r.run_id, r.started, r.git_rev, r.command, c.cell, "
           "c.kind, c.seconds, c.seed_offset, c.stats_json "
           "FROM cells c JOIN runs r ON r.run_id = c.run_id")
    if where:
        sql += " WHERE " + " AND ".join(where)
    sql += " ORDER BY r.started, r.run_id, c.seq"
    if limit is not None:
        sql += f" LIMIT {int(limit)}"
    cols = ("run_id", "started", "git_rev", "command", "cell", "kind",
            "seconds", "seed_offset", "stats")
    out = []
    for r in conn.execute(sql, params):
        rec = dict(zip(cols, r))
        rec["stats"] = json.loads(rec["stats"] or "{}")
        out.append(rec)
    return out


def diff_runs(conn: sqlite3.Connection, run_a: str, run_b: str,
              rel_tol: float = 1e-9) -> dict:
    """Row-level comparison of two runs' reproduced tables."""
    def rows_of(run_id: str) -> dict[tuple[str, str], tuple]:
        return {(eid, label): (paper, simulated, unit)
                for eid, label, paper, simulated, unit in conn.execute(
                    "SELECT experiment_id, label, paper, simulated, "
                    "unit FROM rows WHERE run_id = ?", (run_id,))}

    a, b = rows_of(run_a), rows_of(run_b)
    changed = []
    for key in sorted(a.keys() & b.keys()):
        sim_a, sim_b = a[key][1], b[key][1]
        if sim_a is None or sim_b is None:
            if sim_a != sim_b:
                changed.append((key, sim_a, sim_b))
            continue
        denom = max(abs(sim_a), abs(sim_b), 1e-300)
        if abs(sim_a - sim_b) / denom > rel_tol:
            changed.append((key, sim_a, sim_b))
    return {
        "run_a": run_a,
        "run_b": run_b,
        "common": len(a.keys() & b.keys()),
        "only_a": sorted(a.keys() - b.keys()),
        "only_b": sorted(b.keys() - a.keys()),
        "changed": changed,
    }


# ----------------------------------------------------------------------
# CLI (``repro runs ...``)
# ----------------------------------------------------------------------

def _ensure_indexed(root: Optional[str] = None) -> None:
    """Build the index from artifacts if the database is missing."""
    root = root or runs_root()
    if not os.path.exists(db_path(root)) and run_dirs(root):
        reindex(root)


def cmd_list(limit: Optional[int] = None) -> int:
    _ensure_indexed()
    conn = connect()
    try:
        runs = list_runs(conn, limit=limit)
    finally:
        conn.close()
    if not runs:
        print(f"no runs indexed under {os.path.abspath(runs_root())} "
              f"(run `repro all`, or `repro runs reindex`)")
        return 0
    print(f"{'run_id':<34} {'command':<8} {'started':<20} "
          f"{'dur (s)':>8} {'status':<7} {'cells':>5} {'checks':>7}")
    print("-" * 96)
    for r in runs:
        dur = ("-" if r["duration_s"] is None
               else f"{r['duration_s']:.1f}")
        checks = ("-" if r["checks_total"] is None
                  else f"{r['checks_passed']}/{r['checks_total']}")
        print(f"{r['run_id']:<34} {r['command']:<8} "
              f"{r['started'] or '-':<20} {dur:>8} "
              f"{r['status'] or '-':<7} {r['n_cells']:>5d} "
              f"{checks:>7}")
    return 0


def cmd_show(prefix: str) -> int:
    _ensure_indexed()
    conn = connect()
    try:
        try:
            run_id = resolve_run(conn, prefix)
        except KeyError as exc:
            print(f"runs show: {exc.args[0]}", file=sys.stderr)
            return 2
        cols = [d[0] for d in conn.execute(
            "SELECT * FROM runs LIMIT 0").description]
        row = conn.execute("SELECT * FROM runs WHERE run_id = ?",
                           (run_id,)).fetchone()
        run = dict(zip(cols, row))
        cells = conn.execute(
            "SELECT cell, kind, seconds FROM cells WHERE run_id = ? "
            "ORDER BY seq", (run_id,)).fetchall()
    finally:
        conn.close()

    for field in ("run_id", "command", "status", "exit_status",
                  "started", "finished", "duration_s", "git_rev",
                  "model_epoch", "threat_scale", "terrain_scale",
                  "jobs"):
        print(f"{field + ':':<15}{run[field]}")
    if run["checks_total"] is not None:
        print(f"{'checks:':<15}{run['checks_passed']}/"
              f"{run['checks_total']} passed "
              f"({run['n_experiments']} experiments)")
    stats = json.loads(run["engine_stats_json"] or "{}")
    if stats.get("sim_runs"):
        print(f"{'engine:':<15}{stats['sim_runs']:.0f} sims, "
              f"{stats['simulated_seconds']:.2f} simulated-s, "
              f"regions c/d {stats['cohort_regions']:.0f}/"
              f"{stats['des_regions']:.0f}, "
              f"closed {stats['closed_form_regions']:.0f}")
    if cells:
        print(f"\n{len(cells)} cells (artifact: "
              f"{os.path.join(runs_root(), run_id, 'cells.jsonl')}):")
        for cell, kind, seconds in cells[:20]:
            sec = "-" if seconds is None else f"{seconds:.4g}"
            print(f"  {cell:<58} {kind or '-':<13} {sec:>10}")
        if len(cells) > 20:
            print(f"  ... {len(cells) - 20} more "
                  f"(use `repro runs query`)")
    return 0


def cmd_diff(prefix_a: str, prefix_b: str) -> int:
    _ensure_indexed()
    conn = connect()
    try:
        try:
            run_a = resolve_run(conn, prefix_a)
            run_b = resolve_run(conn, prefix_b)
        except KeyError as exc:
            print(f"runs diff: {exc.args[0]}", file=sys.stderr)
            return 2
        diff = diff_runs(conn, run_a, run_b)
    finally:
        conn.close()
    print(f"diff {run_a} -> {run_b}: {diff['common']} common rows, "
          f"{len(diff['changed'])} changed, "
          f"{len(diff['only_a'])} removed, {len(diff['only_b'])} added")
    for (eid, label), sim_a, sim_b in diff["changed"]:
        if sim_a not in (None, 0):
            delta = f"{(sim_b / sim_a - 1.0) * 100.0:+.2f}%"
        else:
            delta = "n/a"
        print(f"  {eid} / {label}: {sim_a!r} -> {sim_b!r} ({delta})")
    # one-sided rows dominate when comparing runs of different
    # commands (an `all` run vs a `bench` run); cap the listing
    cap = 20
    for side, word in (("only_a", "removed"), ("only_b", "added")):
        rows = diff[side]
        for eid, label in rows[:cap]:
            print(f"  {word}: {eid} / {label}")
        if len(rows) > cap:
            print(f"  ... and {len(rows) - cap} more {word}")
    identical = not (diff["changed"] or diff["only_a"]
                     or diff["only_b"])
    return 0 if identical else 1


def cmd_query(cell: Optional[str], since: Optional[str],
              limit: Optional[int], json_out: bool) -> int:
    _ensure_indexed()
    conn = connect()
    try:
        records = query_cells(conn, cell=cell, since=since, limit=limit)
    finally:
        conn.close()
    if json_out:
        print(json.dumps({"schema": INDEX_SCHEMA, "cell": cell,
                          "since": since, "records": records},
                         indent=2, sort_keys=True))
        return 0
    if not records:
        print("no matching cells (check `repro runs list` and the "
              "cell id, or `repro runs reindex`)")
        return 0
    print(f"{'run_id':<34} {'started':<20} {'rev':<9} "
          f"{'cell':<44} {'seconds':>11}")
    print("-" * 122)
    for r in records:
        rev = (r["git_rev"] or "-")[:8]
        sec = "-" if r["seconds"] is None else f"{r['seconds']:.5g}"
        print(f"{r['run_id']:<34} {r['started'] or '-':<20} "
              f"{rev:<9} {r['cell']:<44} {sec:>11}")
    return 0


def cmd_reindex() -> int:
    n_runs, n_cells = reindex()
    print(f"reindexed {n_runs} runs ({n_cells} cell rows) from "
          f"{os.path.abspath(runs_root())} into {db_path()}")
    return 0
