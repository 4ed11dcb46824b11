//! Statement execution: parsed [`Statement`]s → engine calls through
//! [`Session`] → encoded backend messages.
//!
//! The executor appends `RowDescription`/`DataRow`/`CommandComplete`
//! bytes for everything it can finish synchronously. `CREATE INDEX`
//! is the exception: index builds are *online* and long-running, so
//! the executor validates and returns [`StmtOutcome::StartBuild`] —
//! the serving layer starts the build on a build worker and streams
//! `NOTICE` progress lines from the build-progress hook until
//! `CommandComplete("CREATE INDEX")`.
//!
//! `SELECT` picks its access path the way the paper frames index
//! utility: a point predicate on a column with a *complete* index is
//! a [`Session::lookup`]; a `BETWEEN` predicate is a key-range scan
//! through [`Session::lookup_range`]; everything else falls back to
//! the heap scan.

use crate::catalog::{Catalog, TableMeta};
use crate::proto;
use crate::sql::{Filter, SelectCols, Statement};
use mohan_common::{Error, IndexId, KeyValue, Rid, TableId};
use mohan_oib::build::{BuildOptions, IndexSpec};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::{IndexState, Session};

/// A SQL-level failure: a SQLSTATE plus human-readable message,
/// rendered as an `ErrorResponse`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PgError {
    /// Five-character SQLSTATE code.
    pub sqlstate: &'static str,
    /// Message for the `M` field.
    pub message: String,
}

impl PgError {
    /// `42601` syntax error.
    #[must_use]
    pub fn syntax(msg: &str) -> PgError {
        PgError {
            sqlstate: "42601",
            message: format!("syntax error: {msg}"),
        }
    }

    /// `0A000` feature not supported.
    #[must_use]
    pub fn unsupported(msg: &str) -> PgError {
        PgError {
            sqlstate: "0A000",
            message: msg.to_string(),
        }
    }

    /// `42P01` undefined table.
    #[must_use]
    pub fn no_table(name: &str) -> PgError {
        PgError {
            sqlstate: "42P01",
            message: format!("relation \"{name}\" does not exist"),
        }
    }

    /// `42703` undefined column.
    #[must_use]
    pub fn no_column(name: &str) -> PgError {
        PgError {
            sqlstate: "42703",
            message: format!("column \"{name}\" does not exist"),
        }
    }
}

/// An engine error as SQL sees it: its SQLSTATE and its message.
impl From<Error> for PgError {
    fn from(e: Error) -> PgError {
        PgError {
            sqlstate: sqlstate_of(&e),
            message: e.to_string(),
        }
    }
}

/// The SQLSTATE an engine [`Error`] maps to on the Postgres wire.
#[must_use]
pub fn sqlstate_of(e: &Error) -> &'static str {
    match e {
        Error::UniqueViolation { .. } => "23505",
        Error::LockTimeout { .. } => "40P01", // deadlock_detected: timeout is our resolution
        Error::LockBusy => "55P03",           // lock_not_available
        Error::NotFound(_) => "42704",        // undefined_object
        Error::PageFull => "53100",           // disk_full (closest resource class)
        Error::Corruption(_) | Error::Malformed(_) => "XX001", // data_corrupted
        Error::BuildCancelled => "57014",     // query_canceled
        Error::InjectedCrash(_) => "XX000",   // internal_error
        Error::TxNotActive(_) => "25000",     // invalid_transaction_state
        Error::NoSuchIndex(_) => "42704",
        Error::IndexNotReadable(_) => "55000", // object_not_in_prerequisite_state
        Error::NoOpenTx => "25P01",            // no_active_sql_transaction
        Error::TxAlreadyOpen(_) => "25001",    // active_sql_transaction
        Error::NotWritable => "25006",         // read_only_sql_transaction
        Error::ReplicaStale { .. } => "72000", // snapshot_too_old
        Error::InvalidArg(_) => "22023",       // invalid_parameter_value
    }
}

/// What executing one statement produced.
#[derive(Debug)]
pub enum StmtOutcome {
    /// Finished; response messages were appended to `out`.
    Complete,
    /// A validated `CREATE INDEX`: the caller spawns the online build
    /// and owns the progress → `NOTICE` → `CommandComplete` exchange.
    StartBuild {
        /// Table to index.
        table: TableId,
        /// Engine index specs (names + key column positions).
        specs: Vec<IndexSpec>,
        /// Build algorithm from the `USING` clause (SF default).
        algorithm: BuildAlgorithm,
        /// Build tuning from the `WITH` clause (defaults otherwise).
        options: BuildOptions,
    },
}

/// Validate a `WITH (key = value, ...)` clause into [`BuildOptions`].
/// Unknown keys, malformed values, values the option's field cannot
/// hold and options [`BuildOptions::validate`] refuses are statement
/// errors (SQLSTATE `22023`, invalid_parameter_value), named
/// specifically so the user can fix the statement.
fn parse_build_options(with_options: &[(String, String)]) -> Result<BuildOptions, PgError> {
    let mut opts = BuildOptions::default();
    for (key, val) in with_options {
        match key.as_str() {
            "parallel_workers" => opts.parallel_workers = as_uint(key, val, u16::MAX)?,
            // Every run is stored compressed: the key is checked, then ignored.
            "compress_runs" => drop(as_bool(key, val)?),
            "sorted_drain" => opts.sort_side_file_drain = Some(as_bool(key, val)?),
            "checkpoint_every" => opts.checkpoint_every = as_uint(key, val, u32::MAX)?,
            other => {
                return Err(invalid_option(format!(
                    "unknown index build option \"{other}\" (parallel_workers | \
                     compress_runs | sorted_drain | checkpoint_every)"
                )))
            }
        }
    }
    opts.validate()?;
    Ok(opts)
}

fn invalid_option(message: String) -> PgError {
    PgError {
        sqlstate: "22023",
        message,
    }
}

fn as_bool(key: &str, val: &str) -> Result<bool, PgError> {
    match val {
        "on" | "true" | "yes" | "1" => Ok(true),
        "off" | "false" | "no" | "0" => Ok(false),
        _ => Err(invalid_option(format!(
            "invalid value \"{val}\" for option \"{key}\" (expected on/off)"
        ))),
    }
}

/// `val` in the option's own width, up to `max`: a value the field
/// cannot hold is refused, never clamped.
fn as_uint<T: std::str::FromStr + std::fmt::Display>(
    key: &str,
    val: &str,
    max: T,
) -> Result<T, PgError> {
    val.parse().map_err(|_| {
        invalid_option(format!(
            "invalid value \"{val}\" for option \"{key}\" (expected an integer from 0 to {max})"
        ))
    })
}

/// Execute one statement against `session`, appending backend
/// messages to `out`. Errors are returned (not encoded) so the caller
/// can also flip its transaction-failed state. Admission, deadlines
/// and the follower gate are the serving layer's, decided before a
/// statement gets here.
pub fn execute_statement(
    stmt: &Statement,
    session: &mut Session,
    catalog: &Catalog,
    out: &mut Vec<u8>,
) -> Result<StmtOutcome, PgError> {
    match stmt {
        Statement::Begin => {
            session.begin()?;
            proto::command_complete(out, "BEGIN");
        }
        Statement::Commit => {
            session.commit()?;
            proto::command_complete(out, "COMMIT");
        }
        Statement::Rollback => {
            session.rollback()?;
            proto::command_complete(out, "ROLLBACK");
        }
        Statement::CreateTable { name, cols } => {
            catalog
                .create(name, cols.clone(), session.db())
                .ok_or_else(|| PgError {
                    sqlstate: "42P07",
                    message: format!("relation \"{name}\" already exists"),
                })?;
            proto::command_complete(out, "CREATE TABLE");
        }
        Statement::Insert { table, cols, rows } => {
            let meta = lookup_table(catalog, table)?;
            validate_insert_cols(&meta, cols.as_deref())?;
            for row in rows {
                if !meta.cols.is_empty() && row.len() != meta.cols.len() {
                    return Err(PgError::syntax(&format!(
                        "INSERT row has {} expressions, table \"{table}\" has {} columns",
                        row.len(),
                        meta.cols.len()
                    )));
                }
                session.insert(meta.id, &Record(row.clone()))?;
            }
            proto::command_complete(out, &format!("INSERT 0 {}", rows.len()));
        }
        Statement::Select {
            table,
            cols,
            filter,
        } => {
            let meta = lookup_table(catalog, table)?;
            let rows = matching_rows(session, &meta, filter.as_ref())?;
            emit_rows(&meta, cols, &rows, out)?;
        }
        Statement::Update { table, set, filter } => {
            let meta = lookup_table(catalog, table)?;
            let assignments: Vec<(usize, i64)> = set
                .iter()
                .map(|(col, v)| Ok((col_position(&meta, col)?, *v)))
                .collect::<Result<_, PgError>>()?;
            let rows = matching_rows(session, &meta, Some(filter))?;
            let n = rows.len();
            for (rid, rec) in rows {
                let mut new = rec;
                for &(pos, v) in &assignments {
                    if pos >= new.0.len() {
                        return Err(PgError {
                            sqlstate: "42703",
                            message: format!(
                                "column position {pos} out of range for a {}-column row",
                                new.0.len()
                            ),
                        });
                    }
                    new.0[pos] = v;
                }
                session.update(meta.id, rid, &new)?;
            }
            proto::command_complete(out, &format!("UPDATE {n}"));
        }
        Statement::Delete { table, filter } => {
            let meta = lookup_table(catalog, table)?;
            let rows = matching_rows(session, &meta, Some(filter))?;
            let n = rows.len();
            for (rid, _) in rows {
                session.delete(meta.id, rid)?;
            }
            proto::command_complete(out, &format!("DELETE {n}"));
        }
        Statement::CreateIndex {
            unique,
            name,
            table,
            cols,
            algo,
            with_options,
        } => {
            let meta = lookup_table(catalog, table)?;
            if session
                .db()
                .indexes_of(meta.id)
                .iter()
                .any(|rt| rt.def.name == *name)
            {
                return Err(PgError {
                    sqlstate: "42710",
                    message: format!("index \"{name}\" already exists on \"{table}\""),
                });
            }
            // A record has at most `u16::MAX` columns, so a position
            // past that names no column.
            let key_cols = cols
                .iter()
                .map(|c| {
                    col_position(&meta, c)
                        .and_then(|p| u16::try_from(p).map_err(|_| PgError::no_column(c)))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let algorithm = match algo.as_deref() {
                // `btree` is what stock clients say; SF is the paper's
                // no-quiesce default.
                None | Some("sf") | Some("btree") => BuildAlgorithm::Sf,
                Some("nsf") => BuildAlgorithm::Nsf,
                Some("offline") => BuildAlgorithm::Offline,
                Some(other) => {
                    return Err(PgError::unsupported(&format!(
                        "unknown build algorithm \"{other}\" (sf | nsf | offline)"
                    )))
                }
            };
            let options = parse_build_options(with_options)?;
            return Ok(StmtOutcome::StartBuild {
                table: meta.id,
                specs: vec![IndexSpec {
                    name: name.clone(),
                    key_cols,
                    unique: *unique,
                }],
                algorithm,
                options,
            });
        }
    }
    Ok(StmtOutcome::Complete)
}

fn lookup_table(catalog: &Catalog, name: &str) -> Result<std::sync::Arc<TableMeta>, PgError> {
    catalog.get(name).ok_or_else(|| PgError::no_table(name))
}

fn col_position(meta: &TableMeta, name: &str) -> Result<usize, PgError> {
    meta.col_position(name)
        .ok_or_else(|| PgError::no_column(name))
}

/// An explicit INSERT column list must match the declared columns in
/// order — partial/reordered lists would need per-column defaults the
/// engine does not have.
fn validate_insert_cols(meta: &TableMeta, cols: Option<&[String]>) -> Result<(), PgError> {
    let Some(cols) = cols else { return Ok(()) };
    if meta.cols.is_empty() || cols == meta.cols {
        Ok(())
    } else {
        Err(PgError::unsupported(
            "INSERT column lists must name all declared columns in order",
        ))
    }
}

/// The complete index over exactly `[pos]`, if one exists — the
/// access path for point and range predicates on that column.
fn complete_index_on(session: &Session, table: TableId, pos: usize) -> Option<IndexId> {
    session
        .db()
        .indexes_of(table)
        .iter()
        .find(|rt| {
            rt.state() == IndexState::Complete
                && rt.def.key_cols.iter().map(|&c| usize::from(c)).eq([pos])
        })
        .map(|rt| rt.def.id)
}

/// Rows matching `filter`: index point lookup, index range scan, or
/// heap scan + residual filter.
fn matching_rows(
    session: &mut Session,
    meta: &TableMeta,
    filter: Option<&Filter>,
) -> Result<Vec<(Rid, Record)>, PgError> {
    match filter {
        None => Ok(session.table_scan(meta.id)?),
        Some(Filter::Eq(col, v)) => {
            let pos = col_position(meta, col)?;
            match complete_index_on(session, meta.id, pos) {
                Some(idx) => {
                    let rids = session.lookup(idx, &KeyValue::from_i64(*v))?;
                    read_all(session, meta.id, rids)
                }
                None => {
                    let mut rows = session.table_scan(meta.id)?;
                    rows.retain(|(_, rec)| rec.0.get(pos) == Some(v));
                    Ok(rows)
                }
            }
        }
        Some(Filter::Between(col, lo, hi)) => {
            if lo > hi {
                return Ok(Vec::new());
            }
            let pos = col_position(meta, col)?;
            match complete_index_on(session, meta.id, pos) {
                Some(idx) => {
                    let rids = session.lookup_range(
                        idx,
                        &KeyValue::from_i64(*lo),
                        &KeyValue::from_i64(*hi),
                    )?;
                    read_all(session, meta.id, rids)
                }
                None => {
                    let mut rows = session.table_scan(meta.id)?;
                    rows.retain(|(_, rec)| rec.0.get(pos).is_some_and(|v| (lo..=hi).contains(&v)));
                    Ok(rows)
                }
            }
        }
    }
}

fn read_all(
    session: &Session,
    table: TableId,
    rids: Vec<Rid>,
) -> Result<Vec<(Rid, Record)>, PgError> {
    rids.into_iter()
        .map(|rid| {
            session
                .read(table, rid)
                .map(|rec| (rid, rec))
                .map_err(PgError::from)
        })
        .collect()
}

/// Encode `RowDescription` + `DataRow`s + `CommandComplete` for a
/// result set under the requested projection.
fn emit_rows(
    meta: &TableMeta,
    cols: &SelectCols,
    rows: &[(Rid, Record)],
    out: &mut Vec<u8>,
) -> Result<(), PgError> {
    // Positions to project, and their display names.
    let (positions, names): (Vec<usize>, Vec<String>) = match cols {
        SelectCols::Cols(named) => {
            let positions = named
                .iter()
                .map(|c| col_position(meta, c))
                .collect::<Result<Vec<_>, _>>()?;
            (positions, named.clone())
        }
        SelectCols::Star => {
            // Declared schemas project their declared arity; undeclared
            // ones project the widest row seen (positional names).
            let arity = if meta.cols.is_empty() {
                rows.iter().map(|(_, r)| r.0.len()).max().unwrap_or(0)
            } else {
                meta.cols.len()
            };
            let positions: Vec<usize> = (0..arity).collect();
            let names = positions.iter().map(|&i| meta.col_name(i)).collect();
            (positions, names)
        }
    };
    proto::row_description(out, &names);
    for (_, rec) in rows {
        let vals: Vec<Option<String>> = positions
            .iter()
            .map(|&p| rec.0.get(p).map(i64::to_string))
            .collect();
        proto::data_row(out, &vals);
    }
    proto::command_complete(out, &format!("SELECT {}", rows.len()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;
    use mohan_common::EngineConfig;
    use mohan_oib::Db;

    fn setup() -> (std::sync::Arc<Db>, Session, Catalog) {
        let db = Db::new(EngineConfig::small());
        let session = Session::new(std::sync::Arc::clone(&db));
        let catalog = Catalog::new(&db);
        (db, session, catalog)
    }

    fn run(sql: &str, session: &mut Session, catalog: &Catalog) -> Result<Vec<u8>, PgError> {
        let mut out = Vec::new();
        for stmt in parse(sql)? {
            match execute_statement(&stmt, session, catalog, &mut out)? {
                StmtOutcome::Complete => {}
                StmtOutcome::StartBuild { .. } => panic!("no builds in this helper"),
            }
        }
        Ok(out)
    }

    #[test]
    fn crud_through_sql() {
        let (_db, mut session, catalog) = setup();
        run(
            "CREATE TABLE kv (k bigint, v bigint); \
             INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30); \
             UPDATE kv SET v = 99 WHERE k = 2; \
             DELETE FROM kv WHERE k = 3",
            &mut session,
            &catalog,
        )
        .unwrap();
        let out = run("SELECT v FROM kv WHERE k = 2", &mut session, &catalog).unwrap();
        let text = String::from_utf8_lossy(&out).into_owned();
        assert!(text.contains("99"), "expected updated value in {text:?}");
        let out = run("SELECT * FROM kv", &mut session, &catalog).unwrap();
        assert!(String::from_utf8_lossy(&out).contains("SELECT 2"));
    }

    #[test]
    fn select_uses_index_when_complete() {
        let (db, mut session, catalog) = setup();
        run(
            "CREATE TABLE kv (k bigint, v bigint); \
             INSERT INTO kv VALUES (5, 50), (6, 60)",
            &mut session,
            &catalog,
        )
        .unwrap();
        let meta = catalog.get("kv").unwrap();
        session
            .create_index(
                meta.id,
                IndexSpec {
                    name: "kv_k".into(),
                    key_cols: vec![0],
                    unique: false,
                },
                BuildAlgorithm::Sf,
            )
            .unwrap();
        assert!(complete_index_on(&session, meta.id, 0).is_some());
        let out = run(
            "SELECT v FROM kv WHERE k BETWEEN 5 AND 6",
            &mut session,
            &catalog,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out).into_owned();
        assert!(text.contains("SELECT 2"), "{text:?}");
        drop(db);
    }

    #[test]
    fn errors_map_to_sqlstates() {
        let (_db, mut session, catalog) = setup();
        assert_eq!(
            run("SELECT * FROM missing", &mut session, &catalog)
                .unwrap_err()
                .sqlstate,
            "42P01"
        );
        run("CREATE TABLE kv (k, v)", &mut session, &catalog).unwrap();
        assert_eq!(
            run("CREATE TABLE kv (k)", &mut session, &catalog)
                .unwrap_err()
                .sqlstate,
            "42P07"
        );
        assert_eq!(
            run("SELECT nope FROM kv", &mut session, &catalog)
                .unwrap_err()
                .sqlstate,
            "42703"
        );
        assert_eq!(
            run("INSERT INTO kv VALUES (1)", &mut session, &catalog)
                .unwrap_err()
                .sqlstate,
            "42601"
        );
        assert_eq!(
            run("COMMIT", &mut session, &catalog).unwrap_err().sqlstate,
            "25P01"
        );
    }

    #[test]
    fn create_index_validates_then_defers() {
        let (_db, mut session, catalog) = setup();
        run("CREATE TABLE kv (k, v)", &mut session, &catalog).unwrap();
        let stmt = &parse("CREATE UNIQUE INDEX kv_k ON kv (k)").unwrap()[0];
        let mut out = Vec::new();
        match execute_statement(stmt, &mut session, &catalog, &mut out).unwrap() {
            StmtOutcome::StartBuild {
                specs,
                algorithm,
                options,
                ..
            } => {
                assert_eq!(specs[0].name, "kv_k");
                assert_eq!(specs[0].key_cols, vec![0]);
                assert!(specs[0].unique);
                assert!(matches!(algorithm, BuildAlgorithm::Sf));
                assert_eq!(options, BuildOptions::default());
            }
            StmtOutcome::Complete => panic!("expected a build"),
        }
        assert!(out.is_empty());
        let stmt = &parse("CREATE INDEX bad ON kv USING zzz (k)").unwrap()[0];
        let err = execute_statement(stmt, &mut session, &catalog, &mut out).unwrap_err();
        assert_eq!(err.sqlstate, "0A000");
    }

    #[test]
    fn create_index_with_clause_validates_options() {
        let (_db, mut session, catalog) = setup();
        run("CREATE TABLE kv (k, v)", &mut session, &catalog).unwrap();
        let stmt = &parse(
            "CREATE INDEX kv_v ON kv (v) WITH \
             (parallel_workers = 4, compress_runs = on, \
              sorted_drain = off, checkpoint_every = 5000)",
        )
        .unwrap()[0];
        let mut out = Vec::new();
        match execute_statement(stmt, &mut session, &catalog, &mut out).unwrap() {
            StmtOutcome::StartBuild { options, .. } => {
                assert_eq!(
                    options,
                    BuildOptions::new()
                        .workers(4)
                        .sorted_drain(false)
                        .checkpoint_every(5000)
                );
            }
            StmtOutcome::Complete => panic!("expected a build"),
        }
        // Unknown keys and malformed values are 22023 statement errors.
        for bad in [
            "CREATE INDEX b1 ON kv (v) WITH (fillfactor = 70)",
            "CREATE INDEX b2 ON kv (v) WITH (parallel_workers = 0)",
            "CREATE INDEX b3 ON kv (v) WITH (compress_runs = maybe)",
            "CREATE INDEX b4 ON kv (v) WITH (checkpoint_every = -5)",
        ] {
            let stmt = &parse(bad).unwrap()[0];
            let err = execute_statement(stmt, &mut session, &catalog, &mut out).unwrap_err();
            assert_eq!(err.sqlstate, "22023", "{bad}");
        }
        // A zero interval is the engine's, as in every layer.
        let stmt = &parse("CREATE INDEX b5 ON kv (v) WITH (checkpoint_every = 0)").unwrap()[0];
        match execute_statement(stmt, &mut session, &catalog, &mut out).unwrap() {
            StmtOutcome::StartBuild { options, .. } => assert_eq!(options, BuildOptions::default()),
            StmtOutcome::Complete => panic!("expected a build"),
        }
        // The engine-level empty-spec rejection maps to 22023 too.
        assert_eq!(
            sqlstate_of(&Error::InvalidArg("no index specs".into())),
            "22023"
        );
    }

    /// Options are parsed in their field's own width and checked by
    /// `BuildOptions::validate` before a build starts: a value the
    /// field cannot hold, or more workers than a build may start, is
    /// `22023`, never clamped into a build that runs with something
    /// else (the durable options blob could not record it).
    #[test]
    fn create_index_options_beyond_their_widths_or_bounds_refuse() {
        let (_db, mut session, catalog) = setup();
        run("CREATE TABLE kv (k, v)", &mut session, &catalog).unwrap();
        let mut out = Vec::new();
        for bad in [
            "CREATE INDEX w1 ON kv (v) WITH (checkpoint_every = 4294967296)",
            "CREATE INDEX w2 ON kv (v) WITH (parallel_workers = 65536)",
            "CREATE INDEX w3 ON kv (v) WITH (parallel_workers = 65)",
        ] {
            let stmt = &parse(bad).unwrap()[0];
            let err = execute_statement(stmt, &mut session, &catalog, &mut out).unwrap_err();
            assert_eq!(err.sqlstate, "22023", "{bad}: {}", err.message);
        }
        let stmt = &parse(
            "CREATE INDEX ok ON kv (v) WITH \
             (parallel_workers = 64, checkpoint_every = 4294967295)",
        )
        .unwrap()[0];
        match execute_statement(stmt, &mut session, &catalog, &mut out).unwrap() {
            StmtOutcome::StartBuild { options, .. } => assert_eq!(
                options,
                BuildOptions::new().workers(64).checkpoint_every(u32::MAX)
            ),
            StmtOutcome::Complete => panic!("expected a build"),
        }
    }
}
