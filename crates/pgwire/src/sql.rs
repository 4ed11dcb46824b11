//! Hand-rolled tokenizer and parser for the SQL subset the engine
//! serves.
//!
//! Grammar (case-insensitive keywords, `--` and `/* */` comments,
//! `;`-separated multi-statement strings):
//!
//! ```text
//! CREATE TABLE name ( col [type-words ...] [, ...] )
//! CREATE [UNIQUE] INDEX name ON table [USING sf|nsf|offline|btree] ( col [, ...] )
//!     [WITH ( option = value [, ...] )]
//! INSERT INTO table [( col [, ...] )] VALUES ( int [, ...] ) [, ( ... )]*
//! SELECT * | col [, ...] FROM table [WHERE col = int | col BETWEEN int AND int]
//! UPDATE table SET col = int [, ...] WHERE <filter>
//! DELETE FROM table WHERE <filter>
//! BEGIN | COMMIT | END | ROLLBACK | ABORT
//! ```
//!
//! Values are 64-bit integers — the engine's record type is a vector
//! of `i64` columns. Everything outside the subset fails with a
//! sqlstate-carrying [`PgError`], never a panic (fuzzed below).

use crate::exec::PgError;

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Identifier or keyword, lowercased unless double-quoted.
    Ident(String),
    /// Integer literal (sign handled by the parser).
    Number(i64),
    /// Single-quoted string literal (accepted lexically, rejected by
    /// the parser with a clear error — the engine stores integers).
    Str(String),
    /// Punctuation: `( ) , ; * = -`
    Symbol(char),
}

/// Tokenize `sql`. Total: any input either tokenizes or returns a
/// syntax error.
pub fn tokenize(sql: &str) -> Result<Vec<Token>, PgError> {
    let b = sql.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if b.get(i + 1) == Some(&b'-') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if depth > 0 {
                    return Err(PgError::syntax("unterminated /* comment"));
                }
            }
            // No arithmetic in the grammar, so `-` directly before a
            // digit is always unary minus; folding it into the literal
            // also lets i64::MIN parse (its magnitude overflows alone).
            b'-' if b.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                let start = i;
                i += 1;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let text = std::str::from_utf8(&b[start..i]).expect("sign+digits are utf8");
                let n: i64 = text
                    .parse()
                    .map_err(|_| PgError::syntax(&format!("integer out of range: {text}")))?;
                out.push(Token::Number(n));
            }
            // `<`/`>` tokenize so unsupported comparison predicates
            // fail in the parser with a message naming what *is*
            // supported, not as a lexical error.
            b'(' | b')' | b',' | b';' | b'*' | b'=' | b'-' | b'<' | b'>' | b'.' => {
                out.push(Token::Symbol(c as char));
                i += 1;
            }
            b'\'' => {
                i += 1;
                let start = i;
                loop {
                    match b.get(i) {
                        None => return Err(PgError::syntax("unterminated string literal")),
                        Some(b'\'') if b.get(i + 1) == Some(&b'\'') => i += 2,
                        Some(b'\'') => break,
                        Some(_) => i += 1,
                    }
                }
                let s = String::from_utf8_lossy(&b[start..i]).replace("''", "'");
                out.push(Token::Str(s));
                i += 1;
            }
            b'"' => {
                i += 1;
                let start = i;
                while i < b.len() && b[i] != b'"' {
                    i += 1;
                }
                if i >= b.len() {
                    return Err(PgError::syntax("unterminated quoted identifier"));
                }
                out.push(Token::Ident(
                    String::from_utf8_lossy(&b[start..i]).into_owned(),
                ));
                i += 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let text = std::str::from_utf8(&b[start..i]).expect("digits are utf8");
                let n: i64 = text
                    .parse()
                    .map_err(|_| PgError::syntax(&format!("integer out of range: {text}")))?;
                out.push(Token::Number(n));
            }
            c if (c as char).is_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() {
                    let ch = b[i];
                    if ch == b'_' || ch.is_ascii_alphanumeric() || ch >= 0x80 {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(
                    String::from_utf8_lossy(&b[start..i]).to_lowercase(),
                ));
            }
            other => {
                return Err(PgError::syntax(&format!(
                    "unexpected character {:?}",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

/// The column list of a `SELECT`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectCols {
    /// `SELECT *`
    Star,
    /// An explicit projection list.
    Cols(Vec<String>),
}

/// A row-selection predicate (`WHERE` clause subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// `col = value` — a point lookup, served through an index on
    /// `col` when one is complete.
    Eq(String, i64),
    /// `col BETWEEN lo AND hi` — a key-range lookup.
    Between(String, i64, i64),
}

/// One parsed statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `CREATE TABLE name (cols)` — registers the name and columns in
    /// the SQL catalog and creates the heap table.
    CreateTable {
        /// Table name.
        name: String,
        /// Column names, in declaration order.
        cols: Vec<String>,
    },
    /// `CREATE [UNIQUE] INDEX ...` — starts an **online** build.
    CreateIndex {
        /// Whether the index enforces unique keys.
        unique: bool,
        /// Index name.
        name: String,
        /// Table the index covers.
        table: String,
        /// Indexed columns, in key order.
        cols: Vec<String>,
        /// Build algorithm from `USING` (`sf` default; `btree` is an
        /// accepted alias for `sf` so stock clients work unchanged).
        algo: Option<String>,
        /// `WITH (key = value, ...)` build options, in statement
        /// order, values as written (numbers rendered decimal). The
        /// executor validates keys and values; unknown ones are a
        /// statement error, not a parse error.
        with_options: Vec<(String, String)>,
    },
    /// `INSERT INTO ... VALUES ...` (multi-row).
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        cols: Option<Vec<String>>,
        /// Row tuples.
        rows: Vec<Vec<i64>>,
    },
    /// `SELECT ... FROM ... [WHERE ...]`.
    Select {
        /// Source table.
        table: String,
        /// Projection.
        cols: SelectCols,
        /// Optional predicate.
        filter: Option<Filter>,
    },
    /// `UPDATE ... SET ... WHERE ...`.
    Update {
        /// Target table.
        table: String,
        /// `col = value` assignments.
        set: Vec<(String, i64)>,
        /// Row selection (required — unqualified UPDATE is refused).
        filter: Filter,
    },
    /// `DELETE FROM ... WHERE ...`.
    Delete {
        /// Target table.
        table: String,
        /// Row selection (required — unqualified DELETE is refused).
        filter: Filter,
    },
    /// `BEGIN`.
    Begin,
    /// `COMMIT` / `END`.
    Commit,
    /// `ROLLBACK` / `ABORT`.
    Rollback,
}

impl Statement {
    /// Every statement kind's metric label, in [`Statement::kind_index`]
    /// order: the server keeps one `server.pg_req_us.<kind>` histogram
    /// per entry.
    pub const KINDS: &'static [&'static str] = &[
        "CreateTable",
        "CreateIndex",
        "Insert",
        "Select",
        "Update",
        "Delete",
        "Begin",
        "Commit",
        "Rollback",
    ];

    /// This statement's position in [`Statement::KINDS`].
    #[must_use]
    pub fn kind_index(&self) -> usize {
        match self {
            Statement::CreateTable { .. } => 0,
            Statement::CreateIndex { .. } => 1,
            Statement::Insert { .. } => 2,
            Statement::Select { .. } => 3,
            Statement::Update { .. } => 4,
            Statement::Delete { .. } => 5,
            Statement::Begin => 6,
            Statement::Commit => 7,
            Statement::Rollback => 8,
        }
    }

    /// Metric label for `server.pg_req_us.<kind>`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// `COMMIT`/`ROLLBACK`: the statements that end a transaction. A
    /// query string of nothing else is what the native `Commit` and
    /// `Rollback` are to the serving layer — exempt from admission and
    /// still run while the server drains.
    #[must_use]
    pub fn ends_tx(&self) -> bool {
        matches!(self, Statement::Commit | Statement::Rollback)
    }
}

/// Cheap classifier used by the reactor *before* parsing: does this
/// query string's first statement possibly acquire engine locks?
/// Errs on the side of `true` — misclassifying a blocking statement
/// as inline could deadlock the event loop, while the converse only
/// costs an executor round-trip.
#[must_use]
pub fn query_may_block(sql: &str) -> bool {
    let mut rest = sql.trim_start();
    loop {
        if let Some(r) = rest.strip_prefix(';') {
            rest = r.trim_start();
        } else if let Some(r) = rest.strip_prefix("--") {
            match r.find('\n') {
                Some(nl) => rest = r[nl + 1..].trim_start(),
                None => return false, // nothing but a comment
            }
        } else {
            break;
        }
    }
    let word: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphabetic())
        .collect();
    if word.is_empty() {
        return !rest.is_empty(); // garbage: let the executor reject it
    }
    !["begin", "commit", "end", "rollback", "abort"]
        .iter()
        .any(|kw| word.eq_ignore_ascii_case(kw))
}

struct Parser {
    toks: Vec<Token>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.at)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.at).cloned();
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    fn eat_symbol(&mut self, c: char) -> bool {
        if self.peek() == Some(&Token::Symbol(c)) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, c: char) -> Result<(), PgError> {
        if self.eat_symbol(c) {
            Ok(())
        } else {
            Err(PgError::syntax(&format!("expected {c:?}")))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(w)) if w == kw) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), PgError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(PgError::syntax(&format!("expected {}", kw.to_uppercase())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, PgError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            _ => Err(PgError::syntax(&format!("expected {what}"))),
        }
    }

    fn number(&mut self) -> Result<i64, PgError> {
        let neg = self.eat_symbol('-');
        match self.next() {
            Some(Token::Number(n)) => Ok(if neg { n.checked_neg().unwrap_or(n) } else { n }),
            Some(Token::Str(_)) => Err(PgError::unsupported(
                "string values are not supported; columns are 64-bit integers",
            )),
            _ => Err(PgError::syntax("expected an integer value")),
        }
    }

    fn ident_list(&mut self, what: &str) -> Result<Vec<String>, PgError> {
        self.expect_symbol('(')?;
        let mut cols = Vec::new();
        loop {
            cols.push(self.ident(what)?);
            if self.eat_symbol(',') {
                continue;
            }
            self.expect_symbol(')')?;
            return Ok(cols);
        }
    }

    fn filter(&mut self) -> Result<Filter, PgError> {
        let col = self.ident("a column name")?;
        if self.eat_symbol('=') {
            return Ok(Filter::Eq(col, self.number()?));
        }
        if self.eat_kw("between") {
            let lo = self.number()?;
            self.expect_kw("and")?;
            let hi = self.number()?;
            return Ok(Filter::Between(col, lo, hi));
        }
        Err(PgError::unsupported(
            "only `col = n` and `col BETWEEN a AND b` predicates are supported",
        ))
    }

    fn statement(&mut self) -> Result<Statement, PgError> {
        let head = self.ident("a statement keyword")?;
        match head.as_str() {
            "begin" | "start" => {
                // BEGIN [WORK|TRANSACTION], START TRANSACTION
                while matches!(self.peek(), Some(Token::Ident(w)) if w == "work" || w == "transaction")
                {
                    self.at += 1;
                }
                Ok(Statement::Begin)
            }
            "commit" | "end" => {
                while matches!(self.peek(), Some(Token::Ident(w)) if w == "work" || w == "transaction")
                {
                    self.at += 1;
                }
                Ok(Statement::Commit)
            }
            "rollback" | "abort" => {
                while matches!(self.peek(), Some(Token::Ident(w)) if w == "work" || w == "transaction")
                {
                    self.at += 1;
                }
                Ok(Statement::Rollback)
            }
            "create" => self.create(),
            "insert" => self.insert(),
            "select" => self.select(),
            "update" => self.update(),
            "delete" => self.delete(),
            other => Err(PgError::unsupported(&format!(
                "unsupported statement: {}",
                other.to_uppercase()
            ))),
        }
    }

    fn create(&mut self) -> Result<Statement, PgError> {
        if self.eat_kw("table") {
            let name = self.ident("a table name")?;
            self.expect_symbol('(')?;
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident("a column name")?);
                // Skip type words and constraints up to the next
                // separator: `k bigint primary key` declares column k.
                while matches!(self.peek(), Some(Token::Ident(_) | Token::Number(_))) {
                    self.at += 1;
                }
                if self.eat_symbol(',') {
                    continue;
                }
                self.expect_symbol(')')?;
                return Ok(Statement::CreateTable { name, cols });
            }
        }
        let unique = self.eat_kw("unique");
        self.expect_kw("index")?;
        let name = self.ident("an index name")?;
        self.expect_kw("on")?;
        let table = self.ident("a table name")?;
        let algo = if self.eat_kw("using") {
            Some(self.ident("a build algorithm")?)
        } else {
            None
        };
        let cols = self.ident_list("a column name")?;
        let with_options = if self.eat_kw("with") {
            self.expect_symbol('(')?;
            let mut opts = Vec::new();
            loop {
                let key = self.ident("an option name")?;
                self.expect_symbol('=')?;
                let val = match self.next() {
                    Some(Token::Ident(s)) => s,
                    Some(Token::Number(n)) => n.to_string(),
                    _ => return Err(PgError::syntax("expected an option value")),
                };
                opts.push((key, val));
                if self.eat_symbol(',') {
                    continue;
                }
                self.expect_symbol(')')?;
                break;
            }
            opts
        } else {
            Vec::new()
        };
        Ok(Statement::CreateIndex {
            unique,
            name,
            table,
            cols,
            algo,
            with_options,
        })
    }

    fn insert(&mut self) -> Result<Statement, PgError> {
        self.expect_kw("into")?;
        let table = self.ident("a table name")?;
        let cols = if self.peek() == Some(&Token::Symbol('(')) {
            Some(self.ident_list("a column name")?)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol('(')?;
            let mut row = Vec::new();
            loop {
                row.push(self.number()?);
                if self.eat_symbol(',') {
                    continue;
                }
                self.expect_symbol(')')?;
                break;
            }
            rows.push(row);
            if self.eat_symbol(',') {
                continue;
            }
            return Ok(Statement::Insert { table, cols, rows });
        }
    }

    fn select(&mut self) -> Result<Statement, PgError> {
        let cols = if self.eat_symbol('*') {
            SelectCols::Star
        } else {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident("a column name")?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
            SelectCols::Cols(cols)
        };
        self.expect_kw("from")?;
        let table = self.ident("a table name")?;
        let filter = if self.eat_kw("where") {
            Some(self.filter()?)
        } else {
            None
        };
        Ok(Statement::Select {
            table,
            cols,
            filter,
        })
    }

    fn update(&mut self) -> Result<Statement, PgError> {
        let table = self.ident("a table name")?;
        self.expect_kw("set")?;
        let mut set = Vec::new();
        loop {
            let col = self.ident("a column name")?;
            self.expect_symbol('=')?;
            set.push((col, self.number()?));
            if !self.eat_symbol(',') {
                break;
            }
        }
        self.expect_kw("where")?;
        let filter = self.filter()?;
        Ok(Statement::Update { table, set, filter })
    }

    fn delete(&mut self) -> Result<Statement, PgError> {
        self.expect_kw("from")?;
        let table = self.ident("a table name")?;
        self.expect_kw("where")?;
        let filter = self.filter()?;
        Ok(Statement::Delete { table, filter })
    }
}

/// Parse a query string into its `;`-separated statements. An empty
/// (or all-comment) string parses to an empty vector — the caller
/// answers `EmptyQueryResponse`.
pub fn parse(sql: &str) -> Result<Vec<Statement>, PgError> {
    let toks = tokenize(sql)?;
    let mut p = Parser { toks, at: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat_symbol(';') {}
        if p.peek().is_none() {
            return Ok(out);
        }
        out.push(p.statement()?);
        match p.peek() {
            None => return Ok(out),
            Some(Token::Symbol(';')) => continue,
            Some(_) => return Err(PgError::syntax("expected ; between statements")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_the_subset() {
        let stmts = parse(
            "CREATE TABLE kv (k bigint primary key, v bigint);\n\
             CREATE UNIQUE INDEX kv_k ON kv USING sf (k);\n\
             INSERT INTO kv (k, v) VALUES (1, 10), (2, -20);\n\
             SELECT k, v FROM kv WHERE k = 1;\n\
             SELECT * FROM kv WHERE k BETWEEN 1 AND 2;\n\
             UPDATE kv SET v = 3 WHERE k = 2;\n\
             DELETE FROM kv WHERE k = 1;\n\
             BEGIN; COMMIT; ROLLBACK;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 10);
        assert_eq!(
            stmts[0],
            Statement::CreateTable {
                name: "kv".into(),
                cols: vec!["k".into(), "v".into()],
            }
        );
        assert_eq!(
            stmts[1],
            Statement::CreateIndex {
                unique: true,
                name: "kv_k".into(),
                table: "kv".into(),
                cols: vec!["k".into()],
                algo: Some("sf".into()),
                with_options: vec![],
            }
        );
        assert_eq!(
            stmts[2],
            Statement::Insert {
                table: "kv".into(),
                cols: Some(vec!["k".into(), "v".into()]),
                rows: vec![vec![1, 10], vec![2, -20]],
            }
        );
        assert!(
            matches!(&stmts[3], Statement::Select { filter: Some(Filter::Eq(c, 1)), .. } if c == "k")
        );
        assert!(matches!(
            &stmts[4],
            Statement::Select {
                cols: SelectCols::Star,
                filter: Some(Filter::Between(_, 1, 2)),
                ..
            }
        ));
        assert_eq!(stmts[7], Statement::Begin);
        assert_eq!(stmts[8], Statement::Commit);
        assert_eq!(stmts[9], Statement::Rollback);
    }

    #[test]
    fn create_index_with_options_parses() {
        let stmts = parse(
            "CREATE INDEX kv_v ON kv USING sf (v) \
             WITH (parallel_workers = 4, compress_runs = on, \
                   sorted_drain = off, checkpoint_every = 5000)",
        )
        .unwrap();
        assert_eq!(
            stmts[0],
            Statement::CreateIndex {
                unique: false,
                name: "kv_v".into(),
                table: "kv".into(),
                cols: vec!["v".into()],
                algo: Some("sf".into()),
                with_options: vec![
                    ("parallel_workers".into(), "4".into()),
                    ("compress_runs".into(), "on".into()),
                    ("sorted_drain".into(), "off".into()),
                    ("checkpoint_every".into(), "5000".into()),
                ],
            }
        );
        // A WITH clause without parentheses is a syntax error.
        assert_eq!(
            parse("CREATE INDEX i ON t (k) WITH parallel_workers = 2")
                .unwrap_err()
                .sqlstate,
            "42601"
        );
    }

    #[test]
    fn empty_and_comments_parse_empty() {
        assert!(parse("").unwrap().is_empty());
        assert!(parse("  ;; -- nothing\n /* still nothing */ ;")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn keywords_case_insensitive_quotes_preserved() {
        let stmts = parse("select \"K\" from KV").unwrap();
        assert_eq!(
            stmts[0],
            Statement::Select {
                table: "kv".into(),
                cols: SelectCols::Cols(vec!["K".into()]),
                filter: None,
            }
        );
    }

    #[test]
    fn rejections_carry_sqlstates() {
        assert_eq!(parse("SELEC 1").unwrap_err().sqlstate, "0A000");
        assert_eq!(parse("SELECT FROM").unwrap_err().sqlstate, "42601");
        assert_eq!(parse("DROP TABLE kv").unwrap_err().sqlstate, "0A000");
        assert_eq!(
            parse("INSERT INTO kv VALUES ('x')").unwrap_err().sqlstate,
            "0A000"
        );
        assert_eq!(
            parse("DELETE FROM kv WHERE k > 3").unwrap_err().sqlstate,
            "0A000"
        );
        // Unqualified UPDATE/DELETE refuse at parse time.
        assert_eq!(parse("DELETE FROM kv").unwrap_err().sqlstate, "42601");
    }

    #[test]
    fn control_statements_classified_inline() {
        assert!(!query_may_block("BEGIN"));
        assert!(!query_may_block("  commit ;"));
        assert!(!query_may_block(";; RollBack"));
        assert!(!query_may_block("-- comment\nCOMMIT"));
        assert!(!query_may_block(""));
        assert!(query_may_block("INSERT INTO kv VALUES (1)"));
        assert!(query_may_block("SELECT * FROM kv"));
        assert!(query_may_block("garbage ###"));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The tokenizer and parser are total over arbitrary input.
        #[test]
        fn parser_never_panics(sql in ".{0,120}") {
            let _ = parse(&sql);
            let _ = query_may_block(&sql);
        }

        /// Round-trip: a rendered INSERT re-parses to itself.
        #[test]
        fn insert_roundtrips(rows in prop::collection::vec(
            prop::collection::vec(any::<i64>(), 1..4), 1..4))
        {
            let arity = rows[0].len();
            let rows: Vec<Vec<i64>> =
                rows.into_iter().map(|mut r| { r.resize(arity, 0); r }).collect();
            let rendered = format!(
                "INSERT INTO t VALUES {}",
                rows.iter()
                    .map(|r| format!(
                        "({})",
                        r.iter().map(i64::to_string).collect::<Vec<_>>().join(", ")
                    ))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let stmts = parse(&rendered).unwrap();
            prop_assert_eq!(
                stmts,
                vec![Statement::Insert { table: "t".into(), cols: None, rows }]
            );
        }

        /// Round-trip: point and range SELECTs re-parse to themselves.
        #[test]
        fn select_roundtrips(k in any::<i64>(), hi in any::<i64>()) {
            let stmts = parse(&format!("SELECT * FROM t WHERE k = {k}")).unwrap();
            prop_assert_eq!(stmts, vec![Statement::Select {
                table: "t".into(),
                cols: SelectCols::Star,
                filter: Some(Filter::Eq("k".into(), k)),
            }]);
            let stmts = parse(&format!("SELECT a FROM t WHERE k BETWEEN {k} AND {hi}")).unwrap();
            prop_assert_eq!(stmts, vec![Statement::Select {
                table: "t".into(),
                cols: SelectCols::Cols(vec!["a".into()]),
                filter: Some(Filter::Between("k".into(), k, hi)),
            }]);
        }
    }
}
