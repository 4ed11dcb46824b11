//! The correctness gate. Every violation is collected, printed, and
//! turns the exit code non-zero: a fast wrong answer is not a result.

use crate::env::TABLE;
use crate::fg::Acked;
use mohan_common::IndexId;
use mohan_oib::runtime::IndexState;
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use std::sync::Arc;

#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    pub fn exit_code(&self) -> i32 {
        i32::from(!self.failures.is_empty())
    }
}

/// Every audited insert was acknowledged before the crash, so after
/// `restart()` it must read back exactly as sent. The generators
/// never update or delete a row they inserted.
pub fn audit_durability(db: &Db, acked: &[Acked]) -> Result<(), String> {
    for a in acked {
        match db.read_record(TABLE, a.rid) {
            Ok(rec) if rec.0 == a.cols => {}
            Ok(rec) => {
                return Err(format!(
                    "acknowledged insert at {} reads back {:?}, sent {:?}",
                    a.rid, rec.0, a.cols
                ))
            }
            Err(e) => return Err(format!("acknowledged insert at {} lost: {e}", a.rid)),
        }
    }
    Ok(())
}

/// The index is usable (`Complete`) and agrees entry for entry with
/// the table. Call with no transaction in flight.
pub fn check_index(db: &Arc<Db>, id: IndexId) -> Result<(), String> {
    let state = db.index(id).map_err(|e| e.to_string())?.state();
    if state != IndexState::Complete {
        return Err(format!("index {id} is {state:?}, not Complete"));
    }
    verify_index(db, id).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mohan_common::{EngineConfig, Rid};
    use mohan_oib::build::{build_index, IndexSpec};
    use mohan_oib::schema::{BuildAlgorithm, Record};

    fn small_db(rows: i64) -> (Arc<Db>, Vec<Acked>) {
        let db = Db::new(EngineConfig::small());
        db.create_table(TABLE);
        let tx = db.begin();
        let acked = (0..rows)
            .map(|k| {
                let cols = vec![k, k * 7, k % 3, -k];
                let rid = db
                    .insert_record(tx, TABLE, &Record::new(cols.clone()))
                    .unwrap();
                Acked { rid, cols }
            })
            .collect();
        db.commit(tx).unwrap();
        (db, acked)
    }

    #[test]
    fn a_rid_never_inserted_fails_the_audit_and_the_run() {
        let (db, mut acked) = small_db(50);
        db.simulate_crash();
        db.restart().unwrap();
        let mut checks = Checks::default();
        checks.record("durability", audit_durability(&db, &acked));
        assert_eq!(checks.exit_code(), 0, "{:?}", checks.failures);

        acked.push(Acked {
            rid: Rid::new(9_999, 0),
            cols: vec![1, 2, 3, 4],
        });
        checks.record("durability", audit_durability(&db, &acked));
        assert_eq!(checks.exit_code(), 1);
        assert!(checks.failures[0].contains("lost"), "{:?}", checks.failures);
    }

    #[test]
    fn an_index_left_unresumed_after_restart_fails_the_run() {
        let (db, _) = small_db(400);
        db.failpoints.arm_after("sf.load.key", 200);
        let spec = IndexSpec {
            name: "half".into(),
            key_cols: vec![1, 0],
            unique: false,
        };
        let err = build_index(&db, TABLE, spec, BuildAlgorithm::Sf).unwrap_err();
        assert!(err.is_crash(), "{err}");
        db.simulate_crash();
        db.restart().unwrap();
        let id = db.indexes_of(TABLE).last().unwrap().def.id;

        let mut checks = Checks::default();
        checks.record("index", check_index(&db, id));
        assert_eq!(checks.exit_code(), 1);
        assert!(
            checks.failures[0].contains("not Complete"),
            "{:?}",
            checks.failures
        );

        mohan_oib::build::resume_build(&db, id).unwrap();
        assert_eq!(check_index(&db, id), Ok(()));
    }
}
