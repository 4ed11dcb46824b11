//! Set-up: the seeded table, the server in front of it and the
//! connections to it.

use mohan_bench::workload::bench_config;
pub use mohan_bench::workload::TABLE;
use mohan_client::Client;
use mohan_common::{IoBackendChoice, Rid};
use mohan_oib::schema::Record;
use mohan_oib::Db;
use mohan_server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Rows seeded before every workload.
pub const ROWS: i64 = 500_000;

/// Distinct values of the `bucket` column: few, so the three-column
/// key of `bulk_parallel` has long shared prefixes to compress.
const BUCKETS: i64 = 16;

/// One worker shard, everything else the shipped defaults — written
/// out where a default reads the environment, so the environment
/// cannot change what is measured.
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        pg_bind_addr: None,
        http_bind_addr: None,
        trace_sample_one_in: 1,
        io_backend: IoBackendChoice::Auto,
        ..ServerConfig::default()
    }
}

/// A row `[k, payload, bucket, k_desc]`. `k` and `k_desc = -k` never
/// change, which is what reads are checked against.
pub fn row(k: i64, rng: &mut StdRng) -> Vec<i64> {
    vec![
        k,
        rng.random_range(0..1_000_000i64),
        rng.random_range(0..BUCKETS),
        -k,
    ]
}

pub struct Env {
    pub db: Arc<Db>,
    /// RID of seeded row `k`, at index `k`.
    pub rids: Arc<Vec<Rid>>,
    pub server: Server,
    pub clients: Vec<Client>,
}

impl Env {
    /// Seed the table in process, start the server, connect.
    pub fn set_up(seed: u64, connections: usize) -> Result<Env, String> {
        let db = Db::new(bench_config());
        db.create_table(TABLE);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rids = Vec::with_capacity(ROWS as usize);
        let mut tx = db.begin();
        for k in 0..ROWS {
            let rid = db
                .insert_record(tx, TABLE, &Record::new(row(k, &mut rng)))
                .map_err(|e| format!("seed insert {k}: {e}"))?;
            rids.push(rid);
            if k % 5_000 == 4_999 {
                db.commit(tx).map_err(|e| format!("seed commit: {e}"))?;
                tx = db.begin();
            }
        }
        db.commit(tx).map_err(|e| format!("seed commit: {e}"))?;
        let server = Server::start(Arc::clone(&db), server_config())
            .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr();
        let clients = (0..connections)
            .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Env {
            db,
            rids: Arc::new(rids),
            server,
            clients,
        })
    }
}
