//! Query-server quickstart: snapshot N tenant tables to disk, register them
//! on a [`QueryServer`] (lazy — nothing opens until first use), hammer the
//! server with concurrent single-key clients, and dump the coalescing /
//! admission-control stats the server collected along the way.
//!
//! Run with `cargo run --release --example server_quickstart`.

use deepmapping::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_rows(tenant: u64, n: u64) -> Vec<Row> {
    (0..n)
        .map(|k| {
            let noise = ((k ^ tenant).wrapping_mul(0x9E3779B97F4A7C15) >> 17) as u32;
            Row::new(k, vec![((k / 64) % 3) as u32, noise % 5])
        })
        .collect()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("dm-server-quickstart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // 1. Build and snapshot three tenant tables. In a real deployment these
    //    files already exist; the server never needs the builder.
    let tenant_names = ["orders", "lineitem", "customers"];
    let mut paths = Vec::new();
    for (i, name) in tenant_names.iter().enumerate() {
        let rows = build_rows(i as u64, 12_000);
        let dm = DeepMappingBuilder::dm_z()
            .training(TrainingConfig {
                epochs: 10,
                batch_size: 4096,
                ..TrainingConfig::default()
            })
            .partition_bytes(32 * 1024)
            .build(&rows)
            .expect("build tenant");
        let path = dir.join(format!("{name}.dmss"));
        dm.write_snapshot(&path).expect("write snapshot");
        paths.push(path);
    }

    // 2. Register all tenants on one server. Registration is free: snapshots
    //    open lazily (and exactly once) on each tenant's first request.
    let server = QueryServer::new(ServerConfig::coalescing(Duration::from_micros(100), 256));
    for (name, path) in tenant_names.iter().zip(&paths) {
        server.register_snapshot(name, path).expect("register tenant");
    }
    println!("registered tenants (none opened yet): {:?}", server.tenants());

    // 3. Concurrent clients issue small interleaved requests; the server
    //    coalesces them into batches per tenant. A caller that waits runs the
    //    queued requests on its own thread while a core is free, so the
    //    100 µs window is never sat out by a synchronous `get`; once every
    //    core is busy the other callers park and their requests join the next
    //    batch.
    let server = Arc::new(server);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..4u64 {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                let mut client = server.client();
                let mut hits = 0usize;
                for i in 0..2_000u64 {
                    let name = tenant_names[((c + i) % 3) as usize];
                    let tenant = server.tenant(name).expect("tenant id");
                    let key = (c * 31 + i * 7) % 13_000;
                    if client.get(tenant, key).expect("lookup").is_some() {
                        hits += 1;
                    }
                }
                println!("client {c}: 2000 single-key requests, {hits} hits");
            });
        }
    });
    let wall = started.elapsed();

    // 4. Dump what the server observed.
    let stats = server.stats();
    println!("\ntenants after traffic (all opened lazily): {:?}", server.tenants());
    println!(
        "served {} requests / {} keys in {:.2?} ({:.0} keys/s aggregate)",
        stats.requests_completed,
        stats.keys_served,
        wall,
        stats.keys_served as f64 / wall.as_secs_f64()
    );
    println!(
        "coalescing: {} batches, mean width {:.1} (max {}), mean queue delay {:.1?}",
        stats.batches_formed,
        stats.mean_coalesce_width(),
        stats.max_coalesce_width,
        stats.mean_queue_delay()
    );
    println!(
        "batches, each run on a client thread: {} by a waiting caller, {} found full and {} found past the window by a submit",
        stats.batches_on_caller,
        stats.batches_full,
        stats.batches_at_window
    );
    println!(
        "latency: mean request wall {:.1?}; admission: {} shed, {} failed",
        stats.mean_request_wall(),
        stats.requests_shed,
        stats.requests_failed
    );
    println!(
        "lazy opens: {} tenants in {:.2} ms total",
        stats.tenants_opened,
        stats.tenant_open_nanos as f64 / 1e6
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
