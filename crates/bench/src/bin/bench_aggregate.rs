//! **Aggregation scaling benchmark**: sharded Straus throughput versus
//! shard count at fixed memory, and flat versus k-ary edge-aggregator
//! tree at growing party counts. Results go to
//! `results/BENCH_aggregate.json`.
//!
//! Two measurement families:
//!
//! * **Shard sweep** — one `parties`-way, single-slot weighted fold at
//!   the anchor key size, re-run at each shard count. The ciphertext
//!   working set is identical at every setting (the shards slice one
//!   stream — fixed memory), so the sweep isolates the split itself.
//!   Wall-clock ops/sec is recorded for the curious, but the *gate*
//!   rides on the MAC-derived critical-path estimate
//!   ([`he::paillier::PaillierPublicKey::weighted_sum_critical_path_estimate`]):
//!   flat MACs over widest-shard-plus-merge MACs is what a
//!   `shards`-wide pool tracks, and it is deterministic — the harness
//!   host may have any number of cores (including one).
//! * **Flat vs tree** — full [`fl::Accelerator`] rounds with the
//!   FLBooster backend: edge aggregators fold their fan-in on simulated
//!   GPU devices (charged from the sharded MAC estimates), partials ride
//!   up the tree with per-hop wire charges from [`fl::Network`].
//!
//! Gates (exit 1 on failure; `run_harness.sh` traps them):
//!
//! 1. **Bit identity** — every sharded result and every tree result must
//!    equal the flat fold's ciphertexts exactly.
//! 2. **Scaling floor** — modeled critical-path speedup at 4 shards must
//!    be ≥ 1.5× flat (1024-bit anchor).
//! 3. **Flat no-regression** — the sharded estimate at 1 shard must
//!    equal the flat estimate *exactly*, and measured single-shard
//!    wall-clock must stay within 25 % of the flat entry point (they run
//!    the same code path).
//!
//! ```text
//! cargo run -p flbooster-bench --release --bin bench_aggregate -- \
//!     [--keys 1024] [--parties 10000] [--quick] \
//!     [--out results/BENCH_aggregate.json]
//! ```

use std::time::Instant;

use fl::backend::EncryptedVector;
use fl::{AggregationTopology, BackendKind, Network};
use flbooster_bench::table::Table;
use flbooster_bench::{backend, shared_keys, Args};
use he::paillier::{Ciphertext, PaillierKeyPair};
use mpint::Natural;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Aggregation-weight width: quantized per-party sample counts.
const WEIGHT_BITS: u32 = 32;
/// Shard counts swept at fixed memory.
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Edge-aggregator fan-in for the tree comparison.
const TREE_ARITY: usize = 16;
/// Minimum wall-clock per measurement before we trust the mean.
const MIN_MEASURE_SECS: f64 = 0.2;
/// Shard-1 wall-clock may not fall below this fraction of the flat
/// entry point's (identical code path; the band absorbs timer noise).
const FLAT_BAND: f64 = 0.75;
/// Modeled critical-path scaling floor at 4 shards.
const SCALING_FLOOR: f64 = 1.5;

/// Distinct ciphertexts generated before tiling (bounds keygen-side
/// encryption work; aggregation cost does not depend on repetition).
const BASE_CTS: usize = 64;

/// Calls `body` repeatedly until at least [`MIN_MEASURE_SECS`] of
/// wall-clock accumulates, returning operations per second.
// flcheck: det-absorb — pure stopwatch helper: wall-clock is the measured
// quantity and never reaches ciphertext bytes
fn ops_per_sec(mut body: impl FnMut()) -> f64 {
    // Warm-up pass so lazy setup (pool threads, page faults) is unbilled.
    body();
    let mut reps = 0u64;
    let start = Instant::now();
    loop {
        body();
        reps += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= MIN_MEASURE_SECS {
            return reps as f64 / elapsed;
        }
    }
}

/// Deterministic odd 32-bit aggregation weights.
fn weights(count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|k| (k.wrapping_mul(2_654_435_761) & 0xFFFF_FFFF) | 1)
        .collect()
}

/// `parties` ciphertexts tiled from [`BASE_CTS`] distinct encryptions.
fn party_cts(keys: &PaillierKeyPair, parties: usize) -> Vec<Ciphertext> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA66_05 ^ parties as u64);
    let base: Vec<Ciphertext> = (0..BASE_CTS.min(parties))
        .map(|i| {
            let m = Natural::from(rng.next_u64());
            let r = keys.public.batch_blinding(0xA66, i);
            keys.public.encrypt_with_r(&m, &r).expect("encrypt")
        })
        .collect();
    (0..parties).map(|i| base[i % base.len()].clone()).collect()
}

struct ShardRow {
    shards: usize,
    wall_ops_sec: f64,
    total_limb_mults: u64,
    critical_path_limb_mults: u64,
    modeled_scaling: f64,
    identical: bool,
}

struct TreeRow {
    parties: usize,
    uplink_messages: u64,
    uplink_bytes: u64,
    uplink_sim_seconds: f64,
    flat_sim_he_seconds: f64,
    tree_sim_he_seconds: f64,
    identical: bool,
}

fn shard_sweep(keys: &PaillierKeyPair, parties: usize) -> Vec<ShardRow> {
    let pk = &keys.public;
    let cts = party_cts(keys, parties);
    let wnat: Vec<Natural> = weights(parties).iter().map(|&w| Natural::from(w)).collect();
    let flat = pk.weighted_sum(&cts, &wnat).expect("flat fold");
    let flat_est = pk.weighted_sum_op_estimate(parties, WEIGHT_BITS);
    SHARD_SWEEP
        .iter()
        .map(|&shards| {
            let result = pk
                .weighted_sum_sharded(&cts, &wnat, shards)
                .expect("sharded fold");
            let wall = ops_per_sec(|| {
                std::hint::black_box(
                    pk.weighted_sum_sharded(&cts, &wnat, shards)
                        .expect("sharded fold"),
                );
            });
            let cp = pk.weighted_sum_critical_path_estimate(parties, WEIGHT_BITS, shards);
            ShardRow {
                shards,
                wall_ops_sec: wall,
                total_limb_mults: pk.weighted_sum_sharded_op_estimate(parties, WEIGHT_BITS, shards),
                critical_path_limb_mults: cp,
                modeled_scaling: flat_est as f64 / cp.max(1) as f64,
                identical: result == flat,
            }
        })
        .collect()
}

fn tree_compare(key_bits: u32, parties: usize, shards: usize) -> TreeRow {
    let keys = shared_keys(key_bits);
    let cts = party_cts(&keys, parties);
    let vectors: Vec<EncryptedVector> = cts
        .into_iter()
        .map(|ct| EncryptedVector {
            cts: vec![ct],
            count: 1,
        })
        .collect();
    let ws = weights(parties);

    let (flat, flat_t) = backend(BackendKind::FlBooster, key_bits, 4)
        .aggregate_weighted(&vectors, &ws)
        .expect("flat aggregate");

    let topology = AggregationTopology::tree(TREE_ARITY);
    let tree_acc = backend(BackendKind::FlBooster, key_bits, 4)
        .with_topology(topology)
        .with_aggregation_shards(shards);
    let (tree, tree_t) = tree_acc
        .aggregate_weighted(&vectors, &ws)
        .expect("tree aggregate");

    // Per-hop wire charges for the intermediate partial aggregates.
    let net = Network::new(tree_acc.network_profile(), 0x7EE);
    let hops = topology.uplink_messages(parties);
    let mut uplink_sim_seconds = 0.0;
    for _ in 0..hops {
        uplink_sim_seconds += net
            .send(tree.ciphertext_count(), tree.bytes())
            .expect("uplink send");
    }

    TreeRow {
        parties,
        uplink_messages: hops,
        uplink_bytes: hops * tree.bytes(),
        uplink_sim_seconds,
        flat_sim_he_seconds: flat_t.he_seconds,
        tree_sim_he_seconds: tree_t.he_seconds,
        identical: tree == flat,
    }
}

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let key_bits = args.key_sizes_or(&[1024])[0];
    let parties: usize = args
        .get("parties")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let tree_parties: Vec<usize> = if quick {
        vec![1_000, 4_000]
    } else {
        vec![1_000, 10_000, 100_000]
    };
    let out_path = args
        .get("out")
        .unwrap_or("results/BENCH_aggregate.json")
        .to_string();

    println!(
        "Aggregation scaling — {key_bits}-bit keys, {parties} parties, \
         shards {SHARD_SWEEP:?}, tree arity {TREE_ARITY}, parties {tree_parties:?}\n"
    );

    let keys = shared_keys(key_bits);
    let shard_rows = shard_sweep(&keys, parties);
    let mut table = Table::new([
        "Shards",
        "Wall ops/s",
        "Total mults",
        "Critical-path mults",
        "Modeled scaling",
        "Identical",
    ]);
    for r in &shard_rows {
        table.row([
            r.shards.to_string(),
            format!("{:.2}", r.wall_ops_sec),
            r.total_limb_mults.to_string(),
            r.critical_path_limb_mults.to_string(),
            format!("{:.2}x", r.modeled_scaling),
            r.identical.to_string(),
        ]);
    }
    table.print();
    println!();

    let tree_rows: Vec<TreeRow> = tree_parties
        .iter()
        .map(|&p| tree_compare(key_bits, p, 4))
        .collect();
    let mut ttable = Table::new([
        "Parties",
        "Uplink msgs",
        "Uplink bytes",
        "Uplink sim s",
        "Flat HE sim s",
        "Tree HE sim s",
        "Identical",
    ]);
    for r in &tree_rows {
        ttable.row([
            r.parties.to_string(),
            r.uplink_messages.to_string(),
            r.uplink_bytes.to_string(),
            format!("{:.4}", r.uplink_sim_seconds),
            format!("{:.4}", r.flat_sim_he_seconds),
            format!("{:.4}", r.tree_sim_he_seconds),
            r.identical.to_string(),
        ]);
    }
    ttable.print();

    // JSON artifact (hand-rolled; the offline workspace has no serde).
    let mut json = format!(
        "{{\n  \"key_bits\": {key_bits},\n  \"weight_bits\": {WEIGHT_BITS},\n  \
         \"parties\": {parties},\n  \"tree_arity\": {TREE_ARITY},\n  \"shard_sweep\": [\n"
    );
    for (i, r) in shard_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"wall_ops_sec\": {:.3}, \"total_limb_mults\": {}, \
             \"critical_path_limb_mults\": {}, \"modeled_scaling\": {:.3}, \
             \"identical_to_flat\": {}}}{}\n",
            r.shards,
            r.wall_ops_sec,
            r.total_limb_mults,
            r.critical_path_limb_mults,
            r.modeled_scaling,
            r.identical,
            if i + 1 < shard_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"tree\": [\n");
    for (i, r) in tree_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"parties\": {}, \"uplink_messages\": {}, \"uplink_bytes\": {}, \
             \"uplink_sim_seconds\": {:.6}, \"flat_sim_he_seconds\": {:.6}, \
             \"tree_sim_he_seconds\": {:.6}, \"identical_to_flat\": {}}}{}\n",
            r.parties,
            r.uplink_messages,
            r.uplink_bytes,
            r.uplink_sim_seconds,
            r.flat_sim_he_seconds,
            r.tree_sim_he_seconds,
            r.identical,
            if i + 1 < tree_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out_path, &json).expect("write results");
    println!("\nWrote {out_path}");

    let mut failed = false;

    // Gate 1: bit identity everywhere.
    for r in &shard_rows {
        if !r.identical {
            println!(
                "GATE FAILED: {} shards diverged from the flat fold",
                r.shards
            );
            failed = true;
        }
    }
    for r in &tree_rows {
        if !r.identical {
            println!(
                "GATE FAILED: tree aggregate at {} parties diverged from flat",
                r.parties
            );
            failed = true;
        }
    }
    if !failed {
        println!("gate ok: sharded and tree results bit-identical to flat");
    }

    // Gate 2: modeled critical-path scaling floor at 4 shards.
    if let Some(r4) = shard_rows.iter().find(|r| r.shards == 4) {
        if r4.modeled_scaling < SCALING_FLOOR {
            println!(
                "GATE FAILED: modeled scaling {:.2}x at 4 shards < required {SCALING_FLOOR}x",
                r4.modeled_scaling
            );
            failed = true;
        } else {
            println!(
                "gate ok: modeled scaling {:.2}x at 4 shards >= {SCALING_FLOOR}x",
                r4.modeled_scaling
            );
        }
    }

    // Gate 3: flat no-regression — estimates equal exactly at 1 shard,
    // and single-shard wall-clock within the noise band of the flat
    // entry point.
    let pk = &keys.public;
    let flat_est = pk.weighted_sum_op_estimate(parties, WEIGHT_BITS);
    let shard1_est = pk.weighted_sum_sharded_op_estimate(parties, WEIGHT_BITS, 1);
    if shard1_est != flat_est {
        println!("GATE FAILED: 1-shard estimate {shard1_est} != flat estimate {flat_est}");
        failed = true;
    } else {
        println!("gate ok: 1-shard estimate equals flat estimate ({flat_est})");
    }
    if let Some(r1) = shard_rows.iter().find(|r| r.shards == 1) {
        let cts = party_cts(&keys, parties);
        let wnat: Vec<Natural> = weights(parties).iter().map(|&w| Natural::from(w)).collect();
        let flat_wall = ops_per_sec(|| {
            std::hint::black_box(pk.weighted_sum(&cts, &wnat).expect("flat fold"));
        });
        let ratio = if flat_wall > 0.0 {
            r1.wall_ops_sec / flat_wall
        } else {
            1.0
        };
        if ratio < FLAT_BAND {
            println!(
                "GATE FAILED: 1-shard wall {:.2} ops/s fell under {FLAT_BAND} of flat {:.2}",
                r1.wall_ops_sec, flat_wall
            );
            failed = true;
        } else {
            println!(
                "gate ok: 1-shard wall {:.2} ops/s within band of flat {:.2} (ratio {:.2})",
                r1.wall_ops_sec, flat_wall, ratio
            );
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("All aggregation gates passed.");
}
