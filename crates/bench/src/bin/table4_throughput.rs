//! **Table IV**: throughput of HE operations (instances per second) for
//! FATE / HAFLO / FLBooster across models, datasets, and key sizes.
//!
//! Two numbers per cell:
//!
//! - **measured** — real crypto at the harness scale (a few hundred
//!   values). GPU backends are *under-utilization-bound* here: a small
//!   batch cannot fill 82 SMs, exactly as a small batch would not fill
//!   the paper's RTX 3090.
//! - **modeled** — the paper's Sec. V-B analysis (Eq. 10) evaluated at
//!   device saturation (hundreds of thousands of concurrent operations,
//!   the regime Table IV was measured in).
//!
//! Paper reference shapes @1024: FATE ~360/s, HAFLO ~59 k/s, FLBooster
//! ~0.4–0.5 M/s; throughput falls ~6× per key-size doubling.
//!
//! ```text
//! cargo run -p flbooster-bench --release --bin table4_throughput -- [--keys ...]
//! ```

use fl::BackendKind;
use flbooster_bench::table::Table;
use flbooster_bench::{backend, bench_dataset, shared_keys, Args, ModelKind, PARTICIPANTS};
use gpu_sim::{resource::ResourceManager, Device, DeviceConfig};
use he::ghe::DEFAULT_CPU_SECONDS_PER_OP;
use he::GpuHe;

/// Characteristic per-round HE vector length for a model on a dataset.
fn workload_values(model: ModelKind, dataset: &fl::data::Dataset) -> usize {
    match model {
        ModelKind::HomoLr => dataset.num_features,
        ModelKind::HeteroLr => dataset.num_features + 2 * 64,
        ModelKind::HeteroSbt => 2 * dataset.len(),
        ModelKind::HeteroNn => 2 * 64 * fl::models::HIDDEN,
    }
    .clamp(16, 256)
}

/// Eq.-10-style saturated throughput model: one encrypt + one homomorphic
/// add + one decrypt per instance, `1e6` instances in flight.
fn modeled_throughput(kind: BackendKind, key_bits: u32) -> f64 {
    let keys = shared_keys(key_bits);
    let ops_per_item = keys.public.encrypt_op_estimate()
        + keys.public.add_op_estimate()
        + keys.private.decrypt_op_estimate();
    let values_per_ct = match kind {
        BackendKind::FlBooster | BackendKind::WithoutGhe => {
            (key_bits / 32).saturating_sub(1).max(1) as f64
        }
        _ => 1.0,
    };
    match kind {
        BackendKind::Fate | BackendKind::WithoutGhe => {
            values_per_ct / (ops_per_item as f64 * DEFAULT_CPU_SECONDS_PER_OP)
        }
        _ => {
            let device = match kind {
                BackendKind::Haflo => {
                    Device::with_manager(DeviceConfig::rtx3090(), ResourceManager::fixed(256))
                }
                _ => Device::new(DeviceConfig::rtx3090()),
            };
            let cfg = device.config();
            let spec = GpuHe::kernel_spec("saturated", key_bits, true);
            let items = 1_000_000usize;
            let plan = device.manager().plan(cfg, &spec, items);
            let concurrent = plan.concurrent_threads(cfg).max(1) as f64;
            let kernel_seconds =
                items as f64 * ops_per_item as f64 / concurrent * cfg.sec_per_thread_op;
            let ct_bytes = (2 * key_bits as u64).div_ceil(8);
            let transfer_seconds =
                (items as u64 * 2 * ct_bytes) as f64 / cfg.transfer_bytes_per_sec;
            items as f64 * values_per_ct / (kernel_seconds + transfer_seconds)
        }
    }
}

fn main() {
    let args = Args::parse();
    let preset = args.preset();
    let keys = args.key_sizes();

    println!("Table IV — HE throughput in instances/simulated second ({preset:?} preset)");
    println!("Each cell: measured-at-harness-scale / modeled-at-saturation (Eq. 10)\n");
    let mut table = Table::new(["Dataset", "Model", "Key", "FATE", "HAFLO", "FLBooster"]);

    for dataset_kind in args.datasets() {
        let data = bench_dataset(dataset_kind, preset);
        for model_kind in args.models() {
            let n = workload_values(model_kind, &data);
            let values: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.61).sin() * 0.9).collect();
            for &key_bits in &keys {
                let mut cells = Vec::new();
                for backend_kind in BackendKind::headline() {
                    let acc = backend(backend_kind, key_bits, PARTICIPANTS);
                    let (enc, enc_t) = acc.encrypt_timed(&values, 7).expect("encrypt");
                    let (agg, agg_t) = acc.aggregate(&[enc.clone(), enc]).expect("aggregate");
                    let (_, dec_t) = acc.decrypt_sum_timed(&agg, 2).expect("decrypt");
                    let t = enc_t + agg_t + dec_t;
                    let measured = 2.0 * n as f64 / t.he_seconds;
                    let modeled = modeled_throughput(backend_kind, key_bits);
                    cells.push(format!("{measured:.0} / {modeled:.0}"));
                }
                table.row([
                    dataset_kind.name().to_string(),
                    model_kind.name().to_string(),
                    key_bits.to_string(),
                    cells[0].clone(),
                    cells[1].clone(),
                    cells[2].clone(),
                ]);
            }
        }
    }
    table.print();
    println!("\nPaper reference @1024: FATE ~360/s, HAFLO ~59k/s, FLBooster ~400-530k/s;");
    println!("throughput falls ~6x per key-size doubling (modeled column).");
}
