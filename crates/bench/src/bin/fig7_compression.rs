//! **Figure 7**: compression ratio of FLBooster vs key size, per model.
//!
//! Paper claims to reproduce: ~2 orders of magnitude fewer ciphertexts;
//! the ratio doubles with the key size (more slots per plaintext) and is
//! nearly identical across models and datasets.
//!
//! Both the theoretical ratio (Eq. 11) and the measured ratio (actual
//! ciphertext counts out of the backend) are printed.
//!
//! ```text
//! cargo run -p flbooster-bench --release --bin fig7_compression -- [--keys ...]
//! ```

use fl::BackendKind;
use flbooster_bench::table::Table;
use flbooster_bench::{backend, bench_dataset, Args, DatasetKind, ModelKind, PARTICIPANTS};
use flbooster_core::analysis;

fn main() {
    let args = Args::parse();
    let preset = args.preset();
    let keys = args.key_sizes();

    println!("Figure 7 — batch-compression ratio vs key size ({preset:?} preset)\n");
    let mut table = Table::new(["Model", "Key", "Measured", "Eq. 11 bound", "PSU (Eq. 12)"]);

    for model_kind in args.models() {
        let data = bench_dataset(DatasetKind::Synthetic, preset);
        let n = match model_kind {
            ModelKind::HomoLr | ModelKind::HeteroLr => data.num_features.max(512),
            ModelKind::HeteroSbt => 2 * data.len().max(256),
            ModelKind::HeteroNn => 2 * 64 * fl::models::HIDDEN,
        };
        let values: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).sin() * 0.7).collect();

        for &key_bits in &keys {
            let acc = backend(BackendKind::FlBooster, key_bits, PARTICIPANTS);
            let enc = acc.encrypt_timed(&values, 5).expect("encrypt").0;
            let measured = values.len() as f64 / enc.ciphertext_count() as f64;
            let r_bits = acc.codec().quantizer().config().r_bits;
            let theory = analysis::compression_ratio(n as u64, key_bits, r_bits, PARTICIPANTS);
            let psu =
                analysis::plaintext_space_utilization(n as u64, key_bits, r_bits, PARTICIPANTS);
            table.row([
                model_kind.name().to_string(),
                key_bits.to_string(),
                format!("{measured:.1}x"),
                format!("{theory:.1}x"),
                format!("{psu:.3}"),
            ]);
        }
    }
    table.print();
    println!("\nPaper reference: ~32x at 1024 bits, ~64x at 2048, ~128x at 4096, uniform");
    println!("across models (the ratio depends only on the key size).");
}
