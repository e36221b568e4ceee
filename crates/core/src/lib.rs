//! The FLBooster platform (paper Sec. IV–V).
//!
//! This crate ties the substrates together into the system the paper
//! describes (Fig. 3's four layers):
//!
//! - **GPU-HE** comes from [`he::ghe`] running on a [`gpu_sim::Device`].
//! - **Encoding-Quantization** and **Batch Compression** come from
//!   [`codec`].
//! - **API Interfaces** (paper Table I) are the vectorized
//!   multi-precision and cryptographic entry points in [`api`].
//! - The **theoretical analysis** of paper Sec. V-B (Eq. 10–14) is
//!   implemented in [`analysis`] and cross-checked against the simulator
//!   in the bench harness.
//!
//! The **pipelined processing** of paper Fig. 4 — quantize → pack →
//! encrypt → fold → decrypt → unpack — lives one layer up, in `fl`'s
//! `Accelerator`, parameterised by the backend under test; secure
//! aggregation rounds run on `fl::engine::run_round`.
//!
//! # Example
//!
//! ```
//! use flbooster_core::api::FlBoosterApi;
//! use mpint::Natural;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let api = FlBoosterApi::new();
//! let keys = api.paillier_key_gen(&mut rng, 256).unwrap();
//!
//! // Two parties encrypt their vectors; the sum is folded homomorphically.
//! let a: Vec<Natural> = [20u64, 7].map(Natural::from).to_vec();
//! let b: Vec<Natural> = [22u64, 35].map(Natural::from).to_vec();
//! let ca = api.paillier_encrypt(&keys.public, &a, 1).unwrap();
//! let cb = api.paillier_encrypt(&keys.public, &b, 2).unwrap();
//! let sum = api.paillier_add(&keys.public, &ca, &cb).unwrap();
//! let back = api.paillier_decrypt(&keys.private, &sum).unwrap();
//! assert_eq!(back, vec![Natural::from(42u64); 2]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod api;
mod error;

pub use error::{Error, Result};
