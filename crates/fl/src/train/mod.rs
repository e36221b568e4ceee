//! The federated training loop and its cost-accounted environment.
//!
//! [`FlEnv`] wraps an [`Accelerator`] and a [`Network`]: the environment
//! every model trains in. Secure-aggregation rounds run on
//! [`engine::run_round`](crate::engine::run_round); `FlEnv` adds the
//! pairwise encrypted exchange and local-compute charging, each
//! simulated second going to the proper component of the paper's
//! Others / HE / Communication breakdown. [`train`] runs epochs until
//! the paper's stopping rule ("if the loss difference between two
//! successive epochs is less than 1e-6, the model reaches convergence")
//! or an epoch cap.

use crate::backend::Accelerator;
use crate::engine::EngineConfig;
use crate::metrics::{Charger, EpochBreakdown, EpochResult, Phase, TrainReport};
use crate::net::Network;
use crate::Result;

/// Training hyper-parameters (paper Sec. VI-B defaults).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Mini-batch size (paper: 1024).
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 penalty coefficient (paper: 0.01).
    pub l2: f64,
    /// Epoch cap.
    pub max_epochs: usize,
    /// Convergence tolerance on successive losses (paper: 1e-6).
    pub tolerance: f64,
    /// Seed for batching/blinding randomness.
    pub seed: u64,
    /// Simulated seconds per local floating-point operation — the cost
    /// model for the "Others" component (calibrated to FATE's effective
    /// local-compute rate).
    pub sec_per_flop: f64,
    /// How every model's secure-aggregation rounds run on the
    /// [round engine](crate::engine). The default,
    /// [`EngineConfig::sequential`], charges elapsed time equal to the
    /// work total; the vertical models raise its quorum to every party.
    pub engine: EngineConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 1024,
            learning_rate: 0.1,
            l2: 0.01,
            max_epochs: 20,
            tolerance: 1e-6,
            seed: 0xF1,
            sec_per_flop: 4.0e-9,
            engine: EngineConfig::sequential(),
        }
    }
}

/// The execution environment one model trains in: the backend under
/// test and the link its traffic is charged to.
pub struct FlEnv {
    /// The acceleration backend under test.
    pub accel: Accelerator,
    /// The simulated client↔server link.
    pub network: Network,
}

impl FlEnv {
    /// Builds an environment; the network profile follows the backend.
    pub fn new(accel: Accelerator, seed: u64) -> Self {
        let network = Network::new(accel.network_profile(), seed);
        FlEnv { accel, network }
    }

    /// Pairwise encrypted exchange: one party encrypts `values` and sends
    /// them; the receiver (or arbiter) decrypts. Returns the values after
    /// their quantize→encrypt→decrypt round trip — the exact degradation
    /// the receiving party trains on.
    pub fn encrypted_exchange(
        &self,
        values: &[f64],
        seed: u64,
        breakdown: &mut EpochBreakdown,
    ) -> Result<Vec<f64>> {
        let (ev, enc_t) = self.accel.encrypt_timed(values, seed)?;
        let mut charge = Charger::sequential(breakdown);
        charge.he(enc_t.he_seconds, Phase::Encrypt);
        charge.other(enc_t.codec_seconds, Phase::Encrypt);
        let t = self.network.send(ev.ciphertext_count(), ev.bytes())?;
        charge.comm(t, Phase::Uplink);
        charge.wire(ev.bytes(), ev.ciphertext_count());
        let (out, dec_t) = self.accel.decrypt_sum_timed(&ev, 1)?;
        charge.he(dec_t.he_seconds, Phase::Decrypt);
        charge.other(dec_t.codec_seconds, Phase::Decrypt);
        charge.he_values(values.len() as u64);
        Ok(out)
    }

    /// Charges `flops` of local model computation to "Others".
    pub fn charge_local_compute(
        &self,
        flops: u64,
        cfg: &TrainConfig,
        breakdown: &mut EpochBreakdown,
    ) {
        let seconds = flops as f64 * cfg.sec_per_flop;
        Charger::sequential(breakdown).other(seconds, Phase::Compute);
    }
}

/// A federated model trainable epoch-by-epoch.
pub trait FlModel {
    /// Display name matching the paper ("Homo LR", ...).
    fn name(&self) -> &'static str;

    /// Runs one epoch, returning its timing and post-epoch loss.
    fn run_epoch(&mut self, env: &FlEnv, cfg: &TrainConfig, epoch: usize) -> Result<EpochResult>;

    /// Current global training loss.
    fn loss(&self) -> f64;

    /// Dataset name the model was built on.
    fn dataset_name(&self) -> &str;
}

/// Trains to the paper's stopping rule and assembles the report.
pub fn train(model: &mut dyn FlModel, env: &FlEnv, cfg: &TrainConfig) -> Result<TrainReport> {
    let mut epochs = Vec::new();
    let mut prev_loss = f64::INFINITY;
    let mut converged = false;
    for e in 0..cfg.max_epochs {
        let result = model.run_epoch(env, cfg, e)?;
        let loss = result.loss;
        epochs.push(result);
        if (prev_loss - loss).abs() < cfg.tolerance {
            converged = true;
            break;
        }
        prev_loss = loss;
    }
    Ok(TrainReport {
        model: model.name().to_string(),
        dataset: model.dataset_name().to_string(),
        backend: env.accel.name().to_string(),
        key_bits: env.accel.key_bits(),
        epochs,
        converged,
    })
}

mod shared;
pub use shared::{logloss, sigmoid};
