//! The three training workloads: set-up, one closed-loop step, and the
//! traced replay of a step's layer calls.

use std::sync::Arc;
use std::time::Instant;

use fl::backend::EncryptedVector;
use fl::data::generators::DatasetSpec;
use fl::engine::{run_round, EngineConfig};
use fl::metrics::EpochBreakdown;
use fl::models::{HeteroLr, HeteroNn, HIDDEN};
use fl::net::NetStats;
use fl::train::{FlEnv, FlModel, TrainConfig};
use fl::{Accelerator, BackendKind, Network};
use gpu_sim::{Device, DeviceConfig, DeviceStats};
use he::ghe::{GpuHe, HeBackend};
use he::paillier::{Ciphertext, ObfuscatorPool, PaillierKeyPair};
use mpint::Natural;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::checks;
use crate::trace::Tracer;

/// Paillier modulus size for every workload (the paper's smallest).
pub const KEY_BITS: u32 = 1024;

/// `secagg-pipelined`: clients per round and gradient values per client.
const SECAGG_CLIENTS: usize = 16;
const SECAGG_VALUES: usize = 256;
/// Local-compute flops each client is charged per round.
const SECAGG_FLOPS: u64 = 50_000;
/// NIC streams the pipelined engine may overlap.
const SECAGG_DUPLEX: u32 = 4;

/// Parties of the two vertical model workloads.
const MODEL_PARTIES: u32 = 4;
/// Mini-batch size of the model workloads.
const MODEL_BATCH: usize = 64;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SecaggPipelined,
    NnSparse,
    LrFate,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::SecaggPipelined, Kind::NnSparse, Kind::LrFate];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SecaggPipelined => "secagg-pipelined",
            Kind::NnSparse => "nn-sparse",
            Kind::LrFate => "lr-fate",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    fn backend(self) -> BackendKind {
        match self {
            Kind::LrFate => BackendKind::Fate,
            _ => BackendKind::FlBooster,
        }
    }

    pub fn is_model(self) -> bool {
        self != Kind::SecaggPipelined
    }
}

/// Derives an independent 64-bit value from the workload seed, a purpose
/// tag and an index (SplitMix64 finalizer over their mix).
fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED69));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const TAG_KEYS: u64 = 1;
const TAG_DATA: u64 = 2;
const TAG_TRAIN: u64 = 3;
const TAG_GRADS: u64 = 4;
const TAG_STEP: u64 = 5;
const TAG_NET: u64 = 6;
const TAG_CALIBRATE: u64 = 7;

/// Seed of the key set the timed set-ups use: the same keys on every run,
/// so the prime searches, whose length varies from key to key, do the same
/// work each time.
const SETUP_KEY_SET: u64 = 0x0005_E70F_4E75;

/// Key seed of the workload a run steps.
pub fn workload_key_seed(seed: u64) -> u64 {
    derive(seed, TAG_KEYS, 0)
}

/// Key seed of timed set-up `rep`, independent of the workload seed.
pub fn setup_key_seed(rep: u64) -> u64 {
    derive(SETUP_KEY_SET, TAG_KEYS, rep)
}

/// Wall seconds of the three set-up phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub keygen_s: f64,
    pub data_s: f64,
    pub build_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.keygen_s + self.data_s + self.build_s
    }
}

/// Simulated-device counters accumulated over one step.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceDelta {
    pub launches: u64,
    /// HE items and estimated limb-level operations the kernels ran.
    pub items: u64,
    pub thread_ops: u64,
    pub kernel_wall_s: f64,
    pub sim_s: f64,
    /// Mean SM utilization over the step's launches (0 when none).
    pub sm_utilization: f64,
}

impl DeviceDelta {
    fn between(before: &Option<DeviceStats>, after: &Option<DeviceStats>) -> Option<DeviceDelta> {
        let (Some(b), Some(a)) = (before, after) else {
            return None;
        };
        let sim = |s: &DeviceStats| s.sim_h2d_seconds + s.sim_kernel_seconds + s.sim_d2h_seconds;
        let new = &a.utilization_samples[b.utilization_samples.len()..];
        Some(DeviceDelta {
            launches: a.launches - b.launches,
            items: a.items - b.items,
            thread_ops: a.thread_ops - b.thread_ops,
            kernel_wall_s: a.wall_seconds - b.wall_seconds,
            sim_s: sim(a) - sim(b),
            sm_utilization: if new.is_empty() {
                0.0
            } else {
                new.iter().map(|s| s.utilization).sum::<f64>() / new.len() as f64
            },
        })
    }
}

/// Everything one step produced and the counters it moved.
#[derive(Debug, Clone, Default)]
pub struct StepRecord {
    pub wall_s: f64,
    /// Reference-kernel seconds around the step call, set by the closed
    /// loop (see `hostspeed`).
    pub host_ref_s: f64,
    pub breakdown: EpochBreakdown,
    pub net: NetStats,
    /// `None` when the backend runs on the CPU.
    pub device: Option<DeviceDelta>,
    pub loss: Option<f64>,
    pub sum_err: Option<f64>,
    pub error: Option<String>,
}

/// The inputs of one `secagg-pipelined` round, kept for the replay.
struct RoundInputs {
    parties: Vec<Vec<f64>>,
    seed: u64,
    sums: Vec<f64>,
}

/// HE-layer objects the benchmark owns, built like the FLBooster
/// backend's, so the replay can time `he` calls one by one.
struct BenchHe {
    pool: Arc<ObfuscatorPool>,
    gpu: GpuHe,
}

/// A set-up workload, ready to step.
pub struct Workload {
    pub kind: Kind,
    seed: u64,
    env: FlEnv,
    cfg: TrainConfig,
    model: Option<Box<dyn FlModel>>,
    initial_loss: f64,
    bench_he: Option<BenchHe>,
    last_round: Option<RoundInputs>,
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Client gradient vectors of one `secagg-pipelined` round.
fn round_gradients(seed: u64, step: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(derive(seed, TAG_GRADS, step));
    (0..SECAGG_CLIENTS)
        .map(|_| {
            (0..SECAGG_VALUES)
                .map(|_| rng.gen_range(-0.9..0.9))
                .collect()
        })
        .collect()
}

/// The training data of a model workload. `secagg-pipelined` has none:
/// each round generates its own client gradients.
fn model_dataset(kind: Kind, seed: u64) -> Option<fl::data::Dataset> {
    let mut spec = match kind {
        Kind::SecaggPipelined => return None,
        Kind::NnSparse => {
            let mut s = DatasetSpec::rcv1();
            s.instances = 64;
            s.features = 236;
            s.nnz_per_row = 5;
            s
        }
        Kind::LrFate => {
            let mut s = DatasetSpec::rcv1();
            s.instances = 24;
            s.features = 48;
            s.nnz_per_row = 4;
            s
        }
    };
    spec.seed = derive(seed, TAG_DATA, 0);
    Some(spec.generate(1.0))
}

impl Workload {
    /// Key generation, input generation and construction, each timed.
    /// The key comes from `key_seed`, the data and step inputs from `seed`.
    pub fn setup(kind: Kind, seed: u64, key_seed: u64) -> fl::Result<(Workload, SetupTimes)> {
        let (keys, keygen_s) = time(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(key_seed);
            PaillierKeyPair::generate(&mut rng, KEY_BITS)
        });
        let keys = keys.map_err(|e| fl::Error::BadConfig(format!("key generation: {e}")))?;
        let cfg = TrainConfig {
            batch_size: MODEL_BATCH,
            seed: derive(seed, TAG_TRAIN, 0),
            ..TrainConfig::default()
        };
        let (dataset, data_s) = time(|| model_dataset(kind, seed));
        let (built, build_s) = time(|| -> fl::Result<_> {
            let participants = if kind.is_model() {
                MODEL_PARTIES
            } else {
                SECAGG_CLIENTS as u32
            };
            let accel = Accelerator::new(kind.backend(), keys.clone(), participants)?;
            let mut profile = accel.network_profile();
            if !kind.is_model() {
                profile = profile.with_duplex_streams(SECAGG_DUPLEX);
            }
            let env = FlEnv {
                network: Network::new(profile, derive(seed, TAG_NET, 0)),
                accel,
            };
            let model: Option<Box<dyn FlModel>> = match (kind, &dataset) {
                (Kind::NnSparse, Some(d)) => Some(Box::new(HeteroNn::new(d, MODEL_PARTIES, &cfg)?)),
                (Kind::LrFate, Some(d)) => Some(Box::new(HeteroLr::new(d, MODEL_PARTIES, &cfg)?)),
                _ => None,
            };
            Ok((env, model))
        });
        let (env, model) = built?;
        let initial_loss = model.as_ref().map_or(f64::NAN, |m| m.loss());
        let workload = Workload {
            kind,
            seed,
            env,
            cfg,
            model,
            initial_loss,
            bench_he: None,
            last_round: None,
        };
        let times = SetupTimes {
            keygen_s,
            data_s,
            build_s,
        };
        Ok((workload, times))
    }

    /// The workload seed the run's inputs derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builds the HE-layer objects the traced replay times, on the
    /// workload key. Outside the set-up: the program never builds them.
    pub fn prepare_replay(&mut self) {
        if self.kind.is_model() {
            return;
        }
        let pool = Arc::new(ObfuscatorPool::new(&self.env.accel.keys().public));
        let gpu =
            GpuHe::new(Arc::new(Device::new(DeviceConfig::rtx3090()))).with_pool(Arc::clone(&pool));
        self.bench_he = Some(BenchHe { pool, gpu });
    }

    /// Runs step `index` once: the closed loop's unit of work. With a
    /// tracer, the step and the layer call inside it are spans.
    pub fn step(&mut self, index: u64, tracer: Option<&mut Tracer>) -> StepRecord {
        let mut local = None;
        let t = match tracer {
            Some(t) => t,
            None => local.insert(Tracer::disabled()),
        };
        t.set_step(index);
        t.span("step", |t| self.step_inner(index, t))
    }

    // flcheck: det-absorb — the stopwatch feeds `wall_s` only; inputs
    // and seeds derive from the workload seed and the step index.
    fn step_inner(&mut self, index: u64, t: &mut Tracer) -> StepRecord {
        let parties = (!self.kind.is_model()).then(|| round_gradients(self.seed, index));
        let round_seed = derive(self.seed, TAG_STEP, index);
        let net_before = self.env.network.stats();
        let device_before = self.env.accel.device_stats();

        let mut breakdown = EpochBreakdown::default();
        let mut rec = StepRecord::default();
        let started = Instant::now();
        let outcome: fl::Result<Option<Vec<f64>>> = match (&mut self.model, &parties) {
            (Some(model), _) => t.span("models.epoch", |_| {
                model
                    .run_epoch(&self.env, &self.cfg, index as usize)
                    .map(|r| {
                        breakdown = r.breakdown;
                        rec.loss = Some(r.loss);
                        None
                    })
            }),
            (None, Some(parties)) => t.span("engine.round", |_| {
                run_round(
                    &self.env,
                    &EngineConfig::default(),
                    &self.cfg,
                    parties,
                    &[SECAGG_FLOPS; SECAGG_CLIENTS],
                    round_seed,
                    &mut breakdown,
                )
                .map(|o| Some(o.sums))
            }),
            (None, None) => Ok(None),
        };
        rec.wall_s = started.elapsed().as_secs_f64();

        let net_after = self.env.network.stats();
        rec.net = NetStats {
            messages: net_after.messages - net_before.messages,
            ciphertexts: net_after.ciphertexts - net_before.ciphertexts,
            bytes: net_after.bytes - net_before.bytes,
            seconds: net_after.seconds - net_before.seconds,
            retries: net_after.retries - net_before.retries,
        };
        rec.device = DeviceDelta::between(&device_before, &self.env.accel.device_stats());
        rec.breakdown = breakdown;

        let sums = match outcome {
            Ok(s) => s,
            Err(e) => {
                rec.error = Some(format!("step returned an error: {e}"));
                return rec;
            }
        };
        match self.check(&rec, parties.as_deref(), sums.as_deref()) {
            Ok(sum_err) => rec.sum_err = sum_err,
            Err(e) => rec.error = Some(e),
        }
        if let (Some(parties), Some(sums)) = (parties, sums) {
            self.last_round = Some(RoundInputs {
                parties,
                seed: round_seed,
                sums,
            });
        }
        rec
    }

    /// The decrypted-sum bound: `clients × Quantizer::max_error()`.
    fn sum_bound(&self, clients: usize) -> f64 {
        clients as f64 * self.env.accel.codec().quantizer().max_error()
    }

    /// Applies every check to a finished step. Returns the largest error
    /// of a decrypted sum on `secagg-pipelined`.
    fn check(
        &self,
        rec: &StepRecord,
        parties: Option<&[Vec<f64>]>,
        sums: Option<&[f64]>,
    ) -> Result<Option<f64>, String> {
        checks::phases_match_total(&rec.breakdown)?;
        checks::bytes_match_network(&rec.breakdown, rec.net.bytes)?;
        if let Some(loss) = rec.loss {
            checks::loss_improved(loss, self.initial_loss)?;
        }
        match (parties, sums) {
            (Some(parties), Some(sums)) => {
                checks::sums_within(sums, &plain_sums(parties), self.sum_bound(parties.len()))
                    .map(Some)
            }
            (Some(_), None) => Err("round returned no sums".into()),
            _ => Ok(None),
        }
    }

    /// Replays the last `secagg-pipelined` round's layer calls on the same
    /// inputs, one span per layer call. The replay's decrypted sums must
    /// equal the round's. Model workloads call their layers from inside
    /// `run_epoch` on inputs the benchmark cannot see, so they have no
    /// replay.
    pub fn replay(&self, t: &mut Tracer) -> Result<(), String> {
        let (Some(round), Some(bench)) = (&self.last_round, &self.bench_he) else {
            return Ok(());
        };
        let accel = &self.env.accel;
        let pk = &accel.keys().public;
        let sk = &accel.keys().private;
        let clients = round.parties.len();
        let terms = clients as u32;
        let count = round.parties[0].len();
        let seed_of = |k: usize| round.seed.wrapping_add(k as u64);
        let e = |e: fl::Error| e.to_string();
        let h = |e: he::Error| e.to_string();
        let c = |e: codec::Error| e.to_string();
        t.span("replay", |t| -> Result<(), String> {
            let encrypted: Vec<EncryptedVector> = t.span("backend.encrypt", |_| {
                round
                    .parties
                    .par_iter()
                    .enumerate()
                    .map(|(k, v)| accel.encrypt_timed(v, seed_of(k)).map(|(ev, _)| ev))
                    .collect::<fl::Result<_>>()
                    .map_err(e)
            })?;
            let agg = t.span("backend.fold", |_| -> Result<EncryptedVector, String> {
                let mut parts = encrypted.iter();
                let mut acc = parts.next().ok_or("no client vectors")?.clone();
                for v in parts {
                    acc = accel.add_timed(&acc, v).map_err(e)?.0;
                }
                Ok(acc)
            })?;
            let backend_sums = t.span("backend.decrypt", |_| {
                accel
                    .decrypt_sum_timed(&agg, terms)
                    .map(|(s, _)| s)
                    .map_err(e)
            })?;

            let packed: Vec<Vec<Natural>> = t.span("codec.pack", |_| {
                round
                    .parties
                    .iter()
                    .map(|v| accel.codec().pack(v))
                    .collect::<codec::Result<_>>()
                    .map_err(c)
            })?;
            t.span("he.blinding_refill", |_| {
                packed
                    .par_iter()
                    .enumerate()
                    .map(|(k, words)| bench.pool.prefill_batch(pk, seed_of(k), words.len()))
                    .collect::<he::Result<Vec<()>>>()
                    .map_err(h)
            })?;
            let cts: Vec<Vec<Ciphertext>> = t.span("he.encrypt_batch", |_| {
                packed
                    .par_iter()
                    .enumerate()
                    .map(|(k, words)| bench.gpu.encrypt_batch(pk, words, seed_of(k)).map(|r| r.0))
                    .collect::<he::Result<_>>()
                    .map_err(h)
            })?;
            let groups: Vec<Vec<Ciphertext>> = (0..cts[0].len())
                .map(|j| cts.iter().map(|client| client[j].clone()).collect())
                .collect();
            let folded = t.span("he.fold_groups", |_| {
                bench.gpu.fold_groups(pk, &groups).map(|r| r.0).map_err(h)
            })?;
            let words = t.span("he.decrypt_batch", |_| {
                accel
                    .he_backend()
                    .decrypt_batch(sk, &folded)
                    .map(|r| r.0)
                    .map_err(h)
            })?;
            let he_sums = t.span("codec.unpack", |_| {
                accel.codec().unpack_sums(&words, count, terms).map_err(c)
            })?;
            if backend_sums != round.sums || he_sums != round.sums {
                return Err("replayed round decrypted different sums than the round".into());
            }
            Ok(())
        })
    }

    /// Times single HE operations on the workload key, `reps` times each,
    /// one span per call.
    pub fn calibrate(&self, t: &mut Tracer, reps: u64) -> Result<(), String> {
        let keys = self.env.accel.keys();
        let (pk, sk) = (&keys.public, &keys.private);
        let mut rng = ChaCha8Rng::seed_from_u64(derive(self.seed, TAG_CALIBRATE, 0));
        t.span("calibrate", |t| -> Result<(), String> {
            for i in 0..reps {
                let r = pk.batch_blinding(derive(self.seed, TAG_CALIBRATE, 1), i as usize);
                let m = Natural::from(rng.gen::<u32>() as u64);
                t.span("he.refill_op", |_| pk.precompute_obfuscator(&r));
                let a = t
                    .span("he.encrypt_op", |_| pk.encrypt_with_r(&m, &r))
                    .map_err(|e| e.to_string())?;
                let b = pk.encrypt_with_r(&m, &r).map_err(|e| e.to_string())?;
                let sum = t.span("he.add_op", |_| pk.add(&a, &b));
                let back = t
                    .span("he.decrypt_op", |_| sk.decrypt_crt(&sum))
                    .map_err(|e| e.to_string())?;
                if back != m.add_ref(&m) {
                    return Err("calibration decrypt disagrees with its plaintext".into());
                }
            }
            Ok(())
        })
    }

    /// Estimated limb multiplications of one encrypt (inline), decrypt
    /// and add on the workload key, as the HE layer's cost model prices
    /// them.
    pub fn op_estimates(&self) -> (u64, u64, u64) {
        let keys = self.env.accel.keys();
        (
            keys.public.encrypt_op_estimate(),
            keys.private.decrypt_op_estimate(),
            keys.public.add_op_estimate(),
        )
    }

    /// Values carried per ciphertext on this workload's exchanges.
    pub fn values_per_ct(&self) -> f64 {
        let accel = &self.env.accel;
        match self.kind {
            Kind::SecaggPipelined => accel.codec().compression_ratio(SECAGG_VALUES),
            Kind::NnSparse => accel.codec().compression_ratio(MODEL_BATCH * HIDDEN),
            Kind::LrFate => 1.0,
        }
    }

    /// Plaintext-space utilization of this workload's exchanges.
    pub fn slot_utilization(&self) -> f64 {
        let codec = self.env.accel.codec();
        match self.kind {
            Kind::SecaggPipelined => codec.plaintext_space_utilization(SECAGG_VALUES),
            Kind::NnSparse => codec.plaintext_space_utilization(MODEL_BATCH * HIDDEN),
            Kind::LrFate => codec.plaintext_space_utilization(1),
        }
    }
}

fn plain_sums(parties: &[Vec<f64>]) -> Vec<f64> {
    let mut sums = vec![0.0; parties.first().map_or(0, Vec::len)];
    for p in parties {
        for (s, v) in sums.iter_mut().zip(p) {
            *s += v;
        }
    }
    sums
}
