//! End-to-end and per-layer benchmark of the FLBooster training platform.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--provenance <json>]
//! ```
//!
//! One run sets the workload up on the key its seed derives, runs one
//! warm-up step, then runs steps in a closed loop for `--seconds`. After
//! each of the first untraced steps it times one more set-up, on a fixed
//! key set (median set-up time). Every step and set-up is bracketed by a
//! reference kernel, and the reported times are normalized to host speed
//! (see `hostspeed`). Every step is checked for correctness. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! every second step is traced (and followed by a replay of its layer
//! calls) and the run reports the per-layer metrics. The last line of
//! standard output is the result object; exit status 1 means a step
//! failed a check, 2 a usage or set-up error. See `README.md`.

mod checks;
mod hostspeed;
mod stats;
mod trace;
mod workloads;

use std::time::Instant;

use stats::{median, quartiles, tail_percentile};
use trace::Tracer;
use workloads::{Kind, SetupTimes, StepRecord, Workload, KEY_BITS};

/// Keys in the fixed set the timed set-ups use; a run times one set-up per
/// key.
const SETUP_KEYS: usize = 15;
/// Calls per single-operation calibration in a traced run.
const CALIBRATION_REPS: u64 = 8;
/// Steps a measurement loop runs even when its time is up.
const MIN_STEPS: usize = 3;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<String>,
    provenance: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Option<&str> {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
        };
        let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
        let workload = need("--workload")?;
        let workload = Kind::parse(workload).ok_or(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            Kind::ALL.map(Kind::name)
        ))?;
        let seed = need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = need("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        let trace = match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            out_dir: get("--out-dir").map(str::to_string),
            provenance: get("--provenance").unwrap_or("{}").to_string(),
        })
    }
}

/// Counts attempted and failed steps and remembers the first failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, rec: &StepRecord, step: u64) {
        self.attempted += 1;
        if let Some(e) = &rec.error {
            self.failed += 1;
            eprintln!("perfbench: step {step} failed: {e}");
            self.first_error.get_or_insert_with(|| e.clone());
        }
    }
}

/// The steps of one closed loop.
#[derive(Default)]
struct Steps {
    untraced: Vec<StepRecord>,
    traced: Vec<StepRecord>,
    /// Per traced step: its whole `step` call minus that of the untraced
    /// step just before it, both normalized to host speed, so host drift
    /// cancels out of the difference.
    overheads: Vec<f64>,
    /// One timed set-up after each of the first untraced steps, so that
    /// the set-ups sample the host over the same window as the steps.
    setups: Vec<SetupTimes>,
    /// Each set-up's total wall time, normalized to host speed.
    setup_s: Vec<f64>,
}

impl Steps {
    /// Times the next set-up of the fixed key set.
    fn time_setup(&mut self, w: &Workload) -> Result<(), String> {
        let (times, reference_s) =
            hostspeed::between_references(|| timed_setup(w.kind, w.seed(), self.setups.len()));
        let times = times?;
        self.setup_s
            .push(hostspeed::normalize(times.total(), reference_s));
        self.setups.push(times);
        Ok(())
    }
}

/// Times set-up number `rep`: the workload built on key `rep` of the
/// fixed set.
fn timed_setup(kind: Kind, seed: u64, rep: usize) -> Result<SetupTimes, String> {
    let key_seed = workloads::setup_key_seed(rep as u64);
    Workload::setup(kind, seed, key_seed)
        .map(|(_, times)| times)
        .map_err(|e| e.to_string())
}

/// Runs steps from `first_step` on, back to back, until `seconds` have
/// passed (and at least [`MIN_STEPS`] ran). With a tracer, every second
/// step is traced and followed by a replay of its layer calls.
// flcheck: det-absorb — the clock bounds the loop's duration and times
// whole step calls; it never reaches a step's inputs, ciphertexts or sums.
fn closed_loop(
    w: &mut Workload,
    first_step: u64,
    seconds: f64,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Result<Steps, String> {
    let start = Instant::now();
    let mut steps = Steps::default();
    let mut untraced_call_s = 0.0;
    while steps.untraced.len() + steps.traced.len() < MIN_STEPS
        || start.elapsed().as_secs_f64() < seconds
    {
        let step = first_step + (steps.untraced.len() + steps.traced.len()) as u64;
        let traced = steps.untraced.len() > steps.traced.len();
        let ((mut rec, call_s), host_ref_s) = hostspeed::between_references(|| {
            let called = Instant::now();
            let rec = w.step(step, tracer.as_deref_mut().filter(|_| traced));
            (rec, called.elapsed().as_secs_f64())
        });
        rec.host_ref_s = host_ref_s;
        let call_s = hostspeed::normalize(call_s, host_ref_s);
        match tracer.as_deref_mut().filter(|_| traced) {
            Some(t) => {
                steps.overheads.push(call_s - untraced_call_s);
                if rec.error.is_none() {
                    rec.error = w.replay(t).err();
                }
                tally.record(&rec, step);
                steps.traced.push(rec);
            }
            None => {
                untraced_call_s = call_s;
                tally.record(&rec, step);
                steps.untraced.push(rec);
                if steps.setups.len() < SETUP_KEYS {
                    steps.time_setup(w)?;
                }
            }
        }
    }
    while steps.setups.len() < SETUP_KEYS {
        steps.time_setup(w)?;
    }
    Ok(steps)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: "",
    }
}

fn noted(name: &'static str, value: f64, unit: &'static str, note: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

/// JSON number: finite values with every digit, anything else as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        let value = if m.value != 0.0 && m.value.abs() < 1e-3 {
            format!("{:.6e}", m.value)
        } else {
            format!("{:.6}", m.value)
        };
        println!("  {:<26} {value:>16} {:<12}{note}", m.name, m.unit);
    }
}

fn sample_summary(label: &str, samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples);
    let tail = tail_percentile(samples)
        .map(|(q, v)| format!(", p{q:.0} {v:.6}"))
        .unwrap_or_default();
    format!(
        "{label}: n={} p50 {:.6} q1 {:.6} q3 {:.6}{tail}",
        samples.len(),
        median(samples),
        q1,
        q3
    )
}

/// Sample count, median and quartiles as a JSON object.
fn samples_json(samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples);
    format!(
        "{{\"n\": {}, \"q1\": {}, \"p50\": {}, \"q3\": {}}}",
        samples.len(),
        json_number(q1),
        json_number(median(samples)),
        json_number(q3)
    )
}

/// Each step's wall time, normalized to host speed.
fn normalized_walls(records: &[StepRecord]) -> Vec<f64> {
    records
        .iter()
        .map(|r| hostspeed::normalize(r.wall_s, r.host_ref_s))
        .collect()
}

fn end_to_end(w: &Workload, setup: &[f64], records: &[StepRecord], tally: &Tally) -> Vec<Metric> {
    let walls = normalized_walls(records);
    let rates: Vec<f64> = records
        .iter()
        .zip(&walls)
        .map(|(r, wall)| r.breakdown.he_values as f64 / wall)
        .collect();
    vec![
        metric("setup_s", median(setup), "s"),
        metric("step_s.p50", median(&walls), "s"),
        metric("values_per_s", median(&rates), "values/s"),
        metric(
            "sim_step_s",
            mean(records.iter().map(|r| r.breakdown.round_seconds)),
            "sim_s",
        ),
        metric(
            "wire_bytes_per_step",
            mean(records.iter().map(|r| r.breakdown.comm_bytes as f64)),
            "bytes",
        ),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        // Reported, not gated: defined on some workloads only, or zero
        // when the run is correct (the result's `failed` carries it).
        noted(
            "loss_final",
            records.last().and_then(|r| r.loss).unwrap_or(f64::NAN),
            "logloss",
            "model workloads only",
        ),
        noted(
            "sum_err_max",
            records
                .iter()
                .filter_map(|r| r.sum_err)
                .fold(f64::NAN, f64::max),
            "abs",
            if w.kind.is_model() {
                "secagg-pipelined only"
            } else {
                ""
            },
        ),
        metric(
            "error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "fraction",
        ),
    ]
}

/// Names of the end-to-end metrics the result object carries; the rest
/// are printed in the report only.
const GATED: [&str; 6] = [
    "setup_s",
    "step_s.p50",
    "values_per_s",
    "sim_step_s",
    "wire_bytes_per_step",
    "peak_rss_mib",
];

fn per_layer(
    w: &Workload,
    setups: &[SetupTimes],
    records: &[StepRecord],
    overheads: &[f64],
    t: &Tracer,
) -> Vec<Metric> {
    let steps = records.len().max(1) as f64;
    let span = |name: &str| t.durations(name).iter().fold(0.0, |a, b| a + b) / steps;
    let op = |name: &str| median(&t.durations(name));
    let avg = |f: &dyn Fn(&StepRecord) -> f64| mean(records.iter().map(f));

    let round = span("engine.round");
    let backend = span("backend.encrypt") + span("backend.fold") + span("backend.decrypt");
    let (enc_est, dec_est, add_est) = w.op_estimates();
    let (enc_op, dec_op, add_op) = (op("he.encrypt_op"), op("he.decrypt_op"), op("he.add_op"));
    let limb_rate = (enc_est + dec_est + add_est) as f64 / (enc_op + dec_op + add_op);
    // Kernel counters where the backend runs on the simulated device.
    // `CpuHe` has none, and the accelerator's own accumulator is drained
    // inside `aggregation_round` / `encrypted_exchange`, so on the CPU the
    // count is the one the step charged: HE seconds at the CPU cost model's
    // seconds per limb operation.
    let device = |f: fn(&workloads::DeviceDelta) -> f64| avg(&|r| r.device.as_ref().map_or(0.0, f));
    let limb_mults = avg(&|r| match &r.device {
        Some(d) => d.thread_ops as f64,
        None => r.breakdown.he_seconds / he::ghe::DEFAULT_CPU_SECONDS_PER_OP,
    });
    let epoch = span("models.epoch");
    // HE busy wall inside the epoch: the kernels' own wall time on the
    // simulated device; on the CPU, the counted limb-mults at the
    // single-op rate spread over the pool's threads.
    let he_busy = if records.iter().any(|r| r.device.is_some()) {
        device(|d| d.kernel_wall_s)
    } else {
        limb_mults / limb_rate / rayon::current_num_threads() as f64
    };
    let secagg = !w.kind.is_model();
    let phases = |f: fn(&fl::metrics::PhaseBreakdown) -> f64| avg(&|r| f(&r.breakdown.phases));
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    vec![
        metric("engine.round_s", round, "s"),
        noted(
            "engine.unattributed_s",
            if secagg { round - backend } else { 0.0 },
            "s",
            "round span minus replayed backend calls",
        ),
        noted(
            "engine.overlap_speedup",
            avg(&|r| r.breakdown.overlap_speedup()),
            "x",
            "modeled",
        ),
        metric("backend.encrypt_s", span("backend.encrypt"), "s"),
        metric("backend.fold_s", span("backend.fold"), "s"),
        metric("backend.decrypt_s", span("backend.decrypt"), "s"),
        metric("backend.values_per_ct", w.values_per_ct(), "values/ct"),
        metric("he.blinding_refill_s", span("he.blinding_refill"), "s"),
        metric("he.encrypt_batch_s", span("he.encrypt_batch"), "s"),
        metric("he.decrypt_batch_s", span("he.decrypt_batch"), "s"),
        metric("he.fold_groups_s", span("he.fold_groups"), "s"),
        metric("he.items", device(|d| d.items as f64), "count"),
        metric("he.refill_op_s", op("he.refill_op"), "s"),
        metric("he.encrypt_op_s", enc_op, "s"),
        metric("he.decrypt_op_s", dec_op, "s"),
        metric("he.add_op_s", add_op, "s"),
        noted(
            "mpint.limb_mults",
            limb_mults,
            "count",
            if w.kind == Kind::LrFate {
                "estimated, as charged"
            } else {
                "estimated"
            },
        ),
        noted(
            "mpint.limb_mults_per_s",
            limb_rate,
            "1/s",
            "estimated mults / single-op wall",
        ),
        metric("gpu_sim.launches", device(|d| d.launches as f64), "count"),
        metric("gpu_sim.kernel_wall_s", device(|d| d.kernel_wall_s), "s"),
        metric("gpu_sim.sim_s", device(|d| d.sim_s), "sim_s"),
        metric(
            "gpu_sim.sm_utilization",
            device(|d| d.sm_utilization),
            "fraction",
        ),
        metric("codec.pack_s", span("codec.pack"), "s"),
        metric("codec.unpack_s", span("codec.unpack"), "s"),
        metric("codec.slot_utilization", w.slot_utilization(), "fraction"),
        metric("net.messages", avg(&|r| r.net.messages as f64), "count"),
        metric("net.bytes", avg(&|r| r.net.bytes as f64), "bytes"),
        metric("net.retries", avg(&|r| r.net.retries as f64), "count"),
        metric("net.sim_s", avg(&|r| r.net.seconds), "sim_s"),
        metric("models.epoch_s", epoch, "s"),
        noted(
            "models.host_s",
            if secagg { 0.0 } else { epoch - he_busy },
            "s",
            "derived: epoch span minus HE busy wall",
        ),
        metric("phase.compute_s", phases(|p| p.compute_seconds), "sim_s"),
        metric("phase.encrypt_s", phases(|p| p.encrypt_seconds), "sim_s"),
        metric("phase.uplink_s", phases(|p| p.uplink_seconds), "sim_s"),
        metric(
            "phase.aggregate_s",
            phases(|p| p.aggregate_seconds),
            "sim_s",
        ),
        metric("phase.downlink_s", phases(|p| p.downlink_seconds), "sim_s"),
        metric("phase.decrypt_s", phases(|p| p.decrypt_seconds), "sim_s"),
        metric("setup.keygen_s", setup_median(|s| s.keygen_s), "s"),
        metric("setup.data_s", setup_median(|s| s.data_s), "s"),
        metric("setup.build_s", setup_median(|s| s.build_s), "s"),
        noted(
            "trace.overhead_s",
            median(overheads),
            "s",
            "median of traced step minus the untraced step before it",
        ),
    ]
}

/// Modeled phases beside the wall-clock spans of the same work.
fn print_phase_pairs(metrics: &[Metric]) {
    let get = |n: &str| {
        metrics
            .iter()
            .find(|m| m.name == n)
            .map_or(0.0, |m| m.value)
    };
    println!("modeled phase (sim s) vs wall-clock counterpart (s), per step:");
    // Transfers are simulated: the network has no wall-clock counterpart.
    for (phase, wall) in [
        ("phase.compute_s", Some("models.host_s")),
        ("phase.encrypt_s", Some("backend.encrypt_s")),
        ("phase.uplink_s", None),
        ("phase.aggregate_s", Some("backend.fold_s")),
        ("phase.downlink_s", None),
        ("phase.decrypt_s", Some("backend.decrypt_s")),
    ] {
        let wall = wall.map_or("-".to_string(), |w| format!("{w:<24} {:>12.6}", get(w)));
        println!("  {phase:<20} {:>12.6}   {wall}", get(phase));
    }
}

fn write_outputs(dir: &str, stem: &str, files: &[(&str, String)]) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("perfbench: cannot create {dir}: {e}");
        return;
    }
    for (suffix, body) in files {
        let path = format!("{dir}/{stem}{suffix}");
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
}

fn run() -> Result<bool, String> {
    let args = Args::parse()?;
    let kind = args.workload;
    println!(
        "perfbench {} seed {} seconds {} trace {} key_bits {KEY_BITS}",
        kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("provenance {}", args.provenance);

    let (mut w, _) = Workload::setup(kind, args.seed, workloads::workload_key_seed(args.seed))
        .map_err(|e| e.to_string())?;

    let mut tally = Tally::default();
    let warm = w.step(0, None);
    tally.record(&warm, 0);

    let mut tracer = args.trace.then(Tracer::new);
    if args.trace {
        w.prepare_replay();
    }
    let steps = closed_loop(&mut w, 1, args.seconds, &mut tally, tracer.as_mut())?;
    let setups = &steps.setups;
    let raw_walls: Vec<f64> = steps.untraced.iter().map(|r| r.wall_s).collect();
    let walls = normalized_walls(&steps.untraced);
    let host_refs: Vec<f64> = steps.untraced.iter().map(|r| r.host_ref_s).collect();
    println!("{}", sample_summary("step_s (normalized)", &walls));
    println!("{}", sample_summary("step_s (raw wall)", &raw_walls));
    println!(
        "{} (nominal {})",
        sample_summary("host reference_s", &host_refs),
        hostspeed::NOMINAL_S
    );

    let stem = format!(
        "{}-seed{}-trace{}",
        kind.name(),
        args.seed,
        args.trace as u8
    );
    let metrics = if let Some(mut t) = tracer {
        let traced = &steps.traced;
        // The calibration counts as one more attempted operation.
        tally.attempted += 1;
        if let Err(e) = w.calibrate(&mut t, CALIBRATION_REPS) {
            tally.failed += 1;
            tally.first_error.get_or_insert(e);
        }
        println!(
            "{}",
            sample_summary("traced step span", &t.durations("step"))
        );
        let metrics = per_layer(&w, setups, traced, &steps.overheads, &t);
        print_metrics("per-layer metrics (mean per traced step):", &metrics);
        print_phase_pairs(&metrics);
        println!("self time per span (mean per traced step, s):");
        for (name, secs) in t.self_seconds() {
            println!("  {name:<26} {:>12.6}", secs / traced.len().max(1) as f64);
        }
        if let Some(dir) = &args.out_dir {
            write_outputs(
                dir,
                &stem,
                &[
                    (".spans.jsonl", t.to_json_lines()),
                    (".chrome.json", t.to_chrome_trace()),
                ],
            );
        }
        metrics
    } else {
        let metrics = end_to_end(&w, &steps.setup_s, &steps.untraced, &tally);
        print_metrics("end-to-end metrics:", &metrics);
        println!("{}", sample_summary("setup_s", &steps.setup_s));
        metrics
            .into_iter()
            .filter(|m| GATED.contains(&m.name))
            .collect()
    };

    let correct = tally.failed == 0;
    if let Some(e) = &tally.first_error {
        println!(
            "FAILED {} of {} steps; first: {e}",
            tally.failed, tally.attempted
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    if let Some(dir) = &args.out_dir {
        write_outputs(
            dir,
            &stem,
            &[(
                ".result.json",
                format!(
                    "{{\"provenance\": {}, \"workload\": \"{}\", \"seed\": {}, \
                     \"key_bits\": {KEY_BITS}, \"untraced_steps\": {}, \
                     \"untraced_steps_raw_wall\": {}, \"host_reference_s\": {}, \
                     \"result\": {result}}}\n",
                    args.provenance,
                    kind.name(),
                    args.seed,
                    samples_json(&walls),
                    samples_json(&raw_walls),
                    samples_json(&host_refs)
                ),
            )],
        );
    }
    println!("{result}");
    Ok(correct)
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
