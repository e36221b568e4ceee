//! Host-speed normalization: a fixed reference kernel timed around each
//! unit of measured work.
//!
//! On a shared host, other tenants' load changes the speed of
//! compute-bound code by up to about 2x for tens of seconds at a time; the
//! process's CPU time grows with its wall time then, so neither clock can
//! tell a slow host from a slow program. Timing this kernel right before
//! and right after a step tells how fast the host ran during the step, and
//! [`normalize`] rescales the step's wall time to a host on which the
//! kernel takes [`NOMINAL_S`]. The kernel is the benchmark's own code: a
//! change to the measured crates never changes it.

use std::hint::black_box;
use std::time::Instant;

/// 64-bit limbs per operand: a 1024-bit number, the workloads' key size.
const LIMBS: usize = 16;
/// Multiplications per timing: about 7 ms on a 2 GHz Xeon vCPU.
const ROUNDS: u32 = 40_000;

/// Seconds one [`reference_seconds`] run takes on the 2 GHz Xeon vCPU the
/// benchmark was defined on, when that host is quiet. Normalized times
/// read as seconds on that host.
pub const NOMINAL_S: f64 = 0.0068;

/// One schoolbook `LIMBS` x `LIMBS` multiplication whose product is folded
/// back into `a`, so every round depends on the one before.
fn mul_fold(a: &mut [u64; LIMBS], b: &[u64; LIMBS]) {
    let mut product = [0u64; 2 * LIMBS];
    for i in 0..LIMBS {
        let mut carry = 0u128;
        for j in 0..LIMBS {
            let t = a[i] as u128 * b[j] as u128 + product[i + j] as u128 + carry;
            product[i + j] = t as u64;
            carry = t >> 64;
        }
        product[i + LIMBS] = carry as u64;
    }
    for i in 0..LIMBS {
        a[i] = product[i] ^ product[i + LIMBS] | 1;
    }
}

/// Wall seconds of one run of the reference kernel.
// flcheck: det-absorb — the stopwatch times the benchmark's own kernel;
// it never reaches a step's inputs.
pub fn reference_seconds() -> f64 {
    let mut a = [0u64; LIMBS];
    let mut b = [0u64; LIMBS];
    for i in 0..LIMBS {
        a[i] = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
        b[i] = 0xD1B5_4A32_D192_ED69u64.wrapping_mul(i as u64 + 7) | 1;
    }
    let b = black_box(b);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        mul_fold(&mut a, &b);
    }
    black_box(a);
    start.elapsed().as_secs_f64()
}

/// Runs `f` between two timings of the reference kernel. Returns its
/// output and the mean of the two reference times.
pub fn between_references<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = reference_seconds();
    let out = f();
    let after = reference_seconds();
    (out, (before + after) / 2.0)
}

/// `seconds` measured while the reference kernel took `reference_s`,
/// rescaled to a host on which it takes [`NOMINAL_S`].
pub fn normalize(seconds: f64, reference_s: f64) -> f64 {
    seconds * NOMINAL_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_scales_by_host_speed() {
        assert_eq!(normalize(0.5, NOMINAL_S), 0.5);
        // A host running at half speed doubles both times.
        assert_eq!(normalize(1.0, 2.0 * NOMINAL_S), 0.5);
    }

    #[test]
    fn reference_brackets_the_work() {
        let (out, reference_s) = between_references(|| 7);
        assert_eq!(out, 7);
        assert!(reference_s > 0.0 && reference_s.is_finite());
    }
}
