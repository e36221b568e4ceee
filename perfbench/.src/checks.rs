//! Correctness checks applied to every step. A failed check counts the
//! step as failed.

use fl::metrics::EpochBreakdown;

/// Phase attribution: every simulated second charged to the three
/// components must also land in exactly one phase.
pub fn phases_match_total(b: &EpochBreakdown) -> Result<(), String> {
    let total = b.total_seconds();
    let phases = b.phases.total();
    let tolerance = 1e-9 * total.abs().max(phases.abs()).max(f64::MIN_POSITIVE);
    if (total - phases).abs() <= tolerance {
        Ok(())
    } else {
        Err(format!(
            "phase total {phases:e} s differs from component total {total:e} s"
        ))
    }
}

/// Wire accounting: the bytes the step charged must be the bytes the
/// network carried during the step.
pub fn bytes_match_network(b: &EpochBreakdown, network_bytes: u64) -> Result<(), String> {
    if b.comm_bytes == network_bytes {
        Ok(())
    } else {
        Err(format!(
            "breakdown charged {} wire bytes, network carried {network_bytes}",
            b.comm_bytes
        ))
    }
}

/// Secure aggregation: each decrypted sum must lie within `bound` of the
/// plaintext sum. Returns the largest absolute error.
pub fn sums_within(decrypted: &[f64], expected: &[f64], bound: f64) -> Result<f64, String> {
    if decrypted.len() != expected.len() {
        return Err(format!(
            "{} decrypted sums for {} slots",
            decrypted.len(),
            expected.len()
        ));
    }
    let mut worst = 0.0f64;
    for (i, (d, e)) in decrypted.iter().zip(expected).enumerate() {
        let err = (d - e).abs();
        if err.is_nan() || err > bound {
            return Err(format!(
                "slot {i}: decrypted {d} vs plaintext {e}, error {err:e} > bound {bound:e}"
            ));
        }
        worst = worst.max(err);
    }
    Ok(worst)
}

/// Training: the loss must be finite and below the loss before training.
pub fn loss_improved(loss: f64, initial: f64) -> Result<(), String> {
    if loss.is_finite() && loss < initial {
        Ok(())
    } else {
        Err(format!(
            "loss {loss} is not finite and below the initial {initial}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consistent_breakdown() -> EpochBreakdown {
        let mut b = EpochBreakdown {
            he_seconds: 0.25,
            comm_seconds: 0.5,
            other_seconds: 0.125,
            comm_bytes: 4096,
            ..EpochBreakdown::default()
        };
        b.phases.encrypt_seconds = 0.25;
        b.phases.uplink_seconds = 0.5;
        b.phases.compute_seconds = 0.125;
        b
    }

    #[test]
    fn phase_check_passes_and_fires() {
        let mut b = consistent_breakdown();
        assert!(phases_match_total(&b).is_ok());
        b.phases.decrypt_seconds += 1e-6;
        assert!(phases_match_total(&b).is_err());
    }

    #[test]
    fn byte_check_fires_when_off_by_one() {
        let b = consistent_breakdown();
        assert!(bytes_match_network(&b, 4096).is_ok());
        assert!(bytes_match_network(&b, 4097).is_err());
        assert!(bytes_match_network(&b, 4095).is_err());
    }

    #[test]
    fn sum_check_fires_past_the_quantizer_bound() {
        // The bound the benchmark applies to a 16-client round.
        let clients = 16;
        let quantizer = codec::Quantizer::new(codec::QuantizerConfig::paper_default(clients))
            .expect("paper-default quantizer");
        let bound = clients as f64 * quantizer.max_error();
        let expected = [1.0, -2.0, 0.5];
        let exact = sums_within(&expected, &expected, bound).unwrap();
        assert_eq!(exact, 0.0);
        let mut near = expected;
        near[1] += bound * 0.5;
        assert!(sums_within(&near, &expected, bound).is_ok());
        let mut far = expected;
        far[2] += bound * 1.01;
        assert!(sums_within(&far, &expected, bound).is_err());
        assert!(sums_within(&[f64::NAN, -2.0, 0.5], &expected, bound).is_err());
        assert!(sums_within(&expected[..2], &expected, bound).is_err());
    }

    #[test]
    fn loss_check_fires_on_no_progress_or_nan() {
        assert!(loss_improved(0.5, 0.69).is_ok());
        assert!(loss_improved(0.69, 0.69).is_err());
        assert!(loss_improved(f64::NAN, 0.69).is_err());
        assert!(loss_improved(f64::INFINITY, 0.69).is_err());
    }
}
