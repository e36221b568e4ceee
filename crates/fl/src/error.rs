//! Error type for the federated-learning layer.

use std::fmt;

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while building or training federated models.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A platform-layer failure (HE, codec, arithmetic).
    Platform(flbooster_core::Error),
    /// The dataset cannot support the requested configuration.
    BadDataset(String),
    /// The federation configuration is invalid (participants, splits...).
    BadConfig(String),
    /// The network simulator gave up after exhausting retries.
    NetworkFailure {
        /// Attempts made.
        attempts: u32,
    },
    /// Too few clients beat the round engine's straggler deadline (a
    /// budget in **simulated seconds**, the same unit as every
    /// `EpochBreakdown` accumulator — compared against each client's
    /// simulated uplink-arrival time, never wall-clock): the round was
    /// abandoned. Like [`he::Error::AggregandKeyMismatch`], the variant
    /// keeps the position, so a wide round can name an offending
    /// participant.
    StragglerTimeout {
        /// Zero-based index of the first client dropped from the round.
        client: usize,
    },
    /// A client's vector in a secure-aggregation round, or an encrypted
    /// vector handed to an `Accelerator` fold, differs in length from
    /// client 0's. Rejected before anything is encrypted, folded or
    /// charged; the variant names the first offending client.
    ShapeMismatch {
        /// Zero-based index of the first client whose length differs.
        client: usize,
        /// Length of client 0's vector.
        expected: usize,
        /// Length the offending client sent.
        got: usize,
    },
    /// A weighted aggregation was given a weight count other than its
    /// vector count. Rejected before any ciphertext is folded.
    WeightCountMismatch {
        /// Client vectors to aggregate.
        vectors: usize,
        /// Weights supplied.
        weights: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Platform(e) => write!(f, "platform: {e}"),
            Error::BadDataset(msg) => write!(f, "bad dataset: {msg}"),
            Error::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            Error::NetworkFailure { attempts } => {
                write!(f, "network send failed after {attempts} attempts")
            }
            Error::StragglerTimeout { client } => {
                write!(
                    f,
                    "client {client} missed the straggler deadline and the round lost quorum"
                )
            }
            Error::ShapeMismatch {
                client,
                expected,
                got,
            } => write!(
                f,
                "client {client} sent {got} values but the round expects {expected}"
            ),
            Error::WeightCountMismatch { vectors, weights } => write!(
                f,
                "weighted aggregation got {weights} weights for {vectors} client vectors"
            ),
        }
    }
}

/// The length every item shares, taken from item 0 (0 when there are
/// none), or a [`Error::ShapeMismatch`] naming the first item whose
/// length differs.
pub(crate) fn common_len(lens: impl IntoIterator<Item = usize>) -> Result<usize> {
    let mut lens = lens.into_iter().enumerate();
    let expected = lens.next().map_or(0, |(_, n)| n);
    match lens.find(|&(_, n)| n != expected) {
        Some((client, got)) => Err(Error::ShapeMismatch {
            client,
            expected,
            got,
        }),
        None => Ok(expected),
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Platform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<flbooster_core::Error> for Error {
    fn from(e: flbooster_core::Error) -> Self {
        Error::Platform(e)
    }
}

impl From<he::Error> for Error {
    fn from(e: he::Error) -> Self {
        Error::Platform(flbooster_core::Error::He(e))
    }
}

impl From<codec::Error> for Error {
    fn from(e: codec::Error) -> Self {
        Error::Platform(flbooster_core::Error::Codec(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: Error = he::Error::KeyMismatch.into();
        assert!(e.to_string().contains("platform"));
        let e: Error = codec::Error::BadConfig("x".into()).into();
        assert!(matches!(e, Error::Platform(_)));
        assert!(Error::NetworkFailure { attempts: 3 }
            .to_string()
            .contains("3"));
    }

    #[test]
    fn straggler_timeout_message_names_the_client() {
        // Pinned like `AggregandKeyMismatch{index}`: the message must
        // carry the offending client index verbatim.
        assert_eq!(
            Error::StragglerTimeout { client: 41 }.to_string(),
            "client 41 missed the straggler deadline and the round lost quorum"
        );
    }

    #[test]
    fn shape_mismatch_message_names_the_client() {
        assert_eq!(
            Error::ShapeMismatch {
                client: 2,
                expected: 4,
                got: 3
            }
            .to_string(),
            "client 2 sent 3 values but the round expects 4"
        );
    }
}
