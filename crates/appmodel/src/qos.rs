//! Quality-of-Service constraints of an application.

use serde::{de, Deserialize, Serialize, Value};

/// QoS constraints attached to an Application Level Specification (§1.3:
/// "throughput requirements and latency bounds"). A file's period of 0 ps
/// is refused on the way in: every bandwidth divides by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct QosSpec {
    /// Application period in picoseconds: one unit of stream input (e.g. an
    /// OFDM symbol) arrives every `period_ps` (HIPERLAN/2: 4 µs).
    pub period_ps: u64,
    /// Optional end-to-end latency bound (stream input to stream output) in
    /// picoseconds.
    pub max_latency_ps: Option<u64>,
}

/// What a file holds of a [`QosSpec`], before its check.
#[derive(Deserialize)]
struct QosSpecSerde {
    period_ps: u64,
    max_latency_ps: Option<u64>,
}

impl Deserialize for QosSpec {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        let QosSpecSerde {
            period_ps,
            max_latency_ps,
        } = QosSpecSerde::from_value(value)?;
        match period_ps {
            0 => Err(de::Error::msg("invalid QoS: a period of 0 ps")),
            _ => Ok(QosSpec {
                period_ps,
                max_latency_ps,
            }),
        }
    }
}

impl QosSpec {
    /// A throughput-only constraint with the given period.
    pub fn with_period(period_ps: u64) -> Self {
        QosSpec {
            period_ps,
            max_latency_ps: None,
        }
    }

    /// Adds a latency bound.
    #[must_use]
    pub fn latency_bound(mut self, max_latency_ps: u64) -> Self {
        self.max_latency_ps = Some(max_latency_ps);
        self
    }

    /// Throughput demand of a channel carrying `tokens_per_period` tokens,
    /// in words/second (the unit of NoC link capacity).
    pub fn words_per_second(&self, tokens_per_period: u64) -> u64 {
        // tokens/period ÷ period_ps × 1e12 ps/s, computed without overflow
        // for realistic magnitudes.
        (tokens_per_period as u128 * 1_000_000_000_000u128 / self.period_ps as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hiperlan2_channel_bandwidths() {
        let qos = QosSpec::with_period(4_000_000); // 4 µs
                                                   // 80 tokens per 4 µs = 20M words/s.
        assert_eq!(qos.words_per_second(80), 20_000_000);
        assert_eq!(qos.words_per_second(64), 16_000_000);
    }

    #[test]
    fn latency_builder() {
        let qos = QosSpec::with_period(1000).latency_bound(5000);
        assert_eq!(qos.max_latency_ps, Some(5000));
    }
}
