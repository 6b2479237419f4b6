//! Phase-level wall-clock spans.
//!
//! Builds in this workspace run in distinct phases (split planning,
//! distribution/packing, tree insert/apply); a [`Span`] names one phase
//! and carries its duration. Rendering is left to [`crate::MetricSet`]
//! and the callers.

use crate::json::JsonValue;
use std::time::Duration;

/// One named, finished wall-clock interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase name, e.g. `"split_planning"`.
    pub name: String,
    /// Elapsed wall-clock time for the phase.
    pub elapsed: Duration,
}

impl Span {
    /// Build a span from an already-measured duration (used to export
    /// phase timings that were captured before this crate existed, e.g.
    /// `BuildStats`).
    pub fn from_duration(name: impl Into<String>, elapsed: Duration) -> Span {
        Span {
            name: name.into(),
            elapsed,
        }
    }

    /// Elapsed time in (fractional) seconds.
    pub fn seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Structured form for the JSON serializers.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("name", JsonValue::str(self.name.clone())),
            ("seconds", JsonValue::Num(self.seconds())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_json_has_name_and_seconds() {
        let s = Span::from_duration("pack", Duration::from_millis(250)).to_json();
        assert_eq!(s.render(), "{\"name\":\"pack\",\"seconds\":0.25}");
    }
}
