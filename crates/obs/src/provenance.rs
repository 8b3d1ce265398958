//! The provenance switch ("why did rule X survive pruning while rule Y
//! died?").
//!
//! Explanations are recomputed on demand rather than recorded on the hot
//! path. A generation verdict is a pure function of three itemset counts
//! and the rule thresholds, so nothing is recorded at generation time;
//! a keyword prune already buffers its pairwise decisions per group, and
//! keeps that buffer as an index-keyed edge log (`irma_rules::PruneLog`)
//! when asked to. This handle is the asking: an enabled [`Provenance`]
//! makes `prune_rules` return its log, a disabled one (the default) makes
//! it skip the buffering entirely. Rendering lives next to the rules
//! (`irma_rules::Explainer`), since this crate knows nothing about them.

/// Whether a keyword prune keeps its decision log; disabled (free) by
/// default, mirroring [`Metrics`](crate::Metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Provenance {
    enabled: bool,
}

impl Provenance {
    /// A handle that asks for the decision log.
    pub fn enabled() -> Provenance {
        Provenance { enabled: true }
    }

    /// The no-op handle (same as `Provenance::default`).
    pub fn disabled() -> Provenance {
        Provenance::default()
    }

    /// Whether this handle asks for the decision log.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_the_default() {
        assert!(!Provenance::disabled().is_enabled());
        assert_eq!(Provenance::default(), Provenance::disabled());
        assert!(Provenance::enabled().is_enabled());
    }

    #[test]
    fn handle_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Provenance>();
    }
}
