//! Admission-control configuration for the query-serving front end.
//!
//! The serving subsystem (`repro serve`) sits between untrusted HTTP
//! clients and the federation engine. Each of its connection threads
//! answers its own queries, so the worker count already bounds how many
//! queries run at once; what is left to configure is how large a request
//! body the parser accepts at all. The config lives in `core` (not
//! `bench`) because the builder carries it: callers pin it with
//! `FederationBuilder::admission`, and a federation that never does gets
//! [`AdmissionConfig::default`]. No environment variable is read.

/// The request-size limit of the serving front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Largest `Content-Length` the HTTP layer accepts; bigger bodies
    /// get `413` without the server reading (or buffering) them.
    pub body_cap_bytes: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            body_cap_bytes: 64 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = AdmissionConfig::default();
        assert!(cfg.body_cap_bytes >= 16 * 1024);
    }

    fn admitted(cfg: Option<AdmissionConfig>) -> AdmissionConfig {
        let mut builder = crate::FederationBuilder::new().homogeneous_nodes(2, 20);
        if let Some(cfg) = cfg {
            builder = builder.admission(cfg);
        }
        builder.build().admission()
    }

    #[test]
    fn from_parts_parses_each_knob() {
        let pinned = AdmissionConfig {
            body_cap_bytes: 1024,
        };
        assert_eq!(admitted(Some(pinned)), pinned);
    }

    #[test]
    fn garbage_and_off_fall_back_to_defaults() {
        assert_eq!(admitted(None), AdmissionConfig::default());
    }
}
