//! The `symcosim-job/1` document: a verification job as submitted to the
//! `symcosim-serve` daemon (`POST /jobs`).
//!
//! A job names a session preset plus the handful of knobs the service
//! exposes, and a slice count: the daemon shards the decode space into
//! that many cube-disjoint slices
//! ([`partition_universe`](symcosim_isa::pattern::partition_universe)),
//! runs one slice-scoped session per cube, and merges the per-slice
//! coverage back into the single-run certificate
//! ([`merge_slice_coverage`](crate::merge_slice_coverage)). The canonical
//! JSON form doubles as the warm-cache identity: the solver-chain seed
//! store is keyed on ([`JobSpec::config_hash`], slice cube), which is
//! exactly the condition under which replaying a cached chain is sound.

use crate::json::{self, JsonValue, JsonWriter};
use crate::session::{InstrConstraint, SessionConfig};

/// Schema identifier of the job document.
pub const JOB_SCHEMA: &str = "symcosim-job/1";

/// A verification job, the unit of work the service accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Session preset: `"rv32i-only"` (corrected models) or `"table1"`
    /// (shipped models, catalogue mode).
    pub preset: String,
    /// Restrict generation to one major opcode
    /// ([`InstrConstraint::OnlyOpcode`]); `None` keeps the preset's
    /// constraint.
    pub opcode: Option<u32>,
    /// Instructions per path.
    pub instr_limit: u32,
    /// Path budget per slice.
    pub max_paths: usize,
    /// Exploration seed.
    pub seed: u64,
    /// Route queries through the solver chain.
    pub solver_chain: bool,
    /// Independently audit every certificate-bearing solver answer
    /// ([`SessionConfig::audit`]).
    pub audit: bool,
    /// Number of cube-disjoint decode-space slices to shard the job into.
    pub slices: usize,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            preset: "rv32i-only".to_string(),
            opcode: None,
            instr_limit: 1,
            max_paths: 100_000,
            seed: 0x5eed_cafe,
            solver_chain: true,
            audit: false,
            slices: 1,
        }
    }
}

impl JobSpec {
    /// The job as its canonical `symcosim-job/1` document. Field order and
    /// formatting are stable, so equal specs serialise identically — the
    /// property [`JobSpec::config_hash`] relies on.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        json::header(&mut w, JOB_SCHEMA);
        w.string_field("preset", &self.preset);
        match self.opcode {
            Some(opcode) => w.number_field("opcode", u64::from(opcode)),
            None => w.null_field("opcode"),
        }
        w.number_field("instr_limit", u64::from(self.instr_limit));
        w.number_field("max_paths", self.max_paths as u64);
        w.number_field("seed", self.seed);
        w.bool_field("solver_chain", self.solver_chain);
        w.bool_field("audit", self.audit);
        w.number_field("slices", self.slices as u64);
        w.close_object();
        w.finish()
    }

    /// Parses a job document. Every field except `schema` is optional and
    /// falls back to [`JobSpec::default`], so clients may submit minimal
    /// bodies like `{"schema": "symcosim-job/1", "opcode": 99,
    /// "slices": 2}`. Unknown fields are ignored, among them the `engine`
    /// field documents from before the fork engine became the only path
    /// engine still carry.
    ///
    /// # Errors
    ///
    /// Returns a message when the schema tag is missing/wrong or a field
    /// has the wrong type or an unknown value.
    pub fn from_json(value: &JsonValue) -> Result<JobSpec, String> {
        match value.get("schema").and_then(JsonValue::as_str) {
            Some(JOB_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported schema `{other}`")),
            None => return Err(format!("missing schema tag (expected `{JOB_SCHEMA}`)")),
        }
        let mut spec = JobSpec::default();
        if let Some(preset) = value.get("preset") {
            spec.preset = preset
                .as_str()
                .ok_or("preset must be a string")?
                .to_string();
        }
        if let Some(opcode) = value.get("opcode") {
            spec.opcode = match opcode.as_u64() {
                Some(raw) => {
                    if raw > 0x7f {
                        return Err(format!("opcode {raw:#x} exceeds the 7-bit field"));
                    }
                    Some(raw as u32)
                }
                None if matches!(opcode, JsonValue::Null) => None,
                None => return Err("opcode must be a number or null".to_string()),
            };
        }
        if let Some(limit) = value.get("instr_limit") {
            let raw = limit.as_u64().ok_or("instr_limit must be a number")?;
            spec.instr_limit = u32::try_from(raw)
                .map_err(|_| format!("instr_limit {raw} exceeds {}", u32::MAX))?;
        }
        if let Some(paths) = value.get("max_paths") {
            spec.max_paths = paths.as_u64().ok_or("max_paths must be a number")? as usize;
        }
        if let Some(seed) = value.get("seed") {
            spec.seed = seed.as_u64().ok_or("seed must be a number")?;
        }
        if let Some(chain) = value.get("solver_chain") {
            spec.solver_chain = chain.as_bool().ok_or("solver_chain must be a boolean")?;
        }
        if let Some(audit) = value.get("audit") {
            spec.audit = audit.as_bool().ok_or("audit must be a boolean")?;
        }
        if let Some(slices) = value.get("slices") {
            spec.slices = slices.as_u64().ok_or("slices must be a number")? as usize;
        }
        if spec.slices == 0 || spec.slices > 256 {
            return Err(format!("slices must be in 1..=256, got {}", spec.slices));
        }
        Ok(spec)
    }

    /// The session configuration one slice of this job runs under (the
    /// slice cube itself is set by the scheduler via
    /// [`SessionConfig::slice`]). Coverage collection is always on — the
    /// service's whole output is the certificate.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown preset.
    pub fn session_config(&self) -> Result<SessionConfig, String> {
        let mut config = match self.preset.as_str() {
            "rv32i-only" => SessionConfig::rv32i_only(),
            "table1" => SessionConfig::table1(),
            other => return Err(format!("unknown preset `{other}`")),
        };
        if let Some(opcode) = self.opcode {
            config.constraint = InstrConstraint::OnlyOpcode(opcode);
        }
        config.instr_limit = self.instr_limit;
        config.max_paths = self.max_paths;
        config.seed = self.seed;
        config.solver_chain = self.solver_chain;
        config.audit = self.audit;
        config.collect_coverage = true;
        config.stop_at_first_mismatch = false;
        Ok(config)
    }

    /// FNV-1a hash of the canonical job document with the slice count
    /// normalised out: a slice run depends only on the session
    /// configuration and its own cube, never on how many sibling slices
    /// exist, so seeds transfer between e.g. a 2-slice and a 4-slice
    /// submission of the same job wherever the cubes coincide. The audit
    /// flag is deliberately *not* normalised: a warm slice replays cached
    /// answers instead of solving, and an audited job must re-derive its
    /// answers so the auditor can certify each one — inheriting an
    /// unaudited job's caches would put unchecked answers behind an
    /// audited certificate.
    #[must_use]
    pub fn config_hash(&self) -> u64 {
        let canonical = JobSpec {
            slices: 1,
            ..self.clone()
        };
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in canonical.to_json().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symcosim_isa::opcodes;

    #[test]
    fn job_document_round_trips() {
        let spec = JobSpec {
            preset: "table1".to_string(),
            opcode: Some(opcodes::BRANCH & 0x7f),
            instr_limit: 2,
            max_paths: 500,
            seed: 42,
            solver_chain: false,
            audit: true,
            slices: 3,
        };
        let json = spec.to_json();
        assert!(json.contains("\"schema\": \"symcosim-job/1\""));
        let parsed = JobSpec::from_json(&JsonValue::parse(&json).expect("document parses"))
            .expect("round trip");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn minimal_document_fills_defaults() {
        let value = JsonValue::parse(r#"{"schema": "symcosim-job/1", "opcode": 99, "slices": 2}"#)
            .expect("parses");
        let spec = JobSpec::from_json(&value).expect("minimal body accepted");
        assert_eq!(spec.opcode, Some(0x63));
        assert_eq!(spec.slices, 2);
        assert_eq!(spec.preset, "rv32i-only");
    }

    #[test]
    fn a_legacy_engine_field_is_ignored() {
        let plain = JobSpec::from_json(
            &JsonValue::parse(r#"{"schema": "symcosim-job/1", "opcode": 99}"#).expect("parses"),
        )
        .expect("accepted");
        for engine in ["fork", "reexec"] {
            let body =
                format!(r#"{{"schema": "symcosim-job/1", "opcode": 99, "engine": "{engine}"}}"#);
            let spec = JobSpec::from_json(&JsonValue::parse(&body).expect("parses"))
                .expect("a legacy engine field is accepted");
            assert_eq!(spec, plain, "{engine}");
            assert_eq!(spec.config_hash(), plain.config_hash(), "{engine}");
            assert!(!spec.to_json().contains("engine"));
        }
    }

    #[test]
    fn an_instruction_limit_beyond_u32_is_rejected() {
        let parse = |limit: u64| {
            let body = format!(r#"{{"schema": "symcosim-job/1", "instr_limit": {limit}}}"#);
            JobSpec::from_json(&JsonValue::parse(&body).expect("parses"))
        };
        // 2^32 + 2 must not wrap around to a limit of 2.
        let error = parse(4_294_967_298).expect_err("must reject");
        assert!(error.contains("instr_limit"), "{error}");
        assert!(parse(u64::from(u32::MAX) + 1).is_err());
        assert_eq!(
            parse(u64::from(u32::MAX)).map(|spec| spec.instr_limit),
            Ok(u32::MAX)
        );
    }

    #[test]
    fn invalid_documents_are_rejected() {
        let reject = |body: &str| {
            let value = JsonValue::parse(body).expect("parses");
            JobSpec::from_json(&value).expect_err("must reject")
        };
        assert!(reject(r#"{"opcode": 99}"#).contains("schema"));
        assert!(reject(r#"{"schema": "symcosim-job/2"}"#).contains("unsupported"));
        assert!(reject(r#"{"schema": "symcosim-job/1", "opcode": 300}"#).contains("7-bit"));
        assert!(reject(r#"{"schema": "symcosim-job/1", "slices": 0}"#).contains("slices"));
        assert!(
            JobSpec::from_json(&JsonValue::parse("{\"schema\": \"symcosim-job/1\"}").unwrap())
                .is_ok()
        );
    }

    #[test]
    fn config_hash_ignores_slice_count_only() {
        let base = JobSpec::default();
        let mut resliced = base.clone();
        resliced.slices = 8;
        assert_eq!(base.config_hash(), resliced.config_hash());

        // Audited jobs must not inherit an unaudited job's warm caches:
        // replayed answers would reach the certificate unaudited.
        let mut audited = base.clone();
        audited.audit = true;
        assert_ne!(base.config_hash(), audited.config_hash());

        let mut reseeded = base.clone();
        reseeded.seed = 7;
        assert_ne!(base.config_hash(), reseeded.config_hash());
    }

    #[test]
    fn session_config_applies_overrides() {
        let mut spec = JobSpec {
            opcode: Some(opcodes::BRANCH & 0x7f),
            max_paths: 77,
            ..JobSpec::default()
        };
        let config = spec.session_config().expect("valid");
        assert_eq!(
            config.constraint,
            InstrConstraint::OnlyOpcode(opcodes::BRANCH & 0x7f)
        );
        assert_eq!(config.max_paths, 77);
        assert!(config.collect_coverage);
        assert!(!config.stop_at_first_mismatch);

        spec.preset = "nope".to_string();
        assert!(spec.session_config().is_err());
    }
}
