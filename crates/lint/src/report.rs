//! Report assembly: human-readable text and a stable JSON rendering.
//!
//! The JSON schema is versioned (the shared `schema`/`tool`/`version`
//! header from [`symcosim_core::json`]) and emitted with a fixed field
//! order and fixed formatting, so the CI gate and the golden-file test
//! can compare reports byte-for-byte. Counterexample *samples* are
//! capped ([`crate::cross::SAMPLE_CAP`]); every count is exact.

use std::fmt;

use symcosim_core::json::{self, JsonWriter};
use symcosim_core::Certificate;

use crate::audit::AuditReport;
use crate::cross::CrossModelReport;
use crate::dataflow::DataflowReport;
use crate::decode_space::DecodeSpaceReport;
use crate::ir::IrReport;

/// Version tag of the JSON report layout.
pub const SCHEMA: &str = "symcosim-lint/1";

/// The combined lint report. Sections are optional so the CLI can run any
/// subset of the passes; absent sections render as JSON `null`.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Decode-space theorems (completeness, disjointness, encoder
    /// consistency).
    pub decode: Option<DecodeSpaceReport>,
    /// Cross-model illegal-instruction agreement sweeps.
    pub cross: Option<CrossModelReport>,
    /// Symbolic-IR well-formedness pass and `x0` audit.
    pub ir: Option<IrReport>,
    /// Abstract-interpretation dataflow pass over the BRANCH sweep
    /// (`--dataflow`).
    pub dataflow: Option<DataflowReport>,
    /// Exploration-coverage certificate re-derived from a dumped session
    /// report (`--coverage`).
    pub coverage: Option<Certificate>,
    /// Proof-audit artifact recheck (`--audit`): every retained UNSAT
    /// conflict cone re-verified offline.
    pub audit: Option<AuditReport>,
}

impl LintReport {
    /// Total number of gating findings across all sections.
    #[must_use]
    pub fn findings(&self) -> usize {
        self.decode.as_ref().map_or(0, DecodeSpaceReport::findings)
            + self.cross.as_ref().map_or(0, CrossModelReport::findings)
            + self.ir.as_ref().map_or(0, IrReport::findings)
            + self.dataflow.as_ref().map_or(0, DataflowReport::findings)
            + self.coverage.as_ref().map_or(0, Certificate::findings)
            + self.audit.as_ref().map_or(0, AuditReport::findings)
    }

    /// Renders the report as stable, pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        json::header(&mut w, SCHEMA);
        match &self.decode {
            None => w.null_field("decode_space"),
            Some(decode) => {
                w.object_field("decode_space");
                w.number_field("rules", decode.rules as u64);
                w.number_field("legal_words", decode.legal_words);
                w.number_field("illegal_words", decode.illegal_words);
                w.number_field("residual_cubes", decode.residual_cubes as u64);
                w.array_field("overlaps", decode.overlaps.len(), |w, i| {
                    let o = &decode.overlaps[i];
                    w.open_object();
                    w.string_field("first", o.first);
                    w.string_field("second", o.second);
                    w.string_field("word", &hex(o.word));
                    w.close_object();
                });
                w.array_field(
                    "completeness_violations",
                    decode.completeness_violations.len(),
                    |w, i| {
                        let v = &decode.completeness_violations[i];
                        w.open_object();
                        w.string_field("word", &hex(v.word));
                        w.string_field("detail", &v.detail);
                        w.close_object();
                    },
                );
                w.array_field(
                    "encode_violations",
                    decode.encode_violations.len(),
                    |w, i| {
                        let v = &decode.encode_violations[i];
                        w.open_object();
                        w.string_field("word", &hex(v.word));
                        w.string_field("rule", v.rule);
                        w.string_field("detail", &v.detail);
                        w.close_object();
                    },
                );
                w.close_object();
            }
        }
        match &self.cross {
            None => w.null_field("cross_model"),
            Some(cross) => {
                w.object_field("cross_model");
                w.number_field("words_swept", cross.words_swept);
                w.array_field(
                    "fixed_disagreements",
                    cross.fixed_disagreements.len(),
                    |w, i| {
                        let f = &cross.fixed_disagreements[i];
                        w.open_object();
                        w.string_field("word", &hex(f.word));
                        w.string_field("detail", &f.detail);
                        w.close_object();
                    },
                );
                w.array_field(
                    "decode_mismatches",
                    cross.decode_mismatches.len(),
                    |w, i| {
                        let f = &cross.decode_mismatches[i];
                        w.open_object();
                        w.string_field("word", &hex(f.word));
                        w.string_field("detail", &f.detail);
                        w.close_object();
                    },
                );
                w.number_field("v1_disagreement_count", cross.v1_disagreement_count);
                w.array_field("v1_samples", cross.v1_samples.len(), |w, i| {
                    w.string_value(&hex(cross.v1_samples[i]));
                });
                w.close_object();
            }
        }
        match &self.ir {
            None => w.null_field("ir"),
            Some(ir) => {
                w.object_field("ir");
                w.number_field("paths_checked", ir.paths_checked as u64);
                w.array_field("violations", ir.violations.len(), |w, i| {
                    w.string_value(&ir.violations[i]);
                });
                w.number_field("statically_false", ir.statically_false);
                w.number_field("advisories", ir.advisories);
                w.array_field("dead_symbols", ir.dead_symbols.len(), |w, i| {
                    w.string_value(&ir.dead_symbols[i]);
                });
                w.number_field("x0_cases", ir.x0_cases as u64);
                w.array_field("x0_violations", ir.x0_violations.len(), |w, i| {
                    w.string_value(&ir.x0_violations[i]);
                });
                w.close_object();
            }
        }
        match &self.dataflow {
            None => w.null_field("dataflow"),
            Some(dataflow) => {
                w.object_field("dataflow");
                w.string_field("opcode", &hex(dataflow.opcode));
                w.number_field("paths_checked", dataflow.paths_checked as u64);
                w.array_field("dead_branches", dataflow.dead_branches.len(), |w, i| {
                    w.string_value(&dataflow.dead_branches[i]);
                });
                w.array_field(
                    "constant_outputs",
                    dataflow.constant_outputs.len(),
                    |w, i| {
                        w.string_value(&dataflow.constant_outputs[i]);
                    },
                );
                w.array_field(
                    "truncation_hazards",
                    dataflow.truncation_hazards.len(),
                    |w, i| {
                        w.string_value(&dataflow.truncation_hazards[i]);
                    },
                );
                w.array_field(
                    "unconstrained_influencers",
                    dataflow.unconstrained_influencers.len(),
                    |w, i| {
                        w.string_value(&dataflow.unconstrained_influencers[i]);
                    },
                );
                w.close_object();
            }
        }
        match &self.coverage {
            None => w.null_field("coverage"),
            Some(cert) => {
                w.object_field("coverage");
                w.string_field("verdict", cert.verdict.as_str());
                w.bool_field("truncated", cert.truncated);
                w.number_field("paths_certified", cert.paths_certified as u64);
                w.number_field("paths_bounded", cert.paths_bounded as u64);
                w.number_field("paths_excluded", cert.paths_excluded as u64);
                w.bool_field("domain_exact", cert.domain_exact);
                w.array_field("slots", cert.slots.len(), |w, i| {
                    let slot = &cert.slots[i];
                    w.open_object();
                    w.string_field("slot", &slot.slot);
                    w.number_field("domain_words", slot.domain_words);
                    w.number_field("certified_words", slot.certified_words);
                    w.number_field("bounded_words", slot.bounded_words);
                    w.number_field("residual_words", slot.residual_words);
                    w.bool_field("exact", slot.exact);
                    w.array_field("counterexamples", slot.counterexamples.len(), |w, k| {
                        w.string_value(&hex(slot.counterexamples[k]));
                    });
                    w.array_field("overlaps", slot.overlaps.len(), |w, k| {
                        w.string_value(&hex(slot.overlaps[k]));
                    });
                    w.close_object();
                });
                w.close_object();
            }
        }
        match &self.audit {
            None => w.null_field("audit"),
            Some(audit) => {
                w.object_field("audit");
                w.number_field("units_checked", audit.units_checked as u64);
                w.number_field("units_dropped", audit.units_dropped);
                w.number_field("steps", audit.steps);
                w.number_field("models", audit.models);
                w.number_field("cores", audit.cores);
                w.number_field("recorded_failures", audit.recorded_failures);
                w.array_field("rejected", audit.rejected.len(), |w, i| {
                    w.string_value(&audit.rejected[i]);
                });
                w.close_object();
            }
        }
        w.number_field("findings", self.findings() as u64);
        w.string_field(
            "status",
            if self.findings() == 0 {
                "clean"
            } else {
                "findings"
            },
        );
        w.close_object();
        w.finish()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(decode) = &self.decode {
            writeln!(f, "decode space:")?;
            writeln!(
                f,
                "  {} rules; {} legal words, {} illegal words ({} residual cubes)",
                decode.rules, decode.legal_words, decode.illegal_words, decode.residual_cubes
            )?;
            for o in &decode.overlaps {
                writeln!(
                    f,
                    "  OVERLAP {} / {} at 0x{:08x}",
                    o.first, o.second, o.word
                )?;
            }
            for v in &decode.completeness_violations {
                writeln!(f, "  COMPLETENESS 0x{:08x}: {}", v.word, v.detail)?;
            }
            for v in &decode.encode_violations {
                writeln!(f, "  ENCODE [{}] 0x{:08x}: {}", v.rule, v.word, v.detail)?;
            }
            if decode.findings() == 0 {
                writeln!(
                    f,
                    "  complete, disjoint and encoder-consistent (proved by cube subtraction)"
                )?;
            }
        }
        if let Some(cross) = &self.cross {
            writeln!(
                f,
                "cross-model agreement ({} words swept):",
                cross.words_swept
            )?;
            for finding in &cross.fixed_disagreements {
                writeln!(f, "  FIXED-DISAGREEMENT {finding}")?;
            }
            for finding in &cross.decode_mismatches {
                writeln!(f, "  DECODE-MISMATCH {finding}")?;
            }
            if cross.findings() == 0 {
                writeln!(
                    f,
                    "  corrected models agree with each other and the decode table"
                )?;
            }
            writeln!(
                f,
                "  {} expected as-shipped (Table I) disagreements, e.g.:",
                cross.v1_disagreement_count
            )?;
            for word in &cross.v1_samples {
                writeln!(f, "    0x{word:08x}")?;
            }
        }
        if let Some(ir) = &self.ir {
            writeln!(
                f,
                "symbolic IR: {} paths checked, {} advisories; x0 audit over {} cases",
                ir.paths_checked, ir.advisories, ir.x0_cases
            )?;
            for v in &ir.violations {
                writeln!(f, "  IR-VIOLATION {v}")?;
            }
            if !ir.dead_symbols.is_empty() {
                writeln!(
                    f,
                    "  {} dead symbols (in no path condition and no output term):",
                    ir.dead_symbols.len()
                )?;
                for name in &ir.dead_symbols {
                    writeln!(f, "    DEAD-SYMBOL {name}")?;
                }
            }
            for v in &ir.x0_violations {
                writeln!(f, "  X0-VIOLATION {v}")?;
            }
            if ir.findings() == 0 {
                writeln!(f, "  all path conditions well-formed, x0 writes discarded")?;
            }
        }
        if let Some(dataflow) = &self.dataflow {
            writeln!(
                f,
                "dataflow (opcode 0x{:08x}): {} paths analysed",
                dataflow.opcode, dataflow.paths_checked
            )?;
            for finding in &dataflow.dead_branches {
                writeln!(f, "  DEAD-BRANCH {finding}")?;
            }
            for finding in &dataflow.constant_outputs {
                writeln!(f, "  CONSTANT-OUTPUT {finding}")?;
            }
            for finding in &dataflow.truncation_hazards {
                writeln!(f, "  TRUNCATION-HAZARD {finding}")?;
            }
            if !dataflow.unconstrained_influencers.is_empty() {
                writeln!(
                    f,
                    "  {} unconstrained output-influencing symbols:",
                    dataflow.unconstrained_influencers.len()
                )?;
                for name in &dataflow.unconstrained_influencers {
                    writeln!(f, "    UNCONSTRAINED-INFLUENCER {name}")?;
                }
            }
            if dataflow.findings() == 0 {
                writeln!(f, "  no dead branches; every path condition is live")?;
            }
        }
        if let Some(cert) = &self.coverage {
            write!(f, "{cert}")?;
        }
        if let Some(audit) = &self.audit {
            writeln!(
                f,
                "proof audit: {} units re-verified ({} dropped past the cap); \
                 in-process: {} steps, {} models, {} cores, {} failures",
                audit.units_checked,
                audit.units_dropped,
                audit.steps,
                audit.models,
                audit.cores,
                audit.recorded_failures
            )?;
            for rejection in &audit.rejected {
                writeln!(f, "  AUDIT-REJECTED {rejection}")?;
            }
            if audit.findings() == 0 {
                writeln!(
                    f,
                    "  every retained UNSAT answer is refuted by its conflict cone"
                )?;
            }
        }
        let findings = self.findings();
        if findings == 0 {
            writeln!(f, "lint: clean")
        } else {
            writeln!(f, "lint: {findings} findings")
        }
    }
}

fn hex(word: u32) -> String {
    format!("0x{word:08x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_renders_null_sections() {
        let report = LintReport::default();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"schema\": \"symcosim-lint/1\""));
        assert!(json.contains("\"tool\": \"symcosim\""));
        assert!(json.contains("\"version\": "));
        assert!(json.contains("\"decode_space\": null"));
        assert!(json.contains("\"cross_model\": null"));
        assert!(json.contains("\"ir\": null"));
        assert!(json.contains("\"dataflow\": null"));
        assert!(json.contains("\"coverage\": null"));
        assert!(json.contains("\"audit\": null"));
        assert!(json.contains("\"status\": \"clean\""));
    }

    #[test]
    fn findings_sum_across_sections() {
        let report = LintReport {
            ir: Some(crate::ir::IrReport {
                paths_checked: 1,
                violations: vec!["v".into()],
                statically_false: 0,
                advisories: 0,
                dead_symbols: Vec::new(),
                x0_cases: 0,
                x0_violations: vec!["w".into()],
            }),
            ..LintReport::default()
        };
        assert_eq!(report.findings(), 2);
        assert!(report.to_json().contains("\"status\": \"findings\""));
    }

    #[test]
    fn audit_rejections_gate_and_render() {
        let report = LintReport {
            audit: Some(AuditReport {
                units_checked: 3,
                units_dropped: 1,
                steps: 10,
                models: 2,
                cores: 4,
                recorded_failures: 0,
                rejected: vec!["unit 2: no conflict".into()],
            }),
            ..LintReport::default()
        };
        assert_eq!(report.findings(), 1);
        let json = report.to_json();
        assert!(json.contains("\"units_checked\": 3"), "{json}");
        assert!(json.contains("unit 2: no conflict"), "{json}");
        let text = report.to_string();
        assert!(text.contains("AUDIT-REJECTED"), "{text}");
    }
}
