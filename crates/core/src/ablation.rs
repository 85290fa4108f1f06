//! Ablation study over the simulated-model design choices (DESIGN.md §4).
//!
//! The benchmark's central claim is *mechanistic*: naturalness affects
//! NL-to-SQL because identifier tokens decode with class-dependent
//! probability. Each ablation disables one simulation component and reruns a
//! zero-shot benchmark; the table reports per-variant QueryRecall, the
//! Regular→Least gap, and the Kendall-τ between query combined naturalness
//! and recall.
//!
//! The decisive row is **uniform-decode**: with all token classes decoding
//! at the dictionary-word rate, the naturalness effect must vanish (gap ≈ 0,
//! τ ≈ 0) — demonstrating that the reproduced Figures 8–11 are driven by the
//! decoding mechanism, not by an artifact of the pipeline.

use crate::pipeline::{gold_context, EvalContext, GoldContext};
use snails_data::SnailsDatabase;
use snails_eval::report::{fmt2, TextTable};
use snails_eval::stats::kendall_tau_b;
use snails_eval::query_linking;
use snails_llm::generate::infer_gold;
use snails_llm::{ModelConfig, ModelKind, SchemaView};
use snails_naturalness::category::SchemaVariant;
use snails_sql::extract_identifiers;

/// One ablation: a name and a transform applied to the base model config.
pub struct Ablation {
    /// Row label.
    pub name: &'static str,
    /// What the ablation disables.
    pub description: &'static str,
    /// Config transform.
    pub apply: fn(ModelConfig) -> ModelConfig,
}

/// The standard ablation set.
pub fn standard_ablations() -> Vec<Ablation> {
    vec![
        Ablation {
            name: "full",
            description: "the calibrated simulation",
            apply: |c| c,
        },
        Ablation {
            name: "uniform-decode",
            description: "all token classes decode at the word rate",
            apply: |mut c| {
                c.abbrev_decode = c.word_decode;
                c.opaque_decode = c.word_decode;
                c
            },
        },
        Ablation {
            name: "no-distraction",
            description: "schema size does not shrink link probability",
            apply: |mut c| {
                c.distraction = 0.0;
                c
            },
        },
        Ablation {
            name: "no-hallucination",
            description: "failed links never mutate identifiers",
            apply: |mut c| {
                c.hallucination = 0.0;
                c
            },
        },
        Ablation {
            name: "no-guessing",
            description: "failed links never guess natural names",
            apply: |mut c| {
                c.guess_natural = 0.0;
                c
            },
        },
        Ablation {
            name: "perfect-structure",
            description: "no structural mutations or syntax failures",
            apply: |mut c| {
                c.structure_skill = 1.0;
                c.syntax_failure = 0.0;
                c
            },
        },
    ]
}

/// Per-variant mean recall plus the naturalness correlation for one config.
#[derive(Debug, Clone, Copy)]
pub struct AblationOutcome {
    /// Mean QueryRecall per variant, `[Native, Regular, Low, Least]`.
    pub recall: [f64; 4],
    /// τ between query combined naturalness and recall (all variants pooled);
    /// `None` when the correlation is undefined.
    pub tau: Option<f64>,
    /// Its p-value.
    pub p_value: Option<f64>,
}

impl AblationOutcome {
    /// The Regular→Least recall gap — the naturalness effect size.
    pub fn gap(&self) -> f64 {
        self.recall[1] - self.recall[3]
    }
}

/// Run one config over a database at all variants (zero-shot).
pub fn run_ablation(config: &ModelConfig, db: &SnailsDatabase, seed: u64) -> AblationOutcome {
    let mut recall = [0.0f64; 4];
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let golds: Vec<GoldContext> = db.questions.iter().map(|p| gold_context(db, p)).collect();
    for (vi, &variant) in SchemaVariant::ALL.iter().enumerate() {
        let ctx = EvalContext::new(db, SchemaView::new(db, variant));
        let mut sum = 0.0;
        let mut n = 0usize;
        for (pair, gold) in db.questions.iter().zip(&golds) {
            let inference = infer_gold(config, db, &ctx.view, pair, &gold.query, seed);
            let Ok(pred) = ctx.denaturalize(&inference.raw_sql) else { continue };
            let pred = extract_identifiers(&pred);
            let scores = query_linking(&gold.query.ids, &pred);
            sum += scores.recall;
            n += 1;
            let measures = crate::measures::query_measures(db, variant, &gold.query.ids);
            xs.push(measures.combined);
            ys.push(scores.recall);
        }
        recall[vi] = if n == 0 { 0.0 } else { sum / n as f64 };
    }
    let k = kendall_tau_b(&xs, &ys);
    AblationOutcome {
        recall,
        tau: k.map(|r| r.tau),
        p_value: k.map(|r| r.p_value),
    }
}

/// The full ablation table for one base model over one database.
pub fn ablation_report(db: &SnailsDatabase, base: ModelKind, seed: u64) -> String {
    let mut table = TextTable::new(&[
        "Ablation", "Native", "Regular", "Low", "Least", "Reg-Least gap", "tau(combined)",
    ]);
    for ablation in standard_ablations() {
        let config = (ablation.apply)(base.config());
        let outcome = run_ablation(&config, db, seed);
        table.row(vec![
            ablation.name.to_owned(),
            fmt2(outcome.recall[0]),
            fmt2(outcome.recall[1]),
            fmt2(outcome.recall[2]),
            fmt2(outcome.recall[3]),
            fmt2(outcome.gap()),
            outcome.tau.map(fmt2).unwrap_or_else(|| "n/a".into()),
        ]);
    }
    format!(
        "Ablation study ({} over {}): QueryRecall per schema variant with one \
         simulation component disabled at a time. `uniform-decode` removes the \
         class-dependent token decoding and with it the naturalness effect — \
         the mechanism, not the pipeline, produces the paper's results.\n{}",
        base.display_name(),
        db.spec.name,
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use snails_data::build_database;

    #[test]
    fn uniform_decode_removes_naturalness_effect() {
        let db = build_database("CWO");
        let base = ModelKind::Gpt35.config();
        let full = run_ablation(&base, &db, 5);
        let uniform = run_ablation(&(standard_ablations()[1].apply)(base), &db, 5);
        // The calibrated model shows a clear Regular→Least gap...
        assert!(full.gap() > 0.10, "full gap {:.3}", full.gap());
        // ...which (nearly) vanishes with uniform decoding.
        assert!(
            uniform.gap().abs() < 0.05,
            "uniform-decode gap {:.3} should be ≈0",
            uniform.gap()
        );
        // And the naturalness correlation collapses with it.
        let full_tau = full.tau.unwrap();
        assert!(full_tau > 0.1, "full τ {full_tau:.3}");
        if let Some(t) = uniform.tau {
            assert!(t.abs() < 0.08, "uniform τ {t:.3} should be ≈0");
        }
    }

    #[test]
    fn perfect_structure_raises_recall_keeps_effect() {
        let db = build_database("CWO");
        let base = ModelKind::PhindCodeLlama.config();
        let full = run_ablation(&base, &db, 5);
        let perfect =
            run_ablation(&(standard_ablations()[5].apply)(base), &db, 5);
        // Recall improves everywhere (no drop-join mutations)...
        assert!(perfect.recall[1] >= full.recall[1] - 0.02);
        // ...but the naturalness gap persists.
        assert!(perfect.gap() > 0.10, "gap {:.3}", perfect.gap());
    }

    #[test]
    fn ablation_report_renders() {
        let db = build_database("CWO");
        let report = ablation_report(&db, ModelKind::Gpt35, 5);
        assert!(report.contains("uniform-decode"));
        assert!(report.contains("no-distraction"));
        assert!(report.matches('\n').count() >= 8);
    }
}
