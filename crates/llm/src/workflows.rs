//! NL-to-SQL workflows: zero-shot, DIN-SQL, and CodeS.
//!
//! * **Zero-shot** (denoted `-ZS` in the figures): one prompt, one
//!   completion — the paper's primary comparison setting.
//! * **DIN-SQL**: GPT-4-based prompt chaining; the first chain stage performs
//!   *schema subsetting* (table retrieval), later stages generate SQL over
//!   the pruned schema. Chaining slightly degrades the top model
//!   (`chain_factor`), and subsetting misses remove tables the generator can
//!   then never link (§5.2: "applying more complex workflows to
//!   high-performing LLMs may be counterproductive").
//! * **CodeS**: a finetuned schema-filtering classifier plus a smaller
//!   finetuned generator; the filter is the most naturalness-sensitive
//!   component (Figure 12).

use crate::generate::{infer_gold, mix_seed, GoldQuery, Inference};
use crate::linking::view_link_probability;
use crate::model::{ModelConfig, ModelKind};
use crate::schema_view::SchemaView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snails_data::{GoldPair, SnailsDatabase};
use std::collections::BTreeSet;

/// The six result rows of the paper's evaluation (Figures 8–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workflow {
    /// Zero-shot prompting with one of the five models.
    ZeroShot(ModelKind),
    /// DIN-SQL prompt chaining (GPT-4o for all chain steps, §4.2).
    DinSql,
    /// CodeS schema filtering + finetuned generation.
    CodeS,
}

impl Workflow {
    /// The six workflows in figure order.
    pub fn all() -> Vec<Workflow> {
        vec![
            Workflow::ZeroShot(ModelKind::Gemini15Pro),
            Workflow::ZeroShot(ModelKind::Gpt4o),
            Workflow::DinSql,
            Workflow::ZeroShot(ModelKind::Gpt35),
            Workflow::ZeroShot(ModelKind::PhindCodeLlama),
            Workflow::CodeS,
        ]
    }

    /// Display name matching the paper's result tables.
    pub fn display_name(&self) -> &'static str {
        match self {
            Workflow::ZeroShot(m) => m.display_name(),
            Workflow::DinSql => "DINSQL",
            Workflow::CodeS => "CodeS",
        }
    }

    /// The underlying model configuration.
    pub fn model_config(&self) -> ModelConfig {
        match self {
            Workflow::ZeroShot(m) => m.config(),
            Workflow::DinSql => {
                let mut c = ModelKind::Gpt4o.config();
                c.name = "DINSQL";
                // Prompt chaining overhead: each stage can derail the next.
                c.chain_factor = 0.62;
                c
            }
            Workflow::CodeS => {
                let mut c = ModelKind::CodeS.config();
                // The CodeS numbers in Figure 30 already reflect the full
                // pipeline; the filter is modelled separately below.
                c.chain_factor = 0.85;
                c
            }
        }
    }

    /// Schema-subsetting parameters `(base_recall, sensitivity,
    /// false_positive_rate)`, `None` for zero-shot (full schema in prompt).
    fn subset_params(&self) -> Option<(f64, f64, f64)> {
        match self {
            Workflow::ZeroShot(_) => None,
            // DIN-SQL's LLM-based retrieval: high recall, mildly sensitive.
            Workflow::DinSql => Some((0.97, 0.35, 0.06)),
            // CodeS's finetuned classifier: sensitive to naturalness.
            Workflow::CodeS => Some((0.95, 0.85, 0.04)),
        }
    }
}

/// Schema-subsetting outcome (Figure 12 metrics).
#[derive(Debug, Clone)]
pub struct SubsetOutcome {
    /// Native names of tables kept by the filter.
    pub kept: BTreeSet<String>,
    /// Native names of tables the gold query requires.
    pub gold: BTreeSet<String>,
}

impl SubsetOutcome {
    /// Table-retrieval recall.
    pub fn recall(&self) -> f64 {
        if self.gold.is_empty() {
            return 1.0;
        }
        self.gold.intersection(&self.kept).count() as f64 / self.gold.len() as f64
    }

    /// Table-retrieval precision.
    pub fn precision(&self) -> f64 {
        if self.kept.is_empty() {
            return 0.0;
        }
        self.gold.intersection(&self.kept).count() as f64 / self.kept.len() as f64
    }

    /// Table-retrieval F1.
    pub fn f1(&self) -> f64 {
        let (r, p) = (self.recall(), self.precision());
        if r + p == 0.0 {
            0.0
        } else {
            2.0 * r * p / (r + p)
        }
    }
}

/// A workflow run: the final inference plus the subsetting stage, if any.
#[derive(Debug, Clone)]
pub struct WorkflowResult {
    /// Workflow display name.
    pub workflow: &'static str,
    /// The generation-stage output.
    pub inference: Inference,
    /// The schema-subsetting stage output (DIN-SQL / CodeS only).
    pub subset: Option<SubsetOutcome>,
}

/// Simulate the schema-subsetting stage: every gold table is retained with a
/// probability driven by how decodable its displayed identifiers are (the
/// Figure 12 mechanism), and non-gold tables slip in at the false-positive
/// rate.
fn subset_schema(
    params: (f64, f64, f64),
    model: &ModelConfig,
    view: &SchemaView,
    gold_tables: &BTreeSet<String>,
    rng: &mut StdRng,
) -> SubsetOutcome {
    let (base, sensitivity, fp_rate) = params;
    let mut kept = BTreeSet::new();
    for t in view.tables() {
        let native_upper = t.native.to_ascii_uppercase();
        if gold_tables.contains(&native_upper) {
            // Retrieval confidence blends the table name's decodability with
            // its columns' (the filter reads both).
            let name_p = view_link_probability(model, view, &t.displayed, true);
            let col_p = if t.columns.is_empty() {
                name_p
            } else {
                t.columns
                    .iter()
                    .map(|c| view_link_probability(model, view, &c.displayed, false))
                    .sum::<f64>()
                    / t.columns.len() as f64
            };
            let decodability = 0.6 * name_p + 0.4 * col_p;
            let p_keep = base * (1.0 - sensitivity * (1.0 - decodability));
            if rng.gen::<f64>() < p_keep {
                kept.insert(native_upper);
            }
        } else if rng.gen::<f64>() < fp_rate {
            kept.insert(native_upper);
        }
    }
    SubsetOutcome { kept, gold: gold_tables.clone() }
}

/// Run one workflow on one question, parsing the gold query first.
/// [`crate::run_cell`] takes the gold query already parsed.
pub fn run_workflow(
    workflow: Workflow,
    db: &SnailsDatabase,
    view: &SchemaView,
    pair: &GoldPair,
    global_seed: u64,
) -> WorkflowResult {
    run_workflow_gold(workflow, db, view, pair, &GoldQuery::parse(&pair.sql), global_seed)
}

/// [`run_workflow`] from `pair`'s parsed gold query.
pub(crate) fn run_workflow_gold(
    workflow: Workflow,
    db: &SnailsDatabase,
    view: &SchemaView,
    pair: &GoldPair,
    gold: &GoldQuery,
    global_seed: u64,
) -> WorkflowResult {
    let model = workflow.model_config();
    match workflow.subset_params() {
        None => WorkflowResult {
            workflow: workflow.display_name(),
            inference: infer_gold(&model, db, view, pair, gold, global_seed),
            subset: None,
        },
        Some(params) => {
            let seed = mix_seed(
                &[workflow.display_name(), db.spec.name, "subset"],
                &[global_seed, pair.id as u64],
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let subset = subset_schema(params, &model, view, &gold.ids.tables, &mut rng);
            // Restrict the generator's view to the kept tables.
            let kept_displayed: Vec<String> = view
                .tables()
                .filter(|t| subset.kept.contains(&t.native.to_ascii_uppercase()))
                .map(|t| t.displayed.clone())
                .collect();
            let restricted = view.restricted_to(&kept_displayed);
            let inference = infer_gold(&model, db, &restricted, pair, gold, global_seed);
            WorkflowResult {
                workflow: workflow.display_name(),
                inference,
                subset: Some(subset),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snails_data::build_database;
    use snails_naturalness::category::SchemaVariant;

    #[test]
    fn six_workflows_with_paper_names() {
        let names: Vec<&str> = Workflow::all().iter().map(|w| w.display_name()).collect();
        assert_eq!(
            names,
            ["gemini-1.5-pro", "gpt-4o", "DINSQL", "gpt-3.5", "Phind-CodeLlama-34B-v2", "CodeS"]
        );
    }

    #[test]
    fn zero_shot_has_no_subset_stage() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Native);
        let r = run_workflow(
            Workflow::ZeroShot(ModelKind::Gpt4o),
            &db,
            &view,
            &db.questions[0],
            1,
        );
        assert!(r.subset.is_none());
    }

    #[test]
    fn din_sql_subsets_and_generates() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Native);
        let r = run_workflow(Workflow::DinSql, &db, &view, &db.questions[0], 1);
        let subset = r.subset.expect("DIN-SQL has a subset stage");
        assert!(!subset.gold.is_empty());
        assert!(subset.recall() >= 0.0 && subset.recall() <= 1.0);
        assert!(!r.inference.raw_sql.is_empty());
    }

    #[test]
    fn subset_metrics_hand_checked() {
        let s = SubsetOutcome {
            kept: ["A", "B", "C"].iter().map(|x| x.to_string()).collect(),
            gold: ["A", "D"].iter().map(|x| x.to_string()).collect(),
        };
        assert!((s.recall() - 0.5).abs() < 1e-12);
        assert!((s.precision() - 1.0 / 3.0).abs() < 1e-12);
        let f1 = 2.0 * 0.5 * (1.0 / 3.0) / (0.5 + 1.0 / 3.0);
        assert!((s.f1() - f1).abs() < 1e-12);
    }

    #[test]
    fn subset_edge_cases() {
        let empty_gold = SubsetOutcome { kept: BTreeSet::new(), gold: BTreeSet::new() };
        assert_eq!(empty_gold.recall(), 1.0);
        assert_eq!(empty_gold.precision(), 0.0);
        assert_eq!(empty_gold.f1(), 0.0);
    }

    #[test]
    fn codes_subsetting_sensitive_to_naturalness() {
        let db = build_database("CWO");
        let regular = SchemaView::new(&db, SchemaVariant::Regular);
        let least = SchemaView::new(&db, SchemaVariant::Least);
        let mean_recall = |view: &SchemaView| {
            let mut total = 0.0;
            for (i, pair) in db.questions.iter().enumerate() {
                let r = run_workflow(Workflow::CodeS, &db, view, pair, i as u64);
                total += r.subset.unwrap().recall();
            }
            total / db.questions.len() as f64
        };
        let reg = mean_recall(&regular);
        let lst = mean_recall(&least);
        assert!(reg > lst, "regular {reg} !> least {lst}");
    }

    #[test]
    fn workflow_runs_are_deterministic() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Low);
        let a = run_workflow(Workflow::CodeS, &db, &view, &db.questions[3], 11);
        let b = run_workflow(Workflow::CodeS, &db, &view, &db.questions[3], 11);
        assert_eq!(a.inference.raw_sql, b.inference.raw_sql);
        assert_eq!(a.subset.unwrap().kept, b.subset.unwrap().kept);
    }
}
