//! Checkpoint/resume, sharding, and merge invariants.
//!
//! The recovery-correctness contract: a run that crashes, resumes, shards,
//! or trips over corrupted checkpoint files must end with records, fault
//! summary, and deterministic telemetry **byte-identical** to the
//! uninterrupted single-process run. These tests drive the pipeline
//! in-process (the kill-the-worker harness lives in the workspace-root
//! `tests/`, where the `snails` binary is available).

use proptest::prelude::*;
use snails_core::checkpoint::{
    fnv1a, manifest_from_run, merge_manifests, CellLoad, CellStore, CheckpointSpec, Shard,
    Telemetry,
};
use snails_core::pipeline::{run_benchmark_on, BenchmarkConfig, FaultSummary, QueryRecord};
use snails_data::SnailsDatabase;
use snails_llm::faults::FaultProfile;
use snails_llm::{ModelKind, Workflow};
use snails_naturalness::category::SchemaVariant;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn collection() -> Vec<SnailsDatabase> {
    vec![snails_data::build_database("CWO")]
}

/// 160 cells: 2 variants × 2 workflows × 40 questions on one database.
fn small_config(profile: FaultProfile) -> BenchmarkConfig {
    BenchmarkConfig {
        seed: 7,
        databases: vec!["CWO".into()],
        variants: vec![SchemaVariant::Native, SchemaVariant::Least],
        workflows: vec![
            Workflow::ZeroShot(ModelKind::Gpt4o),
            Workflow::ZeroShot(ModelKind::PhindCodeLlama),
        ],
        threads: Some(2),
        fault_profile: profile,
        telemetry: true,
        ..BenchmarkConfig::default()
    }
}

/// Fresh scratch directory under the target-adjacent temp root.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snails-ckpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn cell_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("cells"))
        .expect("cells dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rec"))
        .collect();
    files.sort();
    files
}

fn quarantined(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("quarantine")).map_or(0, |d| d.count())
}

#[test]
fn fresh_checkpointed_run_matches_uncheckpointed_run() {
    let dbs = collection();
    let baseline_cfg = small_config(FaultProfile::FLAKY);
    let baseline = run_benchmark_on(&dbs, &baseline_cfg);

    let dir = scratch("fresh");
    let cfg = BenchmarkConfig {
        checkpoint: Some(CheckpointSpec::at(&dir)),
        ..small_config(FaultProfile::FLAKY)
    };
    let run = run_benchmark_on(&dbs, &cfg);

    assert_eq!(run.records, baseline.records);
    assert_eq!(run.faults, baseline.faults);
    assert_eq!(
        run.telemetry.as_ref().unwrap().deterministic_json(),
        baseline.telemetry.as_ref().unwrap().deterministic_json(),
        "checkpointing must not perturb the deterministic telemetry"
    );
    assert_eq!(
        manifest_from_run(&run, &cfg).to_string(),
        manifest_from_run(&baseline, &baseline_cfg).to_string()
    );
    let stats = run.checkpoint.expect("checkpoint stats present");
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.misses, 160);
    // Every non-panicking cell persisted; injected-panic cells unwind out
    // of the evaluator before the store sees them.
    let panics = *run.faults.failures.get("panic").unwrap_or(&0);
    assert_eq!(stats.written + panics, 160);
    assert_eq!(cell_files(&dir).len() as u64, stats.written);
}

#[test]
fn partial_resume_is_byte_identical_across_thread_counts() {
    let dbs = collection();
    let dir = scratch("resume");
    let cfg = |threads: usize| BenchmarkConfig {
        threads: Some(threads),
        checkpoint: Some(CheckpointSpec::at(&dir)),
        ..small_config(FaultProfile::FLAKY)
    };
    let fresh = run_benchmark_on(&dbs, &cfg(1));
    let fresh_manifest = manifest_from_run(&fresh, &cfg(1)).to_string();

    // Knock out every other stored record; the resumed run must recompute
    // exactly those cells and reproduce the run byte-for-byte — at a
    // different thread count than the fresh run, to boot.
    for (i, path) in cell_files(&dir).iter().enumerate() {
        if i % 2 == 0 {
            std::fs::remove_file(path).unwrap();
        }
    }
    for threads in [2usize, 8] {
        let resumed = run_benchmark_on(&dbs, &cfg(threads));
        let stats = resumed.checkpoint.expect("stats");
        assert!(stats.hits > 0, "some cells restored");
        assert!(stats.misses > 0, "some cells recomputed");
        assert_eq!(stats.corrupt, 0);
        assert_eq!(resumed.records, fresh.records);
        assert_eq!(resumed.faults, fresh.faults);
        assert_eq!(manifest_from_run(&resumed, &cfg(threads)).to_string(), fresh_manifest);
        assert_eq!(
            resumed.telemetry.as_ref().unwrap().deterministic_json(),
            fresh.telemetry.as_ref().unwrap().deterministic_json(),
            "restored cells must replay their telemetry deltas exactly"
        );
        let report = resumed.telemetry.as_ref().unwrap();
        assert_eq!(report.counter("checkpoint.hit"), stats.hits);
        // Knock the same half out again so the second thread count also
        // exercises a genuine partial resume.
        for (i, path) in cell_files(&dir).iter().enumerate() {
            if i % 2 == 0 {
                std::fs::remove_file(path).unwrap();
            }
        }
    }
}

/// A fully restored run executes no cell: the plan-cache lookups that
/// every executed cell makes are absent from the stored deltas, so any
/// recomputed cell would show up in the assembly counters.
#[test]
fn full_resume_restores_every_cell_without_executing_one() {
    let dbs = collection();
    let dir = scratch("full");
    let cfg = |threads: usize| BenchmarkConfig {
        threads: Some(threads),
        checkpoint: Some(CheckpointSpec::at(&dir)),
        ..small_config(FaultProfile::NONE)
    };
    let fresh = run_benchmark_on(&dbs, &cfg(2));
    let fresh_report = fresh.telemetry.as_ref().unwrap();
    assert!(fresh_report.counter("engine.plan.cache_miss") > 0, "the fresh run executed");
    assert_eq!(fresh_report.counter("checkpoint.written"), 160);
    for threads in [1usize, 8] {
        let resumed = run_benchmark_on(&dbs, &cfg(threads));
        let stats = resumed.checkpoint.expect("stats");
        assert_eq!((stats.hits, stats.misses, stats.corrupt), (160, 0, 0), "threads {threads}");
        assert_eq!(stats.written, 0, "threads {threads}: a full resume writes nothing");
        assert_eq!(cell_files(&dir).len(), 160);
        let report = resumed.telemetry.as_ref().unwrap();
        assert_eq!(report.counter("checkpoint.hit"), 160);
        assert_eq!(report.counter("checkpoint.written"), 0);
        assert_eq!(
            report.counter("engine.plan.cache_hit") + report.counter("engine.plan.cache_miss"),
            0,
            "threads {threads}: a restored cell looked up a plan"
        );
        assert_eq!(resumed.records, fresh.records);
        assert_eq!(report.deterministic_json(), fresh_report.deterministic_json());
        assert_eq!(
            manifest_from_run(&resumed, &cfg(threads)).to_string(),
            manifest_from_run(&fresh, &cfg(2)).to_string()
        );
    }
}

/// Cell files of the previous format (`snails-ckpt v2`, whose telemetry
/// followed a `tel <n>` count line as lowercase `tc`/`th`/`ts` lines) fail
/// validation as a whole: they are quarantined and their cells recomputed,
/// never parsed as current records.
#[test]
fn previous_format_cell_files_are_quarantined_and_recomputed() {
    let dbs = collection();
    let dir = scratch("v2");
    let cfg = BenchmarkConfig {
        checkpoint: Some(CheckpointSpec::at(&dir)),
        ..small_config(FaultProfile::NONE)
    };
    let fresh = run_benchmark_on(&dbs, &cfg);
    let files = cell_files(&dir);
    let downgraded: Vec<&PathBuf> = files.iter().step_by(7).collect();
    for path in &downgraded {
        // Rewrite the file as v2 wrote it: old header, the telemetry count
        // line, lowercase telemetry tags, and a valid checksum over the
        // whole body.
        let text = std::fs::read_to_string(path).unwrap();
        let body = &text[..text.rfind("sum ").unwrap()];
        let (head, tel): (Vec<&str>, Vec<&str>) =
            body.lines().partition(|line| !line.starts_with('T'));
        assert_eq!(head[0], "snails-ckpt v3");
        assert!(tel.iter().any(|l| l.starts_with("TS cell ")), "{text}");
        let mut v2 = format!("snails-ckpt v2\n{}\ntel {}\n", head[1..].join("\n"), tel.len());
        for line in tel {
            v2.push_str(&line[..2].to_lowercase());
            v2.push_str(&line[2..]);
            v2.push('\n');
        }
        let sum = fnv1a(v2.as_bytes());
        std::fs::write(path, format!("{v2}sum {sum:016x}\n")).unwrap();
    }

    let resumed = run_benchmark_on(&dbs, &cfg);
    let stats = resumed.checkpoint.expect("stats");
    let n = downgraded.len() as u64;
    assert_eq!((stats.hits, stats.corrupt, stats.written), (160 - n, n, n));
    assert_eq!(quarantined(&dir), downgraded.len());
    assert_eq!(resumed.records, fresh.records);
    assert_eq!(
        resumed.telemetry.as_ref().unwrap().deterministic_json(),
        fresh.telemetry.as_ref().unwrap().deterministic_json()
    );
}

#[test]
fn corrupted_records_are_quarantined_and_recomputed() {
    let dbs = collection();
    let dir = scratch("corrupt");
    let cfg = BenchmarkConfig {
        checkpoint: Some(CheckpointSpec::at(&dir)),
        ..small_config(FaultProfile::FLAKY)
    };
    let fresh = run_benchmark_on(&dbs, &cfg);
    let files = cell_files(&dir);
    assert!(files.len() > 8, "enough records to vandalize");

    // Four distinct corruption modes: truncation, a bit flip, wholesale
    // garbage, and an empty file.
    let original = std::fs::read(&files[0]).unwrap();
    std::fs::write(&files[0], &original[..original.len() / 2]).unwrap();
    let mut flipped = std::fs::read(&files[2]).unwrap();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&files[2], &flipped).unwrap();
    std::fs::write(&files[4], b"not a checkpoint at all\n").unwrap();
    std::fs::write(&files[6], b"").unwrap();

    let resumed = run_benchmark_on(&dbs, &cfg);
    let stats = resumed.checkpoint.expect("stats");
    assert_eq!(stats.corrupt, 4, "all four vandalized records detected");
    assert_eq!(quarantined(&dir), 4, "vandalized files moved aside");
    assert_eq!(resumed.records, fresh.records, "corruption is recomputed, not trusted");
    assert_eq!(resumed.faults, fresh.faults);
    assert_eq!(
        resumed.telemetry.as_ref().unwrap().deterministic_json(),
        fresh.telemetry.as_ref().unwrap().deterministic_json()
    );
    assert_eq!(resumed.telemetry.as_ref().unwrap().counter("checkpoint.corrupt"), 4);
    // The recomputed cells were re-stored: a third run restores everything.
    let third = run_benchmark_on(&dbs, &cfg);
    let stats = third.checkpoint.expect("stats");
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.written, 0);
    assert_eq!(third.records, fresh.records);
}

#[test]
fn cross_grid_records_are_rejected_not_misused() {
    let dbs = collection();
    let dir = scratch("foreign");
    let cfg_a = BenchmarkConfig {
        checkpoint: Some(CheckpointSpec::at(&dir)),
        ..small_config(FaultProfile::FLAKY)
    };
    // A different seed is a different grid fingerprint sharing the same
    // checkpoint directory.
    let cfg_b = BenchmarkConfig { seed: 8, ..cfg_a.clone() };
    let run_a = run_benchmark_on(&dbs, &cfg_a);
    assert_ne!(run_a.fingerprint, run_benchmark_on(&dbs, &cfg_b).fingerprint);

    // Grid B's records live under different content-addressed names, so
    // grid A simply misses them — but if one is *renamed* over an A path
    // (simulating a stale or mixed-up store), the fingerprint check must
    // quarantine it rather than let B's result impersonate A's.
    let files = cell_files(&dir);
    let a_path = files
        .iter()
        .find(|p| std::fs::read_to_string(p).unwrap().contains(&format!(
            "fp {:016x}",
            run_a.fingerprint
        )))
        .expect("an A record exists")
        .clone();
    let b_path = files
        .iter()
        .find(|p| !std::fs::read_to_string(p).unwrap().contains(&format!(
            "fp {:016x}",
            run_a.fingerprint
        )))
        .expect("a B record exists");
    std::fs::copy(b_path, &a_path).unwrap();

    let resumed = run_benchmark_on(&dbs, &cfg_a);
    let stats = resumed.checkpoint.expect("stats");
    assert!(stats.corrupt >= 1, "foreign-fingerprint record quarantined");
    assert_eq!(resumed.records, run_a.records);
}

#[test]
fn shard_merge_reproduces_the_full_run_manifest() {
    let dbs = collection();
    let full_cfg = small_config(FaultProfile::FLAKY);
    let full = run_benchmark_on(&dbs, &full_cfg);
    let full_manifest = manifest_from_run(&full, &full_cfg).to_string();

    for count in [2usize, 4] {
        let mut manifests = Vec::new();
        for index in 0..count {
            let cfg = BenchmarkConfig {
                shard: Shard { index, count },
                // Vary the thread count per shard: determinism must not
                // depend on how each shard was scheduled.
                threads: Some(1 + index % 3),
                ..small_config(FaultProfile::FLAKY)
            };
            let run = run_benchmark_on(&dbs, &cfg);
            assert_eq!(run.faults.cells, run.records.len());
            manifests.push(manifest_from_run(&run, &cfg));
        }
        // Present the shards out of order: the merge is order-insensitive.
        manifests.rotate_left(count / 2);
        let merged = merge_manifests(manifests).expect("complete disjoint shards merge");
        assert_eq!(
            merged.to_string(),
            full_manifest,
            "{count}-way shard merge must be byte-identical to the full run"
        );
        assert_eq!(merged.faults, full.faults);
    }
}

#[test]
fn sharded_fault_summaries_sum_to_the_full_run_summary_under_hostile_faults() {
    let dbs = collection();
    let mut base = small_config(FaultProfile::HOSTILE);
    base.telemetry = false;
    let full = run_benchmark_on(&dbs, &base);
    assert!(full.faults.breaker_trips > 0, "hostile profile trips breakers");

    let mut summed = FaultSummary::default();
    let mut all_records = Vec::new();
    for index in 0..4 {
        let cfg = BenchmarkConfig { shard: Shard { index, count: 4 }, ..base.clone() };
        let run = run_benchmark_on(&dbs, &cfg);
        summed.merge(&run.faults);
        all_records.push(run.records);
    }
    assert_eq!(summed, full.faults, "per-cell trip attribution survives sharding");

    // Interleaving the shard record streams reproduces the full stream.
    let mut iters: Vec<_> = all_records.into_iter().map(Vec::into_iter).collect();
    let interleaved: Vec<_> = (0..full.records.len()).map(|i| iters[i % 4].next().unwrap()).collect();
    assert_eq!(interleaved, full.records);
}

fn arb_summary() -> impl Strategy<Value = FaultSummary> {
    (
        0usize..2000,
        0u64..10_000,
        0u64..5_000,
        0u64..50,
        proptest::collection::vec((0usize..7, 0u64..100), 0..7),
    )
        .prop_map(|(cells, attempts, retries, trips, kinds)| {
            let names = [
                "timeout",
                "rate_limit",
                "truncated",
                "garbage",
                "panic",
                "circuit_open",
                "resource_exhausted",
            ];
            let mut failures: BTreeMap<&'static str, u64> = BTreeMap::new();
            for (k, n) in kinds {
                *failures.entry(names[k]).or_insert(0) += n;
            }
            FaultSummary { cells, attempts, retries, breaker_trips: trips, failures }
        })
}

fn merged(parts: &[&FaultSummary]) -> FaultSummary {
    let mut out = FaultSummary::default();
    for p in parts {
        out.merge(p);
    }
    out
}

proptest! {
    #[test]
    fn fault_summary_merge_is_associative_and_commutative(
        a in arb_summary(),
        b in arb_summary(),
        c in arb_summary(),
    ) {
        // Commutative.
        prop_assert_eq!(merged(&[&a, &b]), merged(&[&b, &a]));
        // Associative: (a+b)+c == a+(b+c).
        let ab_c = merged(&[&merged(&[&a, &b]), &c]);
        let a_bc = merged(&[&a, &merged(&[&b, &c])]);
        prop_assert_eq!(&ab_c, &a_bc);
        // Identity.
        prop_assert_eq!(merged(&[&a, &FaultSummary::default()]), a.clone());
        // The JSON rendering agrees wherever the summaries do.
        prop_assert_eq!(ab_c.to_json(), a_bc.to_json());
    }
}

/// 512 truncations, bit flips and insertions of one stored cell file: the
/// store must quarantine every mutated file and restore only the pristine
/// one, with the record and telemetry that were stored.
fn fuzz_stored_cell(tag: &str, record: &QueryRecord, telemetry: Option<Telemetry>) {
    use proptest::test_runner::TestRng;

    let dir = scratch(tag);
    let spec = CheckpointSpec::at(&dir);
    let store = CellStore::open(&spec, 0xfeed_f00d).unwrap();
    let need_telemetry = telemetry.is_some();
    store.store(3, record, telemetry).unwrap();
    let path = cell_files(&dir)[0].clone();
    let pristine = std::fs::read(&path).unwrap();
    let CellLoad::Hit { telemetry: stored, .. } = store.load(3, need_telemetry) else {
        panic!("the pristine file must verify");
    };
    assert_eq!(stored.is_some(), need_telemetry);

    let mut rng = TestRng::new(0x5eed);
    for case in 0..512u32 {
        let mut bytes = pristine.clone();
        match case % 3 {
            0 => bytes.truncate(rng.below(pristine.len() + 1)),
            1 => {
                let p = rng.below(pristine.len());
                bytes[p] ^= 1 << rng.below(8);
            }
            _ => {
                let p = rng.below(pristine.len());
                bytes.splice(p..p, b"junk".iter().copied());
            }
        }
        std::fs::write(&path, &bytes).unwrap();
        match store.load(3, need_telemetry) {
            // Only identical bytes may verify (truncation at the full
            // length is the one mutation that is a no-op).
            CellLoad::Hit { record: r, telemetry } => {
                assert_eq!(
                    bytes, pristine,
                    "case {case}: a mutated record must never verify"
                );
                assert_eq!(&r, record);
                assert_eq!(telemetry, stored);
            }
            CellLoad::Corrupt => {
                assert_ne!(bytes, pristine, "case {case}: pristine record rejected");
            }
            CellLoad::Miss => panic!("case {case}: file exists; load must not miss"),
        }
        std::fs::write(&path, &pristine).unwrap();
    }
    // The pristine record still verifies after the whole gauntlet.
    assert!(matches!(store.load(3, need_telemetry), CellLoad::Hit { .. }));
}

/// One real record to vandalize, produced by the actual pipeline, with the
/// run's telemetry.
fn fuzz_input() -> (QueryRecord, Telemetry) {
    let run = run_benchmark_on(&collection(), &small_config(FaultProfile::NONE));
    let report = run.telemetry.expect("telemetry run");
    (run.records[0].clone(), (report.metrics.deterministic, report.spans))
}

#[test]
fn stored_record_fuzz_never_panics_and_never_lies() {
    fuzz_stored_cell("fuzz", &fuzz_input().0, None);
}

/// The same gauntlet over a cell stored with telemetry, so the mutations
/// also land on the `TC`/`TH`/`TS` lines whose codec manifests share.
#[test]
fn stored_telemetry_fuzz_never_panics_and_never_lies() {
    let (record, telemetry) = fuzz_input();
    assert!(!telemetry.0.histograms.is_empty() && !telemetry.1.is_empty());
    fuzz_stored_cell("fuzz-tel", &record, Some(telemetry));
}
