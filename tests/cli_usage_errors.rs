//! Bad database names and question ids are usage errors at the CLI
//! boundary: the binary exits 2 with the valid names on stderr instead of
//! panicking (exit 101) while building a database. The `experiments`
//! binary likewise exits 2 on a malformed command line (the grid's
//! `--shard` flag belongs to `snails grid`, not to it), and on `--write`
//! with a partial report (one section or `--quick`), before it runs
//! anything or writes EXPERIMENTS.md. `snails ask`'s output for a valid
//! question is pinned too.

use std::process::{Command, Output};

fn snails(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snails"))
        .args(args)
        .output()
        .expect("spawn snails")
}

fn assert_usage_error(args: &[&str], lists_databases: bool) {
    let out = snails(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    if lists_databases {
        for name in snails::data::DATABASE_NAMES {
            assert!(
                stderr.contains(name),
                "{args:?} does not list {name}: {stderr}"
            );
        }
    }
}

#[test]
fn unknown_databases_are_usage_errors() {
    assert_usage_error(&["sql", "NOPE", "SELECT 1"], true);
    assert_usage_error(&["audit", "NOPE"], true);
    assert_usage_error(&["ask", "NOPE", "1"], true);
    assert_usage_error(&["load", "--dbs", "NOPE"], true);
    let socket = std::env::temp_dir().join(format!("snails-cli-usage-{}.sock", std::process::id()));
    let socket_arg = socket.to_str().expect("utf-8 temp path");
    assert_usage_error(
        &["serve", "--socket", socket_arg, "--dbs", "CWO,NOPE"],
        true,
    );
    assert!(
        !socket.exists(),
        "serve bound its socket before rejecting --dbs"
    );
}

#[test]
fn a_non_numeric_question_id_is_a_usage_error() {
    assert_usage_error(&["ask", "CWO", "abc"], false);
}

/// `snails ask` prints the question, the gold SQL, the model's completion
/// and the cell's verdict. NTSB question 5 under Phind shows failed links:
/// a distractor table and an extra projected column.
#[test]
fn ask_prints_the_question_gold_prediction_and_verdict() {
    let cases: [(&[&str], &str); 2] = [
        (
            &["ask", "CWO", "1"],
            "Q:    List the species name of every species whose species category is 'mammal'.\n\
             gold: SELECT species_nm FROM species WHERE species_category = 'mammal'\n\
             pred: SELECT species_nm FROM species WHERE species_category = 'mammal'\n\
             exec: correct | linking recall 1.00\n",
        ),
        (
            &["ask", "NTSB", "5", "phind"],
            "Q:    List the model name of every vehicle model whose model category is 'truck'.\n\
             gold: SELECT MODELNAME FROM VHMD WHERE MODELCAT = 'truck'\n\
             pred: SELECT MODELNAME, MDSC FROM CRDT WHERE MODELNAME = 'truck'\n\
             exec: incorrect | linking recall 0.33\n",
        ),
    ];
    for (args, expected) in cases {
        let out = snails(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{args:?}");
    }
}

#[test]
fn malformed_experiments_arguments_are_usage_errors() {
    // A scratch working directory: a case that slipped through with
    // `--write` would write EXPERIMENTS.md here, not into the repository.
    let dir = std::env::temp_dir().join(format!("snails-cli-usage-exp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let cases: [&[&str]; 10] = [
        &["--seed"],
        &["--seed", "abc"],
        &["--threads", "abc"],
        &["--threads", "0"],
        &["bogus"],
        &["--fig99"],
        &["--write", "--fig99"],
        // `--write` replaces EXPERIMENTS.md, so it takes only the full report.
        &["--write", "--table1"],
        &["--quick", "--write"],
        &["--write", "--shard", "1/4"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
    assert!(!dir.join("EXPERIMENTS.md").exists(), "a rejected --write still wrote the report");
    let _ = std::fs::remove_dir_all(&dir);
}
