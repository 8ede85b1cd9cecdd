//! Rule-by-rule fixture tests (one passing and one violating file per
//! rule) plus the live-workspace check: the repository this lint ships
//! in must itself lint clean.

use std::path::PathBuf;

use streambal_lint::rules::{lint_bench_results, scan_source, FileClass, MAX_FN_LINES};
use streambal_lint::walk::{classify, lint_workspace};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(fixture_path(name)).expect("fixture readable")
}

/// All source rules active: the class of a `crates/runtime/src` file.
fn full_class() -> FileClass {
    FileClass {
        panic_scope: true,
        data_plane: true,
        swap_allowed: false,
        fn_line_cap: Some(MAX_FN_LINES),
    }
}

/// [`full_class`] with L008's cap shrunk to fixture size.
fn capped_at(cap: u32) -> FileClass {
    FileClass {
        fn_line_cap: Some(cap),
        ..full_class()
    }
}

fn rules_hit(name: &str) -> Vec<(&'static str, u32)> {
    scan_source(name, &fixture(name), &full_class())
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn l001_flags_every_panic_family_member() {
    assert_eq!(
        rules_hit("l001_violate.rs"),
        vec![("L001", 4), ("L001", 8), ("L001", 12), ("L001", 16)]
    );
}

#[test]
fn l001_pass_shapes_stay_clean() {
    assert_eq!(rules_hit("l001_pass.rs"), vec![]);
}

#[test]
fn l002_flags_bare_unsafe() {
    assert_eq!(rules_hit("l002_violate.rs"), vec![("L002", 4)]);
}

#[test]
fn l002_safety_comments_pass() {
    assert_eq!(rules_hit("l002_pass.rs"), vec![]);
}

#[test]
fn l003_flags_whitelist_escape() {
    assert_eq!(rules_hit("l003_violate.rs"), vec![("L003", 4)]);
}

#[test]
fn l003_docs_strings_and_tests_pass() {
    assert_eq!(rules_hit("l003_pass.rs"), vec![]);
}

#[test]
fn l003_whitelisted_file_is_exempt() {
    let class = FileClass {
        swap_allowed: true,
        ..full_class()
    };
    let vs = scan_source("l003_violate.rs", &fixture("l003_violate.rs"), &class);
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn l004_flags_plain_batch_sends() {
    assert_eq!(rules_hit("l004_violate.rs"), vec![("L004", 4), ("L004", 8)]);
}

#[test]
fn l004_weighted_control_annotated_and_test_sends_pass() {
    assert_eq!(rules_hit("l004_pass.rs"), vec![]);
}

#[test]
fn l005_unknown_key_is_flagged() {
    let (vs, checked) = lint_bench_results(&fixture_path("l005_violate"));
    assert_eq!(checked, 2);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].rule, "L005");
    assert!(vs[0].msg.contains("blorbo_index"), "{}", vs[0].msg);
}

#[test]
fn l005_classified_keys_pass() {
    let (vs, checked) = lint_bench_results(&fixture_path("l005_pass"));
    assert_eq!(checked, 3);
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn l006_flags_ungated_intrinsics() {
    assert_eq!(rules_hit("l006_violate.rs"), vec![("L006", 6)]);
}

#[test]
fn l006_gated_intrinsics_pass() {
    assert_eq!(rules_hit("l006_pass.rs"), vec![]);
}

#[test]
fn l007_flags_per_event_recording_on_the_data_plane() {
    assert_eq!(
        rules_hit("l007_violate.rs"),
        vec![("L007", 5), ("L007", 10)]
    );
}

#[test]
fn l007_batch_granularity_ledger_annotated_and_test_sites_pass() {
    assert_eq!(rules_hit("l007_pass.rs"), vec![]);
}

#[test]
fn l008_flags_a_function_over_the_cap() {
    let vs = scan_source("l008.rs", &fixture("l008.rs"), &capped_at(6));
    let hit: Vec<_> = vs.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(hit, vec![("L008", 12)]);
    assert!(
        vs[0].msg.contains("`one_over` spans 7 lines"),
        "{}",
        vs[0].msg
    );
}

#[test]
fn l008_at_the_cap_bodiless_pointer_and_test_functions_pass() {
    assert_eq!(rules_hit("l008.rs"), vec![], "nothing nears the real cap");
    let class = FileClass {
        fn_line_cap: None,
        ..full_class()
    };
    let vs = scan_source("l008.rs", &fixture("l008.rs"), &class);
    assert!(vs.is_empty(), "outside the runtime crate: {vs:?}");
}

#[test]
fn l000_malformed_allows_are_flagged() {
    let no_reason = "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(panic)\n    x.unwrap()\n}\n";
    let vs = scan_source("inline.rs", no_reason, &full_class());
    // The reason-less annotation is malformed AND does not suppress.
    assert!(vs.iter().any(|v| v.rule == "L000"), "{vs:?}");
    assert!(vs.iter().any(|v| v.rule == "L001"), "{vs:?}");

    let unknown = "// lint: allow(everything, reason = \"nope\")\nfn f() {}\n";
    let vs = scan_source("inline.rs", unknown, &full_class());
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].rule, "L000");
}

#[test]
fn allow_scope_ends_with_the_statement() {
    let src = "fn f(a: Option<u32>, b: Option<u32>) -> u32 {\n\
               \x20   // lint: allow(panic, reason = \"first statement only\")\n\
               \x20   let x = a.unwrap();\n\
               \x20   x + b.unwrap()\n\
               }\n";
    let vs = scan_source("inline.rs", src, &full_class());
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!((vs[0].rule, vs[0].line), ("L001", 4));
}

#[test]
fn classify_scopes_rules_by_path() {
    let rt = classify("crates/runtime/src/engine.rs").expect("scanned");
    assert!(rt.panic_scope && rt.data_plane && !rt.swap_allowed);
    assert_eq!(rt.fn_line_cap, Some(MAX_FN_LINES));
    let core = classify("crates/core/src/llfd.rs").expect("scanned");
    assert!(core.panic_scope && !core.data_plane && !core.swap_allowed);
    assert_eq!(core.fn_line_cap, None);
    let trace = classify("crates/trace/src/lib.rs").expect("scanned");
    assert!(trace.panic_scope && !trace.data_plane && !trace.swap_allowed);
    let resync = classify("crates/core/src/routing.rs").expect("scanned");
    assert!(resync.swap_allowed);
    let t = classify("tests/cross_partitioner.rs").expect("scanned");
    assert!(!t.panic_scope && t.swap_allowed);
    let bench = classify("crates/bench/src/json.rs").expect("scanned");
    assert!(!bench.panic_scope && !bench.data_plane);
    assert!(classify("crates/lint/tests/fixtures/l001_violate.rs").is_none());
}

/// The acceptance gate: the workspace this crate ships in lints clean.
/// This is the same scan CI runs as a blocking step.
#[test]
fn live_workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root);
    assert!(
        report.violations.is_empty(),
        "workspace has lint violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "walker found too few files");
    assert!(report.metrics_checked > 500, "L005 checked too few keys");
}
