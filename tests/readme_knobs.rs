//! The README's `EngineConfig` knob table lists exactly the struct's
//! fields. The field list below is an exhaustive destructuring pattern
//! (no `..`), so adding or removing a field fails to compile until the
//! list — and with it, this test's expectation of the README — is updated.

use std::collections::BTreeSet;
use symplegraph::core::{EngineConfig, Policy};

/// Destructures an `EngineConfig` with exactly the given fields and
/// returns their names; the pattern fails to compile if the list is
/// missing a field or names one that does not exist.
macro_rules! config_fields {
    ($($field:ident),* $(,)?) => {{
        let EngineConfig { $($field: _),* } = EngineConfig::new(1, Policy::Gemini);
        vec![$(stringify!($field)),*]
    }};
}

fn config_fields() -> Vec<&'static str> {
    config_fields!(
        machines,
        policy,
        degree_threshold,
        buffer_groups,
        cost,
        partition_alpha,
        threads,
        chunk_size,
        trace_level,
        wire_codec,
        fault_plan,
        retry,
        backend,
        udf_exec,
        exchange_chunk,
        dep_width,
        early_exit,
    )
}

/// First-column entries of the README table headed `| Knob | ...`, with
/// the backticks stripped.
fn readme_knobs(readme: &str) -> Vec<String> {
    let mut lines = readme
        .lines()
        .skip_while(|l| !l.starts_with("| Knob |"))
        .skip(1);
    assert!(
        lines.next().is_some_and(|l| l.starts_with("|---")),
        "README knob table header or separator row not found"
    );
    lines
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cell = l.split('|').nth(1).expect("table row has a first cell");
            cell.trim().trim_matches('`').to_string()
        })
        .collect()
}

#[test]
fn readme_knob_table_matches_engine_config_fields() {
    let fields = config_fields();
    let knobs = readme_knobs(include_str!("../README.md"));
    let unique: BTreeSet<&str> = knobs.iter().map(String::as_str).collect();
    assert_eq!(unique.len(), knobs.len(), "README knob table repeats a row");
    let expected: BTreeSet<&str> = fields.iter().copied().collect();
    let missing: Vec<_> = expected.difference(&unique).collect();
    let extra: Vec<_> = unique.difference(&expected).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "README knob table out of step with EngineConfig: \
         missing rows {missing:?}, rows for no field {extra:?}"
    );
}
