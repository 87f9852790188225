//! Golden digest of the verifier's observable output.
//!
//! The full catalog is verified at sequence scope 3 on one worker, with the
//! orbit reduction on and off, and Set `contains`/`add` conditions are
//! sabotaged (claimed to commute unconditionally) so the refuted path runs
//! too. Every method verdict becomes one line: its kind, `models_checked`,
//! `orbits_pruned`, and a 64-bit FNV-1a hash of the counter-model or the
//! `Unknown` reason. The lines must equal the committed digest
//! `tests/golden/catalog_verdicts.txt`. The digest was generated by the
//! slot-tree walk and the bytecode alike, which agreed line for line,
//! before the tree walk was retired; `logic::eval` remains the reference
//! the property tests check the bytecode against.
//!
//! A mismatch writes the new digest into the build's temporary directory
//! and names the first line that differs.

use std::fmt::Write as _;
use std::path::Path;

use semcommute_core::catalog::interface_catalog;
use semcommute_core::verify::{verify_catalog, VerifyOptions};
use semcommute_prover::{Portfolio, Scope, Verdict};
use semcommute_spec::InterfaceId;

/// 64-bit FNV-1a.
fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(out: &mut String, label: &str, verdict: &Verdict) {
    let (kind, hash) = match verdict {
        Verdict::Valid { .. } => ("valid", 0),
        Verdict::CounterModel { model, .. } => ("counter-model", fnv64(&model.to_string())),
        Verdict::Unknown { reason, .. } => ("unknown", fnv64(reason)),
    };
    let stats = verdict.stats();
    writeln!(
        out,
        "{label} {kind} {} {} {hash:016x}",
        stats.models_checked, stats.orbits_pruned
    )
    .unwrap();
}

fn catalog_digest(out: &mut String, orbit: bool) {
    writeln!(out, "# catalog seq_len=3 threads=1 orbit={orbit}").unwrap();
    let report = verify_catalog(&VerifyOptions {
        threads: 1,
        seq_len: 3,
        limit: None,
        orbit,
        ..VerifyOptions::default()
    });
    for interface in &report.interfaces {
        for cond in &interface.reports {
            let id = cond.condition.id();
            line(out, &format!("{id} soundness"), &cond.soundness);
            line(out, &format!("{id} completeness"), &cond.completeness);
        }
    }
}

fn sabotaged_digest(out: &mut String, orbit: bool) {
    writeln!(out, "# sabotaged Set contains/add orbit={orbit}").unwrap();
    let portfolio = Portfolio::new(Scope::standard().with_orbit(orbit));
    let sabotaged = interface_catalog(InterfaceId::Set)
        .into_iter()
        .filter(|c| c.first.op == "contains" && c.second.op == "add");
    for (i, mut cond) in sabotaged.enumerate() {
        cond.formula = semcommute_logic::build::tru();
        let (soundness, completeness) = semcommute_core::template::testing_methods(&cond, i);
        for method in [soundness, completeness] {
            for ob in semcommute_core::vcgen::generate_obligations(&method).unwrap() {
                line(out, &ob.name, &portfolio.prove(&ob));
            }
        }
    }
}

fn digest() -> String {
    let mut out = String::new();
    for orbit in [true, false] {
        catalog_digest(&mut out, orbit);
    }
    for orbit in [true, false] {
        sabotaged_digest(&mut out, orbit);
    }
    out
}

/// Compares `actual` with the committed golden file `name`.
fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if expected == actual {
        return;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&fresh, actual).unwrap();
    let at = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "{} differs from the computed digest at line {}: expected {:?}, computed {:?}; \
         the computed digest is in {}",
        path.display(),
        at + 1,
        expected.lines().nth(at),
        actual.lines().nth(at),
        fresh.display()
    );
}

#[test]
fn catalog_verdicts_match_the_golden_digest() {
    assert_golden("catalog_verdicts.txt", &digest());
}
