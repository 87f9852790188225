//! Golden digest of admission decisions.
//!
//! Seeded single-thread schedules on all four interfaces: one thread holds
//! two or three open transactions of one or two operations each and drives
//! them step by step, committing or aborting at random points. Every
//! attempted operation is recorded as admitted, conflicting, an evaluation
//! error or a dispatch error, and every commit with its ticket, so a line
//! fixes both the admission verdict sequence and the commit-ticket order.
//! The lines must equal the committed digest
//! `tests/golden/admission_schedules.txt`. The digest was generated by a
//! `Model`-building `eval_bool` interpreter and by the compiled admission
//! programs alike, which agreed line for line, before the interpreter was
//! retired.
//!
//! A mismatch writes the new digest into the build's temporary directory
//! and names the first line that differs.

use std::fmt::Write as _;
use std::path::Path;

use semcommute_logic::Value;
use semcommute_runtime::{
    AdmitBackend, AnyStructure, BackoffOptions, FallbackOptions, RuntimeOptions,
    SpeculativeRuntime, Transaction, TxnError,
};
use semcommute_spec::InterfaceId;

/// Schedules per structure.
const SCHEDULES: u64 = 128;
/// Steps per schedule; each step advances one transaction by one action.
const STEPS: usize = 24;

/// Deterministic xorshift64* generator — no external crates, reproducible
/// schedules.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random operation over a small key domain, so transactions collide.
fn random_op(rng: &mut XorShift, interface: InterfaceId) -> (&'static str, Vec<Value>) {
    let key = |rng: &mut XorShift| Value::elem(rng.below(4) as u32 + 1);
    match interface {
        InterfaceId::Accumulator => match rng.below(3) {
            0 => ("read", vec![]),
            _ => ("increase", vec![Value::Int(rng.below(5) as i64 - 2)]),
        },
        InterfaceId::Set => match rng.below(7) {
            0..=1 => ("add", vec![key(rng)]),
            2..=3 => ("remove", vec![key(rng)]),
            4..=5 => ("contains", vec![key(rng)]),
            _ => ("size", vec![]),
        },
        InterfaceId::Map => match rng.below(7) {
            0..=1 => ("put", vec![key(rng), key(rng)]),
            2..=3 => ("remove", vec![key(rng)]),
            4..=5 => ("get", vec![key(rng)]),
            _ => ("size", vec![]),
        },
        InterfaceId::List => {
            let index = |rng: &mut XorShift| Value::Int(rng.below(4) as i64);
            match rng.below(10) {
                0..=2 => ("addAt", vec![index(rng), key(rng)]),
                3..=4 => ("removeAt", vec![index(rng)]),
                5 => ("set", vec![index(rng), key(rng)]),
                6 => ("get", vec![index(rng)]),
                7 => ("indexOf", vec![key(rng)]),
                _ => ("size", vec![]),
            }
        }
    }
}

/// One open transaction of the schedule: its label and the operations it
/// has yet to execute.
struct Open {
    label: u32,
    txn: Transaction,
    script: Vec<(&'static str, Vec<Value>)>,
}

/// Runs one seeded schedule and returns its digest line.
fn schedule(structure: &str, seed: u64) -> String {
    let rt = SpeculativeRuntime::with_options(
        AnyStructure::by_name(structure).unwrap(),
        RuntimeOptions {
            backend: AdmitBackend::Bytecode,
            fallback: FallbackOptions::off(),
            backoff: BackoffOptions::off(),
            faults: None,
        },
    );
    let interface = AnyStructure::by_name(structure).unwrap().interface();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0x1000_0000_01b3));
    let mut out = format!("{structure} {seed:3}");

    // A committed prefix, so state-reading conditions see a non-empty state.
    let mut prefix = rt.begin();
    for _ in 0..rng.below(5) {
        let (op, args) = random_op(&mut rng, interface);
        let _ = prefix.execute(op, &args);
    }
    prefix.commit();

    let width = 2 + rng.below(2) as usize;
    let mut open: Vec<Option<Open>> = (0..width).map(|_| None).collect();
    let mut labels = 0..;
    for _ in 0..STEPS {
        let slot = &mut open[rng.below(width as u64) as usize];
        let Some(current) = slot.as_mut() else {
            let script = (0..1 + rng.below(2))
                .map(|_| random_op(&mut rng, interface))
                .collect();
            *slot = Some(Open {
                label: labels.next().unwrap(),
                txn: rt.begin(),
                script,
            });
            continue;
        };
        let label = current.label;
        if current.script.is_empty() || rng.below(10) == 0 {
            // A commit or abort point.
            let done = slot.take().unwrap();
            if done.script.is_empty() && rng.below(4) != 0 {
                let ticket = done.txn.commit();
                write!(out, " {label}C{ticket}").unwrap();
            } else {
                done.txn.abort();
                write!(out, " {label}X").unwrap();
            }
            continue;
        }
        let (op, args) = current.script.remove(0);
        let code = match current.txn.execute(op, &args) {
            Ok(_) => 'a',
            Err(TxnError::Conflict(_)) => 'c',
            Err(TxnError::Condition(_)) => 'e',
            Err(TxnError::Dispatch(_)) => 'd',
            Err(other) => panic!("{structure} {seed}: unexpected {other}"),
        };
        write!(out, " {label}{code}").unwrap();
        if code != 'a' {
            slot.take().unwrap().txn.abort();
        }
    }
    out
}

fn digest() -> String {
    let mut out = String::new();
    for structure in ["Accumulator", "HashSet", "HashTable", "ArrayList"] {
        for seed in 0..SCHEDULES {
            out.push_str(&schedule(structure, seed));
            out.push('\n');
        }
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
fn admission_schedules_match_the_golden_digest() {
    assert_golden("admission_schedules.txt", &digest());
}
