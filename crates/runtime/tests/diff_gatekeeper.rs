//! Compiled admission against the reference semantics.
//!
//! The gatekeeper evaluates between conditions through compiled register
//! programs. For every catalog (interface, op-pair) this harness feeds it
//! randomized log entries and incoming arguments — well-formed ones, entries
//! with the pre-state or the recorded result missing, entries with truncated
//! argument lists, ill-sorted arguments, and unknown operations — and checks
//! each outcome against [`eval_bool`] on a [`Model`] the test builds itself
//! from the same entry: the same admit/deny verdict, the same [`Conflict`],
//! and an [`AdmissionError::Evaluation`] exactly where the reference cannot
//! evaluate the condition (the executor's retry policy depends on that
//! classification). Error *messages* are compared by class only: the
//! compiled executor wraps them with a region prefix.

use semcommute_core::condition::names;
use semcommute_logic::{eval_bool, free_vars, ElemId, Model, Sort, Value};
use semcommute_runtime::{
    AdmissionError, CommutativityGatekeeper, Conflict, LogEntry, OperationLog,
};
use semcommute_spec::{InterfaceId, InterfaceSpec};

/// Deterministic xorshift64* generator — no external crates, reproducible
/// failures.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random value of the given sort over a small universe, so equalities and
/// memberships genuinely hit both outcomes.
fn random_value(rng: &mut XorShift, sort: Sort) -> Value {
    match sort {
        Sort::Bool => Value::Bool(rng.below(2) == 0),
        Sort::Int => Value::Int(rng.below(9) as i64 - 4),
        Sort::Elem => {
            if rng.chance(10) {
                Value::null()
            } else {
                Value::elem(rng.below(6) as u32 + 1)
            }
        }
        Sort::Set => Value::set_of((0..rng.below(5)).map(|_| ElemId(rng.below(6) as u32 + 1))),
        Sort::Map => Value::map_of((0..rng.below(5)).map(|_| {
            (
                ElemId(rng.below(6) as u32 + 1),
                ElemId(rng.below(6) as u32 + 1),
            )
        })),
        Sort::Seq => Value::seq_of((0..rng.below(5)).map(|_| ElemId(rng.below(6) as u32 + 1))),
    }
}

/// A random value of a random (often wrong) sort.
fn random_any_value(rng: &mut XorShift) -> Value {
    let sort = [
        Sort::Bool,
        Sort::Int,
        Sort::Elem,
        Sort::Set,
        Sort::Map,
        Sort::Seq,
    ][rng.below(6) as usize];
    random_value(rng, sort)
}

/// Random arguments for `op`: usually well-sorted and complete, sometimes
/// truncated, sometimes with an ill-sorted entry — the malformed cases must
/// classify as the reference does too.
fn random_args(rng: &mut XorShift, iface: &InterfaceSpec, op: &str) -> Vec<Value> {
    let Some(spec) = iface.op(op) else {
        return Vec::new();
    };
    let mut args: Vec<Value> = spec
        .params
        .iter()
        .map(|(_, sort)| {
            if rng.chance(5) {
                random_any_value(rng)
            } else {
                random_value(rng, *sort)
            }
        })
        .collect();
    if rng.chance(5) && !args.is_empty() {
        args.truncate(args.len() - 1);
    }
    args
}

/// A randomized log entry for `op` as executed by `txn`.
fn random_entry(rng: &mut XorShift, iface: &InterfaceSpec, txn: u64, op: &str) -> LogEntry {
    let result = iface.op(op).and_then(|spec| spec.result_sort).map(|sort| {
        if rng.chance(5) {
            random_any_value(rng)
        } else {
            random_value(rng, sort)
        }
    });
    let pre_state = (!rng.chance(25)).then(|| random_value(rng, iface.state_sort));
    LogEntry {
        txn,
        op: op.to_string(),
        args: random_args(rng, iface, op),
        result: if rng.chance(10) { None } else { result },
        pre_state,
    }
}

/// An admission outcome for comparison: verdicts and conflicts must match
/// exactly; evaluation errors must match as a *class*.
#[derive(Debug, PartialEq)]
enum Outcome {
    Admitted,
    Conflict(Conflict),
    Evaluation,
}

fn outcome(result: Result<(), AdmissionError>) -> Outcome {
    match result {
        Ok(()) => Outcome::Admitted,
        Err(AdmissionError::Conflict(c)) => Outcome::Conflict(c),
        Err(AdmissionError::Evaluation(_)) => Outcome::Evaluation,
    }
}

/// The canonical argument names (`v1`, `k2`, …) of `op` as operation
/// `which` of a pair.
fn params(iface: &InterfaceSpec, op: &str, which: usize) -> Vec<String> {
    iface.op(op).map_or_else(Vec::new, |spec| {
        spec.params
            .iter()
            .map(|(formal, _)| names::arg(formal, which))
            .collect()
    })
}

/// The reference outcome of checking `incoming_op(incoming)` against one
/// logged entry: the pair's condition evaluated by [`eval_bool`] on a model
/// binding `s1` to the entry's pre-state (when the formula mentions it),
/// `r1` to its recorded result, and the canonical argument names to the
/// arguments present.
fn reference(
    g: &CommutativityGatekeeper,
    iface: &InterfaceSpec,
    logged: &LogEntry,
    incoming_op: &str,
    incoming: &[Value],
) -> Outcome {
    let Some(condition) = g.condition(&logged.op, incoming_op) else {
        return Outcome::Evaluation;
    };
    let mut model = Model::new();
    if free_vars(&condition.formula).contains_key(names::INITIAL) {
        match &logged.pre_state {
            Some(state) => model.insert(names::INITIAL, state.clone()),
            None => return Outcome::Evaluation,
        };
    }
    if let Some(result) = &logged.result {
        model.insert(names::RESULT1, result.clone());
    }
    for (name, value) in params(iface, &logged.op, 1).into_iter().zip(&logged.args) {
        model.insert(name, value.clone());
    }
    for (name, value) in params(iface, incoming_op, 2).into_iter().zip(incoming) {
        model.insert(name, value.clone());
    }
    match eval_bool(&condition.formula, &model) {
        Ok(true) => Outcome::Admitted,
        Ok(false) => Outcome::Conflict(Conflict {
            with_txn: logged.txn,
            logged_op: logged.op.clone(),
            incoming_op: incoming_op.to_string(),
        }),
        Err(_) => Outcome::Evaluation,
    }
}

/// The reference outcome of admitting `incoming_op(incoming)` for `txn`:
/// the first entry of another transaction that does not admit it decides.
fn reference_admit(
    g: &CommutativityGatekeeper,
    iface: &InterfaceSpec,
    log: &OperationLog,
    txn: u64,
    incoming_op: &str,
    incoming: &[Value],
) -> Outcome {
    log.entries_of_others(txn)
        .map(|logged| reference(g, iface, logged, incoming_op, incoming))
        .find(|o| *o != Outcome::Admitted)
        .unwrap_or(Outcome::Admitted)
}

/// For every catalog pair of every interface: randomized single entries
/// classify exactly as the reference does.
#[test]
fn compiled_admission_agrees_with_the_reference_on_every_catalog_pair() {
    for interface in InterfaceId::ALL {
        let iface = &semcommute_spec::interface_by_id(interface);
        let g = CommutativityGatekeeper::new(interface);
        for (first, second) in g.pairs() {
            let mut rng =
                XorShift::new(0xfeed_face ^ (interface as u64) << 48 ^ seed_of(&first, &second));
            for case in 0..200 {
                let logged = random_entry(&mut rng, iface, 1, &first);
                let incoming = random_args(&mut rng, iface, &second);
                assert_eq!(
                    outcome(g.check_entry(&logged, &second, &incoming)),
                    reference(&g, iface, &logged, &second, &incoming),
                    "{interface}: {first}/{second} case {case} diverged on entry {logged:?} \
                     with incoming args {incoming:?}"
                );
            }
        }
    }
}

fn seed_of(first: &str, second: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in first.bytes().chain([b'/']).chain(second.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Multi-entry logs: `admit` scans entries in order and stops at the first
/// non-admission, so it must agree with the reference scan over mixed-op
/// logs too.
#[test]
fn admit_over_randomized_multi_entry_logs_agrees() {
    for interface in InterfaceId::ALL {
        let iface = &semcommute_spec::interface_by_id(interface);
        let g = CommutativityGatekeeper::new(interface);
        let firsts: Vec<String> = {
            let mut ops: Vec<String> = g.pairs().into_iter().map(|(f, _)| f).collect();
            ops.dedup();
            ops
        };
        let seconds: Vec<String> = {
            let mut ops: Vec<String> = g.pairs().into_iter().map(|(_, s)| s).collect();
            ops.sort();
            ops.dedup();
            ops
        };
        let mut rng = XorShift::new(0xdead_beef ^ (interface as u64) << 32);
        for case in 0..300 {
            let mut log = OperationLog::new();
            for _ in 0..rng.below(6) {
                let txn = rng.below(3) + 1;
                let op = &firsts[rng.below(firsts.len() as u64) as usize];
                log.record(random_entry(&mut rng, iface, txn, op));
            }
            let incoming_op = &seconds[rng.below(seconds.len() as u64) as usize];
            let incoming = random_args(&mut rng, iface, incoming_op);
            let txn = rng.below(4) + 1;
            assert_eq!(
                outcome(g.admit(&log, txn, incoming_op, &incoming)),
                reference_admit(&g, iface, &log, txn, incoming_op, &incoming),
                "{interface} case {case}: admit of `{incoming_op}` by txn {txn} diverged \
                 over log {:?}",
                log.entries()
            );
        }
    }
}

/// Operations the catalog does not know (either side of the pair) are
/// evaluation errors, never conflicts.
#[test]
fn unknown_pairs_classify_as_evaluation_errors() {
    let g = CommutativityGatekeeper::new(InterfaceId::Set);
    let mut log = OperationLog::new();
    log.record(LogEntry {
        txn: 1,
        op: "add".into(),
        args: vec![Value::elem(5)],
        result: Some(Value::Bool(true)),
        pre_state: None,
    });
    // Unknown incoming operation.
    assert!(matches!(
        g.admit(&log, 2, "frobnicate", &[Value::elem(5)]),
        Err(AdmissionError::Evaluation(_))
    ));
    // Unknown logged operation.
    let mut log = OperationLog::new();
    log.record(LogEntry {
        txn: 1,
        op: "frobnicate".into(),
        args: vec![],
        result: None,
        pre_state: None,
    });
    assert!(matches!(
        g.admit(&log, 2, "add", &[Value::elem(5)]),
        Err(AdmissionError::Evaluation(_))
    ));
}

/// The missing-pre-state path is detected before evaluation starts and
/// names the condition, the logged operation and `s1`.
#[test]
fn missing_pre_state_message_names_the_condition() {
    let g = CommutativityGatekeeper::new(InterfaceId::Set);
    let entry = LogEntry {
        txn: 1,
        op: "size".into(),
        args: vec![],
        result: Some(Value::Int(0)),
        pre_state: None, // size/add reads s1 — this entry is unusable.
    };
    let msg = match g.check_entry(&entry, "add", &[Value::elem(1)]) {
        Err(AdmissionError::Evaluation(m)) => m,
        other => panic!("expected an evaluation error, got {other:?}"),
    };
    let id = g.condition("size", "add").unwrap().id();
    assert_eq!(
        msg,
        format!("{id}: entry for `size` carries no pre-state but the condition reads `s1`")
    );
}
