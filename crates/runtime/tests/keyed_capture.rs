//! Keyed pre-state capture: a log entry whose operation's between
//! conditions read the initial state `s1` only through point queries at the
//! operation's own arguments records the pre-state restricted to those keys
//! instead of the whole state.
//!
//! Two things are pinned here, through what
//! [`CommutativityGatekeeper::capture_pre_state`] returns:
//!
//! * the classification itself — which operations capture a keyed slice of
//!   a multi-entry state, which the whole state, which nothing; and
//! * equivalence across the whole catalog — for every between pair whose
//!   first operation gets a keyed capture, on random full pre-states,
//!   arguments and recorded results, the admission outcome is the same with
//!   `s1` bound to the whole state and to the restriction.

use semcommute_logic::{ElemId, Sort, Value};
use semcommute_runtime::{CommutativityGatekeeper, LogEntry};
use semcommute_spec::{InterfaceId, InterfaceSpec};

/// Deterministic xorshift64* generator — no external crates, reproducible
/// failures.
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

/// A random well-sorted value over a small universe, so point queries hit
/// both present and absent keys.
fn random_value(rng: &mut XorShift, sort: Sort) -> Value {
    let elem = |rng: &mut XorShift| ElemId(rng.below(6) as u32 + 1);
    match sort {
        Sort::Bool => Value::Bool(rng.below(2) == 0),
        Sort::Int => Value::Int(rng.below(9) as i64 - 4),
        Sort::Elem => {
            if rng.below(8) == 0 {
                Value::null()
            } else {
                Value::Elem(elem(rng))
            }
        }
        Sort::Set => Value::set_of((0..rng.below(6)).map(|_| elem(rng))),
        Sort::Map => Value::map_of((0..rng.below(6)).map(|_| (elem(rng), elem(rng)))),
        Sort::Seq => Value::seq_of((0..rng.below(6)).map(|_| elem(rng))),
    }
}

fn random_args(rng: &mut XorShift, iface: &InterfaceSpec, op: &str) -> Vec<Value> {
    iface.op(op).map_or_else(Vec::new, |spec| {
        spec.params
            .iter()
            .map(|(_, sort)| random_value(rng, *sort))
            .collect()
    })
}

/// A state of `sort` holding every element of the random universe (for
/// maps, each key bound to a value that is itself a key), so any keyed
/// capture is a strict slice of it.
fn saturated(sort: Sort) -> Value {
    let elems = || (1..=6).map(ElemId);
    match sort {
        Sort::Set => Value::set_of(elems()),
        Sort::Map => Value::map_of(elems().map(|e| (e, ElemId(e.0 % 6 + 1)))),
        Sort::Seq => Value::seq_of(elems()),
        other => random_value(&mut XorShift(1), other),
    }
}

/// Does `op` capture a keyed slice rather than nothing or the whole state?
/// Decided from the capture of a saturated state, on which a keyed slice is
/// strictly smaller.
fn is_keyed(g: &CommutativityGatekeeper, iface: &InterfaceSpec, op: &str) -> bool {
    let state = saturated(iface.state_sort);
    let args = random_args(&mut XorShift(7), iface, op);
    let idx = g.op_index(op).unwrap();
    matches!(g.capture_pre_state(idx, &args, &state), Some(slice) if slice != state)
}

#[test]
fn capture_classification_is_pinned() {
    let set_iface = semcommute_spec::interface_by_id(InterfaceId::Set);
    let set = CommutativityGatekeeper::new(InterfaceId::Set);
    let all = saturated(Sort::Set);
    let capture =
        |op: &str, args: &[Value]| set.capture_pre_state(set.op_index(op).unwrap(), args, &all);
    // `remove` reads `v1 : s1` — key `v1`; `add`/`contains` test `r1`
    // instead; `size` queries `s1` at the incoming operation's argument.
    let two = [Value::elem(2)];
    assert_eq!(capture("remove", &two), Some(Value::set_of([ElemId(2)])));
    assert_eq!(
        capture("remove", &[Value::elem(9)]),
        Some(Value::set_of([]))
    );
    assert_eq!(capture("add", &two), None);
    assert_eq!(capture("contains", &two), None);
    assert_eq!(capture("size", &[]), Some(all.clone()));
    assert!(is_keyed(&set, &set_iface, "remove"));

    let map = CommutativityGatekeeper::new(InterfaceId::Map);
    let all = saturated(Sort::Map);
    let capture =
        |op: &str, args: &[Value]| map.capture_pre_state(map.op_index(op).unwrap(), args, &all);
    // `put` reads `s1.get(k1)` / `s1.containsKey(k1)`, `remove` reads
    // `s1.containsKey(k1)`: key `k1`, never the value — `put(2, 3)`
    // keeps key 2 only, although 3 is a key of the state too.
    let key_two = Value::map_of([(ElemId(2), ElemId(3))]);
    let put = [Value::elem(2), Value::elem(3)];
    assert_eq!(capture("put", &put), Some(key_two.clone()));
    assert_eq!(capture("remove", &[Value::elem(2)]), Some(key_two));
    assert_eq!(capture("get", &[Value::elem(2)]), None);
    assert_eq!(capture("containsKey", &[Value::elem(2)]), None);
    assert_eq!(capture("size", &[]), Some(all.clone()));

    // Sequence positions cannot be restricted to keys: every ArrayList
    // operation that needs the pre-state at all needs all of it.
    let list_iface = semcommute_spec::interface_by_id(InterfaceId::List);
    let list = CommutativityGatekeeper::new(InterfaceId::List);
    let all = saturated(Sort::Seq);
    let mut rng = XorShift(0x1157);
    for spec in &list_iface.ops {
        let args = random_args(&mut rng, &list_iface, &spec.name);
        let idx = list.op_index(&spec.name).unwrap();
        let expected = list.requires_pre_state(&spec.name).then(|| all.clone());
        assert_eq!(
            list.capture_pre_state(idx, &args, &all),
            expected,
            "List/{}",
            spec.name
        );
    }

    // Ops no condition reads `s1` for capture nothing, on every
    // interface; and the classification agrees with `requires_pre_state`.
    for interface in InterfaceId::ALL {
        let iface = semcommute_spec::interface_by_id(interface);
        let g = CommutativityGatekeeper::new(interface);
        let state = saturated(iface.state_sort);
        for spec in &iface.ops {
            let args = random_args(&mut rng, &iface, &spec.name);
            let idx = g.op_index(&spec.name).unwrap();
            assert_eq!(
                g.capture_pre_state(idx, &args, &state).is_some(),
                g.requires_pre_state(&spec.name),
                "{interface}/{}",
                spec.name
            );
        }
        assert!(!g.requires_pre_state("frobnicate"));
    }
}

#[test]
fn keyed_capture_is_the_state_restricted_to_the_keys() {
    let g = CommutativityGatekeeper::new(InterfaceId::Map);
    let put = g.op_index("put").unwrap();
    let state = Value::map_of([(ElemId(1), ElemId(10)), (ElemId(2), ElemId(20))]);
    let capture = |key: u32| {
        g.capture_pre_state(put, &[Value::elem(key), Value::elem(99)], &state)
            .unwrap()
    };
    assert_eq!(capture(2), Value::map_of([(ElemId(2), ElemId(20))]));
    assert_eq!(capture(3), Value::map_of([]));
    let size = g.op_index("size").unwrap();
    assert_eq!(g.capture_pre_state(size, &[], &state), Some(state.clone()));
    let get = g.op_index("get").unwrap();
    assert_eq!(g.capture_pre_state(get, &[Value::elem(1)], &state), None);
}

#[test]
fn keyed_capture_preserves_every_verdict_across_the_catalog() {
    const DRAWS: usize = 300;
    let mut rng = XorShift(0x5eed_cafe_f00d_0001);
    let mut exercised = 0usize;
    for interface in InterfaceId::ALL {
        let iface = semcommute_spec::interface_by_id(interface);
        let g = CommutativityGatekeeper::new(interface);
        for (first, second) in g.pairs() {
            if !is_keyed(&g, &iface, &first) {
                continue;
            }
            let first_idx = g.op_index(&first).unwrap();
            let result_sort = iface.op(&first).and_then(|spec| spec.result_sort);
            for _ in 0..DRAWS {
                let full = random_value(&mut rng, iface.state_sort);
                let args = random_args(&mut rng, &iface, &first);
                let result = result_sort.map(|sort| random_value(&mut rng, sort));
                let restricted = g.capture_pre_state(first_idx, &args, &full).unwrap();
                let slice_len = match &restricted {
                    Value::Set(set) => set.len(),
                    Value::Map(map) => map.len(),
                    other => panic!("{interface}/{first}: keyed capture {other:?}"),
                };
                // Every keyed operation in the catalog has one key.
                assert!(
                    slice_len <= 1,
                    "{interface}/{first}: {restricted:?} is not a one-key slice"
                );
                let entry = |pre_state: Value| LogEntry {
                    txn: 1,
                    op: first.clone(),
                    args: args.clone(),
                    result: result.clone(),
                    pre_state: Some(pre_state),
                };
                let incoming = random_args(&mut rng, &iface, &second);
                let on_full = g.check_entry(&entry(full.clone()), &second, &incoming);
                let on_slice = g.check_entry(&entry(restricted.clone()), &second, &incoming);
                assert_eq!(
                    on_full, on_slice,
                    "{interface}/{first}/{second}: s1 = {full:?} vs \
                     {restricted:?}, args {args:?}, incoming {incoming:?}"
                );
                exercised += 1;
            }
        }
    }
    // Set remove/* and Map put/*, remove/* — four and ten pairs.
    assert_eq!(exercised, (4 + 10) * DRAWS);
}
