//! Regression test for a composition hole in pairwise admission.
//!
//! A between condition certified against a logged operation's *captured*
//! pre-state certifies swapping the pair adjacent at that state. When
//! several later operations are each admitted against the same long-lived
//! logged entry, every certificate is individually valid at the capture but
//! the certificates need not compose: here, a logged `get(3)` over a run of
//! duplicate elements admits three single left-shifting `removeAt`s one by
//! one, yet their composition shifts by three and moves a different element
//! into the observed slot — serial replay in ticket order would then read a
//! value the live execution never saw. (This is the deterministic,
//! single-threaded reconstruction of a divergence the differential stress
//! harness hits only rarely, under heavy interleaving.)
//!
//! The fix: the validated admission pass re-anchors every state-reading
//! condition at the live state under the structure lock (see
//! `Shared::check_against` and the gatekeeper's `check_*_at`
//! methods). This test pins the exact trace: two removals are admitted, the
//! third must conflict with the logged observer.

use semcommute_logic::{ElemId, Value};
use semcommute_runtime::{AnyStructure, SpeculativeRuntime, TxnError};
use semcommute_spec::AbstractState;

#[test]
fn stale_observer_certificates_do_not_compose() {
    let rt = SpeculativeRuntime::new(AnyStructure::by_name("ArrayList").unwrap());

    // Seed [1, 1, 1, 1, 1, 1, 10].
    let mut seed = rt.begin();
    seed.execute("addAt", &[Value::Int(0), Value::elem(10)])
        .unwrap();
    for _ in 0..6 {
        seed.execute("addAt", &[Value::Int(0), Value::elem(1)])
            .unwrap();
    }
    seed.commit();

    // A long-lived observer logs `get(3) = 1` and stays uncommitted.
    let mut observer = rt.begin();
    let read = observer.execute("get", &[Value::Int(3)]).unwrap();
    assert_eq!(read, Some(Value::elem(1)));

    // Two removals below the observed index are admissible — each is a
    // single left shift, and after each the observed slot still reads a
    // 1 (the re-anchored condition holds at the live state too).
    for index in [3, 1] {
        let mut txn = rt.begin();
        txn.execute("removeAt", &[Value::Int(index)]).unwrap();
        txn.commit();
    }

    // The third removal still carries a valid certificate against the
    // observer's captured pre-state (the duplicate run), but at the live
    // state [1, 1, 1, 1, 10] one more shift would move the 10 into the
    // observed slot. Admitting it would make the observer's recorded
    // read unserializable; it must conflict.
    let mut third = rt.begin();
    match third.execute("removeAt", &[Value::Int(0)]) {
        Err(TxnError::Conflict(conflict)) => {
            assert_eq!(conflict.logged_op, "get");
            assert_eq!(conflict.incoming_op, "removeAt");
        }
        other => panic!("stale certificate was admitted: {other:?}"),
    }
    third.abort();

    // The observer commits last and its read replays identically in
    // ticket order: seed, removeAt(3), removeAt(1), get(3) = 1.
    observer.commit();
    assert_eq!(
        rt.snapshot(),
        AbstractState::List([1, 1, 1, 1, 10].iter().map(|&i| ElemId(i)).collect())
    );
}
