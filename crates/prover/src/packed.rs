//! One-machine-word encodings of element and sequence values, used by the
//! block executor's packed columns ([`crate::bytecode`]) and precomputed per
//! candidate list by the enumeration memo ([`crate::space`]).
//!
//! An **element** is its raw id (`ElemId.0`, `null` included): every element
//! fits.
//!
//! A **sequence** of at most [`SEQ_CAPACITY`] elements is one `u64`: its
//! length in the low 4 bits, then one 4-bit code per element, position `i`
//! at bits `4 + 4i .. 8 + 4i`. Code 0 is `null`, codes `1..=15` are the
//! element ids `1..=15`; every bit above the last element is zero. The
//! encoding is therefore canonical — two packed sequences are equal exactly
//! when their words are — and a sequence that is longer than the capacity
//! or holds any other id (`ElemId(0)`, ids above 15) has no word at all:
//! [`pack_seq`] returns `None` and the value stays boxed.
//!
//! The operations below are the word forms of the evaluator's totalized
//! sequence semantics (out-of-range reads give `null`, out-of-range writes
//! and removals are no-ops, insertion clamps its index). An operation whose
//! result would not fit returns `None`; the caller then runs the boxed
//! `Value` operation instead, so results never depend on the encoding.

use semcommute_logic::{ElemId, PSeq, NULL_ELEM};

/// Longest sequence a word can hold.
pub(crate) const SEQ_CAPACITY: usize = 15;

const LEN_MASK: u64 = 0xF;
const CODE_MASK: u64 = 0xF;

/// The 4-bit code of an element id, if it has one.
fn code(e: u32) -> Option<u64> {
    if e == NULL_ELEM.0 {
        Some(0)
    } else if (1..=15).contains(&e) {
        Some(e as u64)
    } else {
        None
    }
}

/// The element id a code stands for.
fn id(code: u64) -> u32 {
    if code == 0 {
        NULL_ELEM.0
    } else {
        code as u32
    }
}

/// Bit offset of the code at position `i`.
fn shift(i: usize) -> u32 {
    4 + 4 * i as u32
}

/// The packed word of a sequence, or `None` when it does not fit.
pub(crate) fn pack_seq(s: &PSeq) -> Option<u64> {
    if s.len() > SEQ_CAPACITY {
        return None;
    }
    let mut w = s.len() as u64;
    for (i, e) in s.iter().enumerate() {
        w |= code(e.0)? << shift(i);
    }
    Some(w)
}

/// The sequence a packed word stands for.
pub(crate) fn unpack_seq(w: u64) -> PSeq {
    (0..seq_len(w))
        .map(|i| ElemId(id((w >> shift(i)) & CODE_MASK)))
        .collect()
}

/// Length of a packed sequence.
pub(crate) fn seq_len(w: u64) -> usize {
    (w & LEN_MASK) as usize
}

/// The position `i` names in a sequence of length `len`, if in range.
fn index(i: i64, len: usize) -> Option<usize> {
    (i >= 0 && (i as u64) < len as u64).then_some(i as usize)
}

/// `s[i]`, or `null` out of range.
pub(crate) fn seq_at(w: u64, i: i64) -> u32 {
    match index(i, seq_len(w)) {
        Some(i) => id((w >> shift(i)) & CODE_MASK),
        None => NULL_ELEM.0,
    }
}

/// `s` with position `i` set to `v` (unchanged out of range); `None` when
/// `v` has no code.
pub(crate) fn seq_set_at(w: u64, i: i64, v: u32) -> Option<u64> {
    match index(i, seq_len(w)) {
        Some(i) => Some((w & !(CODE_MASK << shift(i))) | code(v)? << shift(i)),
        None => Some(w),
    }
}

/// `s` with `v` inserted at `i` clamped to `0..=len`; `None` when the result
/// would exceed [`SEQ_CAPACITY`] or `v` has no code.
pub(crate) fn seq_insert_at(w: u64, i: i64, v: u32) -> Option<u64> {
    let len = seq_len(w);
    if len == SEQ_CAPACITY {
        return None;
    }
    let c = code(v)?;
    let at = i.clamp(0, len as i64) as usize;
    let codes = w >> 4;
    let low = codes & ((1u64 << (4 * at)) - 1);
    let high = codes >> (4 * at);
    Some(((low | c << (4 * at) | high << (4 * at + 4)) << 4) | (len as u64 + 1))
}

/// `s` with position `i` removed (unchanged out of range).
pub(crate) fn seq_remove_at(w: u64, i: i64) -> u64 {
    let len = seq_len(w);
    match index(i, len) {
        Some(at) => {
            let codes = w >> 4;
            let low = codes & ((1u64 << (4 * at)) - 1);
            let high = codes >> (4 * at + 4);
            ((low | high << (4 * at)) << 4) | (len as u64 - 1)
        }
        None => w,
    }
}

/// Positions of `v` in `s`, ascending. Empty when `v` has no code: no packed
/// sequence holds such an element.
fn positions_of(w: u64, v: u32) -> impl DoubleEndedIterator<Item = usize> {
    let c = code(v);
    (0..seq_len(w)).filter(move |&i| Some((w >> shift(i)) & CODE_MASK) == c)
}

/// First position of `v` in `s`, or -1.
pub(crate) fn seq_index_of(w: u64, v: u32) -> i64 {
    positions_of(w, v).next().map_or(-1, |i| i as i64)
}

/// Last position of `v` in `s`, or -1.
pub(crate) fn seq_last_index_of(w: u64, v: u32) -> i64 {
    positions_of(w, v).next_back().map_or(-1, |i| i as i64)
}

/// Whether `v` occurs in `s`.
pub(crate) fn seq_contains(w: u64, v: u32) -> bool {
    positions_of(w, v).next().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(ids: &[u32]) -> PSeq {
        ids.iter().map(|&i| ElemId(i)).collect()
    }

    #[test]
    fn packing_round_trips_and_is_canonical() {
        let samples = [
            seq(&[]),
            seq(&[1]),
            seq(&[NULL_ELEM.0]),
            seq(&[3, 1, NULL_ELEM.0, 15]),
            seq(&[15; SEQ_CAPACITY]),
        ];
        let words: Vec<u64> = samples.iter().map(|s| pack_seq(s).unwrap()).collect();
        for (s, &w) in samples.iter().zip(&words) {
            assert_eq!(&unpack_seq(w), s);
        }
        for (i, a) in words.iter().enumerate() {
            for (j, b) in words.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }

    #[test]
    fn sequences_that_do_not_fit_have_no_word() {
        assert_eq!(pack_seq(&seq(&[0])), None);
        assert_eq!(pack_seq(&seq(&[16])), None);
        assert_eq!(pack_seq(&seq(&[1; SEQ_CAPACITY + 1])), None);
        let full = pack_seq(&seq(&[1; SEQ_CAPACITY])).unwrap();
        assert_eq!(seq_insert_at(full, 0, 1), None);
        let short = pack_seq(&seq(&[1, 2])).unwrap();
        assert_eq!(seq_insert_at(short, 0, 16), None);
        assert_eq!(seq_set_at(short, 0, 0), None);
        // Out of range, the value is never written, so it need not fit.
        assert_eq!(seq_set_at(short, 5, 0), Some(short));
        assert_eq!(seq_index_of(short, 16), -1);
    }
}
