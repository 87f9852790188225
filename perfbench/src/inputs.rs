//! Seeded input generation for the transaction workloads.
//!
//! Every input is a pure function of `(seed, stream, index)`: the prefill of
//! a structure, and transaction `index` of client `client`. A client can
//! therefore regenerate any of its transactions after the run, which is what
//! lets the correctness replay re-derive the operations of every committed
//! transaction from its `(client, index)` alone, and the same seed always
//! yields the same inputs however many transactions a run gets through.

/// Keys of the `txn-short` set live in `1..=SHORT_KEYS`.
pub const SHORT_KEYS: u32 = 1 << 17;

/// Each key of the `txn-short` universe is prefilled with probability
/// `SHORT_FILL_NUM / SHORT_FILL_DEN`: 5/8, the stationary fill of the
/// 50% add / 30% remove mix, so the set neither grows nor shrinks during a
/// run. About 82k keys, so the structure and its persistent mirror do not
/// fit in L2.
const SHORT_FILL_NUM: u64 = 5;
const SHORT_FILL_DEN: u64 = 8;

/// Keys of the `txn-think` map live in `1..=THINK_KEYS`, all prefilled.
pub const THINK_KEYS: u32 = 1 << 16;

/// The hot keys of `txn-think`: `1..=THINK_HOT`.
pub const THINK_HOT: u32 = 8;

/// One transaction in `THINK_HOT_ONE_IN` draws its key from the hot set.
const THINK_HOT_ONE_IN: u64 = 4;

/// Every `THINK_SIZE_EVERY`-th transaction of a client also reads `size()`.
const THINK_SIZE_EVERY: u64 = 8;

/// Stream identifiers, so prefill and per-client streams never share draws.
const PREFILL_STREAM: u64 = u64::MAX;

/// A counter-based generator: splitmix64 over `(seed, stream, index)`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64, index: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.0 ^= rng
            .next()
            .wrapping_add(index.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A set operation of `txn-short`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    Add,
    Contains,
    Remove,
}

impl SetOp {
    pub fn name(self) -> &'static str {
        match self {
            SetOp::Add => "add",
            SetOp::Contains => "contains",
            SetOp::Remove => "remove",
        }
    }
}

/// A `txn-short` transaction: two set operations on uniform keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortTxn {
    pub ops: [(SetOp, u32); 2],
}

/// A `txn-think` transaction: `get(key)`, think, `put(key, v')`, and on
/// every eighth transaction of a client a trailing `size()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThinkTxn {
    pub key: u32,
    /// Seeds the think computation whose result picks the written value.
    pub salt: u64,
    pub reads_size: bool,
}

/// The keys `txn-short` prefills, ascending.
pub fn short_prefill(seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed, PREFILL_STREAM, 0);
    (1..=SHORT_KEYS)
        .filter(|_| rng.below(SHORT_FILL_DEN) < SHORT_FILL_NUM)
        .collect()
}

/// Transaction `index` of `client` in `txn-short`: each operation is 50%
/// `add`, 20% `contains`, 30% `remove`, on a uniform key.
pub fn short_txn(seed: u64, client: u64, index: u64) -> ShortTxn {
    let mut rng = Rng::new(seed, client, index);
    let mut op = || {
        let op = match rng.below(10) {
            0..=4 => SetOp::Add,
            5..=6 => SetOp::Contains,
            _ => SetOp::Remove,
        };
        (op, 1 + rng.below(u64::from(SHORT_KEYS)) as u32)
    };
    ShortTxn { ops: [op(), op()] }
}

/// The `(key, value)` pairs `txn-think` prefills: every key, with a seeded
/// non-null value.
pub fn think_prefill(seed: u64) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed, PREFILL_STREAM, 1);
    (1..=THINK_KEYS)
        .map(|k| (k, value_from(rng.next())))
        .collect()
}

/// Transaction `index` of `client` in `txn-think`: a quarter of the
/// transactions update one of the hot keys, the rest a uniform cold key.
pub fn think_txn(seed: u64, client: u64, index: u64) -> ThinkTxn {
    let mut rng = Rng::new(seed, client, index);
    let key = if rng.below(THINK_HOT_ONE_IN) == 0 {
        1 + rng.below(u64::from(THINK_HOT)) as u32
    } else {
        THINK_HOT + 1 + rng.below(u64::from(THINK_KEYS - THINK_HOT)) as u32
    };
    ThinkTxn {
        key,
        salt: rng.next(),
        reads_size: index % THINK_SIZE_EVERY == THINK_SIZE_EVERY - 1,
    }
}

/// A non-null element id (`1..=2^20`) derived from `x`.
pub fn value_from(x: u64) -> u32 {
    1 + (x % (1 << 20)) as u32
}

/// The client's "real work" between `get` and `put`: `iters` rounds of a
/// dependent multiply-xorshift chain. A fixed count, not a timer, so the
/// work per transaction is the same on every run and every engine.
pub fn think(iters: u32, salt: u64) -> u64 {
    let mut x = salt | 1;
    for _ in 0..iters {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        x ^= x >> 29;
    }
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_inputs(seed: u64) -> (Vec<u32>, Vec<ShortTxn>) {
        let txns = (0..2)
            .flat_map(|c| (0..500).map(move |i| short_txn(seed, c, i)))
            .collect();
        (short_prefill(seed), txns)
    }

    fn think_inputs(seed: u64) -> (Vec<(u32, u32)>, Vec<ThinkTxn>) {
        let txns = (0..2)
            .flat_map(|c| (0..500).map(move |i| think_txn(seed, c, i)))
            .collect();
        (think_prefill(seed), txns)
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(short_inputs(7), short_inputs(7));
        assert_eq!(think_inputs(7), think_inputs(7));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (prefill_a, txns_a) = short_inputs(7);
        let (prefill_b, txns_b) = short_inputs(8);
        assert_ne!(prefill_a, prefill_b);
        assert_ne!(txns_a, txns_b);
        let (prefill_a, txns_a) = think_inputs(7);
        let (prefill_b, txns_b) = think_inputs(8);
        assert_ne!(prefill_a, prefill_b);
        assert_ne!(txns_a, txns_b);
    }

    #[test]
    fn clients_draw_different_streams() {
        assert_ne!(short_txn(7, 0, 3), short_txn(7, 1, 3));
        assert_ne!(think_txn(7, 0, 3), think_txn(7, 1, 3));
    }

    #[test]
    fn mixes_match_their_documented_shape() {
        let prefill = short_prefill(11);
        let fill = prefill.len() as f64 / f64::from(SHORT_KEYS);
        assert!((fill - 0.625).abs() < 0.01, "fill {fill}");
        let txns: Vec<ThinkTxn> = (0..8000).map(|i| think_txn(11, 0, i)).collect();
        let hot = txns.iter().filter(|t| t.key <= THINK_HOT).count();
        assert!((1600..2400).contains(&hot), "hot draws {hot}");
        assert_eq!(txns.iter().filter(|t| t.reads_size).count(), 1000);
        assert!(txns.iter().all(|t| (1..=THINK_KEYS).contains(&t.key)));
    }
}
