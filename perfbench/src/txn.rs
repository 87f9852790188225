//! The `txn-short` and `txn-think` workloads and the runtime's per-layer
//! measurements.
//!
//! Both workloads are closed loops: each client thread starts its next
//! transaction only when the previous one has committed (retries and
//! backoff included) or exhausted its retries. Every committed transaction
//! is written to a per-client spill file (its commit ticket, its inputs'
//! `(client, index)` and its results) so that after the run the whole
//! history can be replayed in ticket order through a fresh structure
//! without the record growing the process's memory during the run.

use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::iter::Peekable;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use semcommute::logic::Value;
use semcommute::runtime::{
    AdmissionError, AdmitBackend, AnyStructure, BackoffOptions, CoarseLockRuntime,
    CommutativityGatekeeper, FallbackOptions, LogEntry, RuntimeOptions, RuntimeStats,
    SpeculativeRuntime, TrackedStructure, TxnError,
};
use semcommute::spec::{AbstractState, InterfaceId};

use crate::inputs::{
    short_prefill, short_txn, think, think_prefill, think_txn, value_from, ShortTxn, ThinkTxn,
    SHORT_KEYS, THINK_KEYS,
};
use crate::report::{print_table, Metrics, Outcome};
use crate::stats::{median, peak_rss_mb, quantile, sorted_ns};
use crate::trace::{out_dir, write_spans, SpanLog};
use crate::Config;

/// Think iterations per `txn-think` transaction: about 10 µs on the 2-core
/// host the benchmark was sized on, where it puts the speculative and the
/// coarse-lock engine near parity. A fixed count: the measured
/// ns-per-iteration is reported, never used to resize the work.
pub const THINK_ITERS: u32 = 4_600;

/// Client transactions that start in this first stretch of a leg warm the
/// caches; they are replayed for correctness but not measured.
const WARMUP: Duration = Duration::from_millis(300);
/// The measured window is cut into this many equal slices by transaction
/// start; throughput is the median of the slices' throughputs, so a burst of
/// outside load in one slice moves it little. Latency percentiles are taken
/// over the whole window: on `txn-short` the two clients' lock handoffs
/// switch between regimes that last seconds, and a median over slices
/// would report whichever regime held most slices instead of their mix.
const SLICES: usize = 10;
/// The slice of a warm-up transaction.
const WARM: u32 = u32::MAX;
/// Retries per transaction, as in `examples/speculative_worklist.rs`.
const MAX_RETRIES: u32 = 64;
/// Set-ups measured per run; their median is `setup_s`.
const SETUPS: usize = 31;
/// `pending_operations()` is sampled before one operation in this many.
const PENDING_SAMPLE_EVERY: usize = 8;
/// Sizes of the single-threaded layer probes.
const PROBE_OPS: usize = 200_000;
const PROBE_PAIRS: usize = 16_384;
const PROBE_REPS: usize = 5;
const ABORT_PROBES: u64 = 5_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Short,
    Think,
}

impl Shape {
    fn structure(self) -> &'static str {
        match self {
            Shape::Short => "HashSet",
            Shape::Think => "HashTable",
        }
    }

    pub fn interface(self) -> InterfaceId {
        match self {
            Shape::Short => InterfaceId::Set,
            Shape::Think => InterfaceId::Map,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Shape::Short => "txn-short",
            Shape::Think => "txn-think",
        }
    }
}

/// One generated transaction.
#[derive(Debug, Clone, Copy)]
enum Input {
    Short(ShortTxn),
    Think(ThinkTxn),
}

fn input(shape: Shape, seed: u64, client: u64, index: u64) -> Input {
    match shape {
        Shape::Short => Input::Short(short_txn(seed, client, index)),
        Shape::Think => Input::Think(think_txn(seed, client, index)),
    }
}

/// The structure of `shape` holding the seed's prefill.
fn prefilled(shape: Shape, seed: u64) -> Result<AnyStructure, String> {
    let mut s = AnyStructure::by_name(shape.structure())
        .ok_or_else(|| format!("no structure named {}", shape.structure()))?;
    let mut apply = |op: &str, args: &[Value]| {
        s.apply(op, args)
            .map(drop)
            .map_err(|e| format!("prefill: {e}"))
    };
    match shape {
        Shape::Short => {
            for k in short_prefill(seed) {
                apply("add", &[Value::elem(k)])?;
            }
        }
        Shape::Think => {
            for (k, v) in think_prefill(seed) {
                apply("put", &[Value::elem(k), Value::elem(v)])?;
            }
        }
    }
    Ok(s)
}

/// Every knob pinned, so no environment variable changes what is measured.
fn runtime_options() -> RuntimeOptions {
    RuntimeOptions {
        backend: AdmitBackend::Bytecode,
        fallback: FallbackOptions::on(),
        backoff: BackoffOptions::on(),
        faults: None,
    }
}

/// Encodes an operation result for the spill record.
fn encode(result: Option<Value>) -> Result<u32, TxnError> {
    match result {
        Some(Value::Bool(b)) => Ok(u32::from(b)),
        Some(Value::Elem(e)) => Ok(e.0),
        Some(Value::Int(i)) => u32::try_from(i)
            .map_err(|_| TxnError::Dispatch(format!("result {i} out of record range"))),
        other => Err(TxnError::Dispatch(format!("unexpected result {other:?}"))),
    }
}

/// Runs one transaction's operations through `exec`, storing the encoded
/// results in `vals` and the think time in `think_ns` (when timed).
///
/// `txn-short` records its two results in `vals[0..2]`. `txn-think`
/// records `[get result, written value, put result, size result]`.
fn body<X>(
    input: &Input,
    exec: &mut X,
    vals: &mut [u32; 4],
    think_ns: Option<&mut u64>,
) -> Result<(), TxnError>
where
    X: FnMut(&'static str, &[Value]) -> Result<Option<Value>, TxnError>,
{
    match input {
        Input::Short(t) => {
            for (slot, (op, k)) in vals.iter_mut().zip(t.ops) {
                *slot = encode(exec(op.name(), &[Value::elem(k)])?)?;
            }
        }
        Input::Think(t) => {
            let current = encode(exec("get", &[Value::elem(t.key)])?)?;
            let start = think_ns.is_some().then(Instant::now);
            let next = value_from(think(THINK_ITERS, t.salt ^ u64::from(current)));
            if let (Some(acc), Some(start)) = (think_ns, start) {
                *acc += start.elapsed().as_nanos() as u64;
            }
            vals[0] = current;
            vals[1] = next;
            vals[2] = encode(exec("put", &[Value::elem(t.key), Value::elem(next)])?)?;
            if t.reads_size {
                vals[3] = encode(exec("size", &[])?)?;
            }
        }
    }
    Ok(())
}

/// The operations of `input` without the think work, for the probes.
fn ops_of(input: &Input) -> Vec<(&'static str, Vec<Value>)> {
    match input {
        Input::Short(t) => t
            .ops
            .iter()
            .map(|(op, k)| (op.name(), vec![Value::elem(*k)]))
            .collect(),
        Input::Think(t) => {
            let mut ops = vec![
                ("get", vec![Value::elem(t.key)]),
                (
                    "put",
                    vec![Value::elem(t.key), Value::elem(value_from(t.salt))],
                ),
            ];
            if t.reads_size {
                ops.push(("size", vec![]));
            }
            ops
        }
    }
}

/// The number of operations `input` executes.
fn op_count(input: &Input) -> u64 {
    match input {
        Input::Short(t) => t.ops.len() as u64,
        Input::Think(t) => 2 + u64::from(t.reads_size),
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Span sums of one client's measured transactions in a traced leg.
#[derive(Debug)]
struct ClientTrace {
    txns: u64,
    txn_ns: u64,
    begin_ns: u64,
    execute_ns: Vec<u32>,
    commit_ns: u64,
    think_ns: u64,
    pending: u64,
    pending_samples: u64,
    log: SpanLog,
}

impl ClientTrace {
    fn new(origin: Instant, thread: &'static str) -> ClientTrace {
        ClientTrace {
            txns: 0,
            txn_ns: 0,
            begin_ns: 0,
            execute_ns: Vec::new(),
            commit_ns: 0,
            think_ns: 0,
            pending: 0,
            pending_samples: 0,
            log: SpanLog::new(origin, thread),
        }
    }
}

/// A transaction engine under test.
#[derive(Clone, Copy)]
enum Engine<'a> {
    Speculative(&'a SpeculativeRuntime),
    /// The coarse-lock baseline; the counter numbers transactions inside the
    /// lock, which is their serialization order.
    Coarse(&'a CoarseLockRuntime, &'a AtomicU64),
}

/// Runs one client transaction to commit or to retry exhaustion. Returns
/// the commit ticket, or `None` when the retries ran out.
fn transact(
    engine: Engine<'_>,
    input: &Input,
    vals: &mut [u32; 4],
    request: u64,
    tr: Option<&mut ClientTrace>,
) -> Result<Option<u64>, String> {
    match engine {
        Engine::Speculative(rt) => speculative(rt, input, vals, request, tr),
        Engine::Coarse(rt, order) => rt
            .run_transaction(|t| {
                let mut exec = |op: &'static str, args: &[Value]| {
                    t.execute(op, args)
                        .map_err(|e| TxnError::Dispatch(e.to_string()))
                };
                body(input, &mut exec, vals, None)?;
                Ok(Some(order.fetch_add(1, Ordering::Relaxed) + 1))
            })
            .map_err(|e: TxnError| format!("coarse transaction failed: {e}")),
    }
}

/// The retry loop of `SpeculativeRuntime::run` (same backoff), written out
/// so the benchmark can keep the commit ticket and time each call.
fn speculative(
    rt: &SpeculativeRuntime,
    input: &Input,
    vals: &mut [u32; 4],
    request: u64,
    mut tr: Option<&mut ClientTrace>,
) -> Result<Option<u64>, String> {
    let backoff = rt.options().backoff;
    let traced = tr.is_some();
    let stamp = || traced.then(Instant::now);
    for attempt in 0..=MAX_RETRIES {
        let t0 = stamp();
        let mut txn = rt.begin();
        let t1 = stamp();
        let id = txn.id();
        let mut think_ns = 0u64;
        let outcome = {
            let mut exec = |op: &'static str, args: &[Value]| match tr.as_deref_mut() {
                None => txn.execute(op, args),
                Some(tr) => {
                    if tr.execute_ns.len() % PENDING_SAMPLE_EVERY == 0 {
                        tr.pending += rt.pending_operations() as u64;
                        tr.pending_samples += 1;
                    }
                    let start = Instant::now();
                    let result = txn.execute(op, args);
                    let end = Instant::now();
                    tr.execute_ns
                        .push(ns(end - start).min(u64::from(u32::MAX)) as u32);
                    if tr.log.sampled(request) {
                        tr.log
                            .record(request, "executor.execute", "client.txn", start, end);
                    }
                    result
                }
            };
            body(input, &mut exec, vals, traced.then_some(&mut think_ns))
        };
        if let (Some(tr), Some(t0), Some(t1)) = (tr.as_deref_mut(), t0, t1) {
            tr.begin_ns += ns(t1 - t0);
            tr.think_ns += think_ns;
            if tr.log.sampled(request) {
                tr.log
                    .record(request, "executor.begin", "client.txn", t0, t1);
            }
        }
        match outcome {
            Ok(()) => {
                let t2 = stamp();
                let ticket = txn.commit();
                if let (Some(tr), Some(t2)) = (tr.as_deref_mut(), t2) {
                    let t3 = Instant::now();
                    tr.commit_ns += ns(t3 - t2);
                    if tr.log.sampled(request) {
                        tr.log
                            .record(request, "executor.commit", "client.txn", t2, t3);
                    }
                }
                return Ok(Some(ticket));
            }
            Err(TxnError::Conflict(_)) => {
                let t2 = stamp();
                txn.abort();
                if let (Some(tr), Some(t2)) = (tr.as_deref_mut(), t2) {
                    if tr.log.sampled(request) {
                        tr.log
                            .record(request, "executor.abort", "client.txn", t2, Instant::now());
                    }
                }
                backoff.wait(id, attempt);
            }
            Err(e) => {
                txn.abort();
                return Err(format!("transaction failed: {e}"));
            }
        }
    }
    Ok(None)
}

/// A spill record: one client transaction.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Commit ticket; 0 when the retries ran out.
    ticket: u64,
    index: u32,
    latency_ns: u32,
    vals: [u32; 4],
    /// The measured slice the transaction started in, or `WARM`.
    slice: u32,
}

const RECORD_BYTES: usize = 8 + 4 + 4 + 16 + 4;

impl Record {
    fn encode(&self) -> [u8; RECORD_BYTES] {
        let mut out = [0u8; RECORD_BYTES];
        out[0..8].copy_from_slice(&self.ticket.to_le_bytes());
        out[8..12].copy_from_slice(&self.index.to_le_bytes());
        out[12..16].copy_from_slice(&self.latency_ns.to_le_bytes());
        for (i, v) in self.vals.iter().enumerate() {
            out[16 + 4 * i..20 + 4 * i].copy_from_slice(&v.to_le_bytes());
        }
        out[32..36].copy_from_slice(&self.slice.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8; RECORD_BYTES]) -> Record {
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
        Record {
            ticket: u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")),
            index: u32_at(8),
            latency_ns: u32_at(12),
            vals: [u32_at(16), u32_at(20), u32_at(24), u32_at(28)],
            slice: u32_at(32),
        }
    }
}

/// The spill files of one leg, one per client in client order, removed
/// when dropped.
#[derive(Debug)]
struct Spill {
    paths: Vec<PathBuf>,
}

impl Spill {
    /// Streams client `c`'s records in the order it wrote them.
    fn records(&self, c: usize) -> Result<impl Iterator<Item = Result<Record, String>>, String> {
        let path = &self.paths[c];
        let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
        let mut reader = BufReader::with_capacity(1 << 18, file);
        let path = path.clone();
        Ok(std::iter::from_fn(move || {
            let mut bytes = [0u8; RECORD_BYTES];
            match reader.read_exact(&mut bytes) {
                Ok(()) => Some(Ok(Record::decode(&bytes))),
                Err(e) if e.kind() == ErrorKind::UnexpectedEof => None,
                Err(e) => Some(Err(format!("reading {}: {e}", path.display()))),
            }
        }))
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        for path in &self.paths {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// What one client did.
#[derive(Debug)]
struct ClientRun {
    end: Instant,
    trace: Option<ClientTrace>,
}

/// What one closed-loop leg did.
#[derive(Debug)]
struct Leg {
    /// Measured window: from the end of the warm-up to the last commit.
    window_s: f64,
    attempted: u64,
    failed: u64,
    committed: u64,
    /// Operations of every committed transaction, warm-up included.
    committed_ops: u64,
    /// Sorted latencies of the measured transactions, in ns.
    latencies: Vec<f64>,
    /// Committed transactions per second in each slice.
    slices: Vec<f64>,
    /// Every transaction of the leg.
    spill: Spill,
    traces: Vec<ClientTrace>,
    peak_rss_mb: f64,
}

impl Leg {
    /// Median over the slices of committed transactions per second.
    fn txn_per_s(&self) -> f64 {
        median(&self.slices)
    }

    /// The mean latency of the measured window, in µs.
    fn mean_us(&self) -> f64 {
        self.latencies.iter().sum::<f64>() / self.latencies.len() as f64 / 1e3
    }

    /// A latency percentile of the measured window, in µs.
    fn p_us(&self, q: f64) -> f64 {
        quantile(&self.latencies, q) / 1e3
    }
}

/// One client's closed loop: warm up until `warm_end`, then measure until
/// `deadline`, writing every transaction to its spill file.
#[allow(clippy::too_many_arguments)]
fn client(
    shape: Shape,
    seed: u64,
    engine: Engine<'_>,
    client: u64,
    path: PathBuf,
    warm_end: Instant,
    deadline: Instant,
    traced: bool,
) -> Result<ClientRun, String> {
    let file = File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut out = BufWriter::with_capacity(1 << 18, file);
    let thread = if client == 0 { "client-0" } else { "client-1" };
    let measure = deadline - warm_end;
    let mut trace = traced.then(|| ClientTrace::new(warm_end, thread));
    let mut end = Instant::now();
    for index in 0u64.. {
        let start = Instant::now();
        if start >= deadline {
            break;
        }
        let measured = start >= warm_end;
        let slice = if measured {
            ((start - warm_end).as_secs_f64() / measure.as_secs_f64() * SLICES as f64) as u32
        } else {
            WARM
        };
        let request = (client << 32) | index;
        let txn = input(shape, seed, client, index);
        let mut vals = [0u32; 4];
        let tr = trace.as_mut().filter(|_| measured);
        let ticket = transact(engine, &txn, &mut vals, request, tr)?;
        end = Instant::now();
        if let Some(tr) = trace.as_mut().filter(|_| measured) {
            tr.txns += 1;
            tr.txn_ns += ns(end - start);
            if tr.log.sampled(request) {
                tr.log.record(request, "client.txn", "", start, end);
            }
        }
        let record = Record {
            ticket: ticket.unwrap_or(0),
            index: u32::try_from(index).map_err(|_| "too many transactions".to_string())?,
            latency_ns: ns(end - start).min(u64::from(u32::MAX)) as u32,
            vals,
            slice,
        };
        out.write_all(&record.encode())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    out.flush()
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(ClientRun { end, trace })
}

/// Runs `clients` closed-loop clients on `engine` for a warm-up plus
/// `measure`, then reads their spill files back.
fn run_leg(
    shape: Shape,
    config: &Config,
    engine: Engine<'_>,
    label: &str,
    measure: Duration,
    traced: bool,
) -> Result<Leg, String> {
    let dir = out_dir()?;
    let spill = Spill {
        paths: (0..config.threads)
            .map(|c| dir.join(format!("perfbench-{}-{label}-{c}.bin", std::process::id())))
            .collect(),
    };
    let warm_end = Instant::now() + WARMUP;
    let deadline = warm_end + measure;
    let runs: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads as u64)
            .map(|c| {
                let path = spill.paths[c as usize].clone();
                scope.spawn(move || {
                    client(
                        shape,
                        config.seed,
                        engine,
                        c,
                        path,
                        warm_end,
                        deadline,
                        traced,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".to_string()))
            })
            .collect()
    });
    let peak_rss_mb = peak_rss_mb()?;
    let mut leg = Leg {
        window_s: 0.0,
        attempted: 0,
        failed: 0,
        committed: 0,
        committed_ops: 0,
        latencies: Vec::new(),
        slices: Vec::new(),
        spill,
        traces: Vec::new(),
        peak_rss_mb,
    };
    let mut last_end = warm_end;
    let mut latencies = Vec::new();
    let mut sliced = [0u64; SLICES];
    let mut first_error = None;
    for (c, run) in runs.into_iter().enumerate() {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                first_error.get_or_insert(e);
                continue;
            }
        };
        last_end = last_end.max(run.end);
        for r in leg.spill.records(c)? {
            let r = r?;
            if r.ticket != 0 {
                leg.committed_ops += op_count(&input(shape, config.seed, c as u64, r.index.into()));
            }
            if r.slice != WARM {
                leg.attempted += 1;
                leg.failed += u64::from(r.ticket == 0);
                leg.committed += u64::from(r.ticket != 0);
                latencies.push(r.latency_ns);
                sliced[r.slice as usize] += u64::from(r.ticket != 0);
            }
        }
        leg.traces.extend(run.trace);
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    if leg.committed == 0 {
        return Err(format!(
            "{label}: no transaction committed in the measured window"
        ));
    }
    leg.window_s = (last_end - warm_end).as_secs_f64();
    leg.latencies = sorted_ns(latencies);
    let slice_s = measure.as_secs_f64() / SLICES as f64;
    leg.slices = sliced.iter().map(|&c| c as f64 / slice_s).collect();
    Ok(leg)
}

/// Replays the committed transactions in ticket order through a fresh
/// structure: every recorded result and the final abstract state must
/// match, and the tickets must be exactly `1..=commits`. Each client
/// commits in ticket order, so the replay merges the clients' spill files
/// as streams.
fn replay(
    shape: Shape,
    seed: u64,
    spill: &Spill,
    commits: u64,
    final_state: &AbstractState,
) -> Result<(), String> {
    type Stream = Peekable<Box<dyn Iterator<Item = Result<Record, String>>>>;
    let mut streams = Vec::new();
    for c in 0..spill.paths.len() {
        let committed = spill
            .records(c)?
            .filter(|r| r.as_ref().map_or(true, |r| r.ticket != 0));
        let stream: Box<dyn Iterator<Item = Result<Record, String>>> = Box::new(committed);
        streams.push(stream.peekable());
    }
    let next_from = |ticket: u64, streams: &mut [Stream]| -> Result<(u64, Record), String> {
        for (c, stream) in streams.iter_mut().enumerate() {
            match stream.peek() {
                Some(Ok(r)) if r.ticket == ticket => {
                    let r = *r;
                    stream.next();
                    return Ok((c as u64, r));
                }
                Some(Err(e)) => return Err(e.clone()),
                _ => {}
            }
        }
        Err(format!(
            "commit ticket {ticket} of 1..={commits} was never recorded"
        ))
    };
    let mut s = prefilled(shape, seed)?;
    for ticket in 1..=commits {
        let (c, r) = next_from(ticket, &mut streams)?;
        let txn = input(shape, seed, c, r.index.into());
        let mut replayed = [0u32; 4];
        let mut exec = |op: &'static str, args: &[Value]| {
            s.apply(op, args)
                .map_err(|e| TxnError::Dispatch(e.to_string()))
        };
        match txn {
            Input::Short(_) => body(&txn, &mut exec, &mut replayed, None),
            Input::Think(t) => replay_think(&t, r.vals[1], &mut exec, &mut replayed),
        }
        .map_err(|e| format!("replaying ticket {ticket}: {e}"))?;
        if replayed != r.vals {
            return Err(format!(
                "ticket {ticket} (client {c}, txn {}): recorded results {:?}, serial replay gives {:?}",
                r.index, r.vals, replayed
            ));
        }
    }
    if streams.iter_mut().any(|stream| stream.peek().is_some()) {
        return Err(format!(
            "more than {commits} committed transactions were recorded"
        ));
    }
    s.check_invariants()
        .map_err(|e| format!("replayed structure: {e}"))?;
    if s.abstract_state() != *final_state {
        return Err("final abstract state differs from the ticket-order replay".to_string());
    }
    Ok(())
}

/// Replays one `txn-think` transaction. The written value came out of the
/// client's think work; replay writes the recorded one and checks the rest.
fn replay_think<X>(
    t: &ThinkTxn,
    written: u32,
    exec: &mut X,
    vals: &mut [u32; 4],
) -> Result<(), TxnError>
where
    X: FnMut(&'static str, &[Value]) -> Result<Option<Value>, TxnError>,
{
    vals[0] = encode(exec("get", &[Value::elem(t.key)])?)?;
    vals[1] = written;
    vals[2] = encode(exec("put", &[Value::elem(t.key), Value::elem(written)])?)?;
    if t.reads_size {
        vals[3] = encode(exec("size", &[])?)?;
    }
    Ok(())
}

/// The correctness gate of a speculative leg.
fn check_speculative(
    shape: Shape,
    seed: u64,
    rt: &SpeculativeRuntime,
    leg: &Leg,
) -> Result<(), String> {
    let stats = rt.stats();
    if let Some(reason) = rt.poisoned() {
        return Err(format!("runtime poisoned: {reason}"));
    }
    if stats.begun != stats.commits + stats.aborts {
        return Err(format!(
            "begun {} != commits {} + aborts {}",
            stats.begun, stats.commits, stats.aborts
        ));
    }
    if stats.rollback_failures != 0 || rt.pending_operations() != 0 {
        return Err(format!(
            "{} rollback failures, {} operations still pending",
            stats.rollback_failures,
            rt.pending_operations()
        ));
    }
    rt.check_invariants()
        .map_err(|e| format!("runtime structure: {e}"))?;
    replay(shape, seed, &leg.spill, stats.commits, &rt.snapshot())
}

/// Forces the lazy per-runtime admission compile: every ordered pair of the
/// workload's operations is checked once, between two transactions that
/// both abort, so the structure ends where it started.
fn warm_admission(rt: &SpeculativeRuntime, shape: Shape) -> Result<(), String> {
    let ops = |k: u32| -> Vec<(&'static str, Vec<Value>)> {
        match shape {
            Shape::Short => ["add", "contains", "remove"]
                .map(|op| (op, vec![Value::elem(k)]))
                .to_vec(),
            Shape::Think => vec![
                ("get", vec![Value::elem(k)]),
                ("put", vec![Value::elem(k), Value::elem(1)]),
                ("size", vec![]),
            ],
        }
    };
    let outside = match shape {
        Shape::Short => SHORT_KEYS,
        Shape::Think => THINK_KEYS,
    };
    for (op1, args1) in ops(outside + 1) {
        for (op2, args2) in ops(outside + 2) {
            let mut first = rt.begin();
            first
                .execute(op1, &args1)
                .map_err(|e| format!("warm-up {op1}: {e}"))?;
            let mut second = rt.begin();
            match second.execute(op2, &args2) {
                Ok(_) | Err(TxnError::Conflict(_)) => {}
                Err(e) => return Err(format!("warm-up {op1}/{op2}: {e}")),
            }
            second.abort();
            first.abort();
        }
    }
    Ok(())
}

/// Set-up: prefill, runtime construction and the admission compile.
fn setup(shape: Shape, seed: u64) -> Result<(SpeculativeRuntime, f64), String> {
    let start = Instant::now();
    let rt = SpeculativeRuntime::with_options(prefilled(shape, seed)?, runtime_options());
    warm_admission(&rt, shape)?;
    Ok((rt, start.elapsed().as_secs_f64()))
}

/// A checked closed-loop leg on a set-up runtime. Returns the leg and the
/// runtime's statistics before and after it.
fn speculative_leg(
    shape: Shape,
    config: &Config,
    rt: &SpeculativeRuntime,
    measure: Duration,
    label: &str,
    traced: bool,
) -> Result<(Leg, RuntimeStats, RuntimeStats), String> {
    let before = rt.stats();
    let leg = run_leg(
        shape,
        config,
        Engine::Speculative(rt),
        label,
        measure,
        traced,
    )?;
    check_speculative(shape, config.seed, rt, &leg)?;
    Ok((leg, before, rt.stats()))
}

/// The `txn-short` / `txn-think` workload, untraced.
pub fn run(shape: Shape, config: &Config) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (rt, secs) = setup(shape, config.seed)?;
        setups.push(secs);
        kept = Some(rt);
    }
    let rt = kept.expect("at least one set-up");
    let measure = Duration::from_secs_f64(config.seconds);
    let (leg, _, _) = speculative_leg(shape, config, &rt, measure, "speculative", false)?;

    let mut sorted_setups = setups.clone();
    sorted_setups.sort_by(f64::total_cmp);
    println!(
        "setup_s over {SETUPS} set-ups: min {:.4}, median {:.4}, max {:.4}",
        sorted_setups[0],
        median(&setups),
        sorted_setups[SETUPS - 1]
    );
    println!(
        "{}: {} clients, {:.3} s measured, {} committed, {} retries exhausted",
        shape.name(),
        config.threads,
        leg.window_s,
        leg.committed,
        leg.failed
    );
    println!(
        "  txn_per_s {:.1} 1/s (median of {SLICES} slices); txn_mean_us {:.3} us, \
         txn_p50_us {:.3} us, txn_p99_us {:.3} us over {} samples",
        leg.txn_per_s(),
        leg.mean_us(),
        leg.p_us(0.5),
        leg.p_us(0.99),
        leg.latencies.len()
    );
    println!(
        "  latency percentiles (us): p10 {:.3}, p25 {:.3}, p50 {:.3}, p75 {:.3}, p90 {:.3}, p99 {:.3}, p99.9 {:.3}",
        leg.p_us(0.1),
        leg.p_us(0.25),
        leg.p_us(0.5),
        leg.p_us(0.75),
        leg.p_us(0.9),
        leg.p_us(0.99),
        leg.p_us(0.999)
    );
    println!(
        "  fail_ratio {} ({} of {} attempted)",
        leg.failed as f64 / leg.attempted as f64,
        leg.failed,
        leg.attempted
    );
    let mut outcome = Outcome {
        attempted: leg.attempted,
        failed: leg.failed,
        metrics: Metrics::default(),
    };
    let m = &mut outcome.metrics;
    m.set("setup_s", median(&setups));
    m.set("throughput_per_s", leg.txn_per_s());
    m.set("latency_mean_us", leg.mean_us());
    m.set("latency_p99_us", leg.p_us(0.99));
    m.set("peak_rss_mb", leg.peak_rss_mb);
    Ok(outcome)
}

/// The op stream of client 0's first transactions, without think work.
fn op_stream(shape: Shape, seed: u64, n: usize) -> Vec<(&'static str, Vec<Value>)> {
    (0u64..)
        .flat_map(|i| ops_of(&input(shape, seed, 0, i)))
        .take(n)
        .collect()
}

/// ns per operation of `AnyStructure::apply` and of
/// `TrackedStructure::apply` over the same op stream, each the median of
/// `PROBE_REPS` replays from the prefilled structure.
fn structure_probe(shape: Shape, seed: u64) -> Result<(f64, f64), String> {
    let ops = op_stream(shape, seed, PROBE_OPS);
    let per_op = |d: Duration| ns(d) as f64 / ops.len() as f64;
    let (mut concrete, mut tracked) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let mut s = prefilled(shape, seed)?;
        let start = Instant::now();
        for (op, args) in &ops {
            std::hint::black_box(s.apply(op, args).map_err(|e| e.to_string())?);
        }
        concrete.push(per_op(start.elapsed()));
        let mut s = TrackedStructure::new(prefilled(shape, seed)?);
        let start = Instant::now();
        for (op, args) in &ops {
            std::hint::black_box(s.apply(op, args).map_err(|e| e.to_string())?);
        }
        tracked.push(per_op(start.elapsed()));
    }
    Ok((median(&concrete), median(&tracked)))
}

/// ns per `CommutativityGatekeeper::check_indexed` call, over pairs of
/// consecutive operations of the stream: the first logged (with its result
/// and, where a condition reads it, its pre-state), the second incoming.
fn gatekeeper_probe(shape: Shape, seed: u64) -> Result<f64, String> {
    let g = CommutativityGatekeeper::with_backend(shape.interface(), AdmitBackend::Bytecode);
    let ops = op_stream(shape, seed, PROBE_PAIRS + 1);
    let index = |op: &str| g.op_index(op).ok_or_else(|| format!("no operation {op}"));
    let mut s = TrackedStructure::new(prefilled(shape, seed)?);
    let mut pairs = Vec::with_capacity(PROBE_PAIRS);
    for (i, (op, args)) in ops.iter().enumerate().take(PROBE_PAIRS) {
        let pre_state = g.requires_pre_state(op).then(|| s.state_value().clone());
        let result = s.apply(op, args).map_err(|e| e.to_string())?;
        let entry = LogEntry {
            txn: 1,
            op: op.to_string(),
            args: args.clone(),
            result,
            pre_state,
        };
        pairs.push((index(op)?, entry, index(ops[i + 1].0)?, &ops[i + 1]));
    }
    let mut times = Vec::new();
    for rep in 0..=PROBE_REPS {
        let start = Instant::now();
        for (first, entry, second, (op, args)) in &pairs {
            match g.check_indexed(*first, entry, *second, op, args) {
                Ok(()) | Err(AdmissionError::Conflict(_)) => {}
                Err(AdmissionError::Evaluation(e)) => return Err(format!("admission: {e}")),
            }
        }
        // The first round compiles the pair programs.
        if rep > 0 {
            times.push(ns(start.elapsed()) as f64 / pairs.len() as f64);
        }
    }
    Ok(median(&times))
}

/// ns per `Transaction::abort` of a transaction that executed its
/// operations: the inverse-operation rollback. The runtime must end in its
/// prefilled state.
fn abort_probe(shape: Shape, seed: u64) -> Result<f64, String> {
    let rt = SpeculativeRuntime::with_options(prefilled(shape, seed)?, runtime_options());
    let initial = rt.snapshot();
    let mut total = Duration::ZERO;
    for index in 0..ABORT_PROBES {
        let mut txn = rt.begin();
        for (op, args) in ops_of(&input(shape, seed, 0, index)) {
            txn.execute(op, &args)
                .map_err(|e| format!("abort probe: {e}"))?;
        }
        let start = Instant::now();
        txn.abort();
        total += start.elapsed();
    }
    if rt.snapshot() != initial || rt.pending_operations() != 0 || rt.poisoned().is_some() {
        return Err("abort probe: rollback did not restore the prefilled state".to_string());
    }
    Ok(ns(total) as f64 / ABORT_PROBES as f64)
}

/// The runtime's per-layer metrics on `shape`, with legs of `leg_seconds`.
/// Returns the trace overhead (untraced over traced throughput) and the
/// untraced leg's attempted and failed counts.
pub fn layers(
    shape: Shape,
    config: &Config,
    leg_seconds: f64,
    metrics: &mut Metrics,
) -> Result<(f64, u64, u64), String> {
    let measure = Duration::from_secs_f64(leg_seconds);
    // Each leg runs on a fresh runtime over the same inputs.
    let leg = |label, traced| {
        let (rt, _) = setup(shape, config.seed)?;
        speculative_leg(shape, config, &rt, measure, label, traced)
    };
    let (plain, before, after) = leg("untraced", false)?;
    let (traced, _, _) = leg("traced", true)?;
    let coarse_rt = CoarseLockRuntime::new(prefilled(shape, config.seed)?);
    let order = AtomicU64::new(0);
    let engine = Engine::Coarse(&coarse_rt, &order);
    let coarse = run_leg(shape, config, engine, "coarse", measure, false)?;
    if coarse_rt.is_poisoned() {
        return Err("coarse baseline poisoned".to_string());
    }
    replay(
        shape,
        config.seed,
        &coarse.spill,
        order.load(Ordering::Relaxed),
        &coarse_rt.snapshot(),
    )?;
    let (concrete_ns, tracked_ns) = structure_probe(shape, config.seed)?;
    let check_ns = gatekeeper_probe(shape, config.seed)?;
    let abort_ns = abort_probe(shape, config.seed)?;

    // Span sums over both clients of the traced leg.
    let traces = &traced.traces;
    let sum = |f: fn(&ClientTrace) -> u64| traces.iter().map(f).sum::<u64>() as f64;
    let txns = sum(|t| t.txns);
    let mut execute: Vec<u32> = traces.iter().flat_map(|t| t.execute_ns.clone()).collect();
    execute.sort_unstable();
    let execute = sorted_ns(execute);
    let per_txn = |total: f64| total / txns;
    let txn_ns = per_txn(sum(|t| t.txn_ns));
    let begin = per_txn(sum(|t| t.begin_ns));
    let execute_per_txn = per_txn(execute.iter().sum());
    let commit = per_txn(sum(|t| t.commit_ns));
    let think = per_txn(sum(|t| t.think_ns));
    let ops_per_txn = execute.len() as f64 / txns;
    let pending = sum(|t| t.pending) / sum(|t| t.pending_samples).max(1.0);
    let client_self = txn_ns - begin - execute_per_txn - commit - think;
    let concrete = concrete_ns * ops_per_txn;
    let mirror = (tracked_ns - concrete_ns) * ops_per_txn;
    let admission = pending * check_ns * ops_per_txn;
    let unattributed = execute_per_txn - concrete - mirror - admission;

    let delta = |f: fn(&RuntimeStats) -> u64| (f(&after) - f(&before)) as f64;
    let m = metrics;
    m.set("executor.txn_ns", txn_ns);
    m.set("executor.begin_ns", begin);
    m.set("executor.execute_ns.p50", quantile(&execute, 0.5));
    m.set("executor.execute_ns.p99", quantile(&execute, 0.99));
    m.set("executor.commit_ns", commit);
    m.set("structure.concrete_ns", concrete_ns);
    m.set("structure.tracked_ns", tracked_ns);
    m.set("executor.unattributed_ns", unattributed / ops_per_txn);
    m.set("client.self_ns", client_self);
    m.set("gatekeeper.check_ns", check_ns);
    m.set("index.pending_at_execute", pending);
    m.set("executor.abort_ns", abort_ns);
    m.set("executor.aborts", delta(|s| s.aborts));
    m.set("executor.conflicts", delta(|s| s.conflicts));
    m.set(
        "executor.abort_ratio",
        delta(|s| s.aborts) / delta(|s| s.begun),
    );
    m.set(
        "executor.useful_op_ratio",
        plain.committed_ops as f64 / delta(|s| s.operations),
    );
    m.set("executor.retries_exhausted", plain.failed as f64);
    m.set("contention.degraded_commits", delta(|s| s.degraded_commits));
    m.set("contention.mode_switches", delta(|s| s.mode_switches));
    m.set("client.think_share", think / txn_ns);
    m.set("client.ops_per_txn", ops_per_txn);
    m.set("runtime.txn_per_s", plain.txn_per_s());
    m.set("runtime.traced_txn_per_s", traced.txn_per_s());
    m.set("baseline.txn_per_s", coarse.txn_per_s());
    m.set("baseline.speedup", plain.txn_per_s() / coarse.txn_per_s());
    m.set("baseline.p99_us", coarse.p_us(0.99));
    m.set("fail_ratio", plain.failed as f64 / plain.attempted as f64);

    print_table(
        &format!(
            "{} runtime layers per transaction (traced leg, {} txns, {ops_per_txn:.2} ops/txn)",
            shape.name(),
            txns
        ),
        "ns",
        txn_ns,
        &[
            ("client.self_ns", client_self),
            ("client.think_ns", think),
            ("executor.begin_ns", begin),
            ("structure.concrete_ns x ops", concrete),
            ("structure.mirror_ns x ops", mirror),
            ("gatekeeper.check_ns x pending x ops", admission),
            ("executor.unattributed_ns x ops", unattributed),
            ("executor.commit_ns", commit),
        ],
    );
    println!(
        "  speculative {:.1} txn/s (traced {:.1}), coarse {:.1} txn/s: speedup {:.4} over coarse; \
         p99 {:.3} us vs coarse {:.3} us",
        plain.txn_per_s(),
        traced.txn_per_s(),
        coarse.txn_per_s(),
        plain.txn_per_s() / coarse.txn_per_s(),
        plain.p_us(0.99),
        coarse.p_us(0.99)
    );
    let traced_tps = traced.txn_per_s();
    let logs: Vec<SpanLog> = traced.traces.into_iter().map(|t| t.log).collect();
    write_spans(
        &out_dir()?.join(format!(
            "perfbench-spans-{}-{}.jsonl",
            shape.name(),
            config.seed
        )),
        &logs,
    )?;
    Ok((
        plain.txn_per_s() / traced_tps,
        plain.attempted,
        plain.failed,
    ))
}

/// The measured cost of one think iteration on this host, in ns. Recorded
/// only: the think work is a fixed iteration count.
pub fn think_ns_per_iter(seed: u64) -> f64 {
    const ITERS: u32 = 2_000_000;
    let start = Instant::now();
    std::hint::black_box(think(ITERS, seed));
    ns(start.elapsed()) as f64 / f64::from(ITERS)
}
