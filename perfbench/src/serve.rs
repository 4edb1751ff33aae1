//! `serve`: the in-process server (event-loop runtime, `nproc` workers)
//! over loopback, serving a durable catalog on `FileStorage` with an
//! fsync on every WAL append.
//!
//! The catalog is a small lake: 32 clusters × 4 versions of 24 rows. The
//! mix is 80% signature compares of within-cluster pairs, 10% top-10
//! searches and 10% 1-cell patches on a fixed subset of eight instances;
//! each patch is undone by the next patch of the same generator, so the
//! catalog stays the generated one. Phase (a) is an open loop at the
//! fixed rate [`RATE`], each request timed from its due time. Phase (b)
//! is a closed loop on the same mix, each connection keeping [`WINDOW`]
//! requests in flight. Both phases use `nproc` connections; phase (a)
//! drives them from two generator threads (a sender and a receiver),
//! phase (b) from one thread per connection.

use crate::stats::{median_s, peak_rss_mb, Metric, Rng, Samples};
use crate::trace::{Overhead, Tracer};
use crate::{nproc, share, Args, Outcome};
use ic_core::{Comparator, Delta, DeltaOp};
use ic_datagen::{generate_lake, Lake, LakeParams};
use ic_model::{AttrId, Catalog, NullId, Schema, TupleId, Value};
use ic_serve::poll::{Interest, Poller};
use ic_serve::{
    Algo, AttrRef, CatalogError, ErrorCode, FrameReader, PatchOp, PatchValue, Request, Response,
    Runtime, ServeCatalog, Server, ServerConfig, ServerHandle, COMPARE_LABEL, SEARCH_LABEL,
};
use ic_store::{encode_snapshot, FileStorage};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CLUSTERS: usize = 32;
const VERSIONS: usize = 4;
const ROWS: usize = 24;
const ARITY: usize = 4;
/// Patched instances: versions 0 and 1 of the first four clusters.
const PATCHED_CLUSTERS: usize = 4;
const PATCHED_VERSIONS: usize = 2;
/// Patch records the prepared data dir's WAL holds (change/undo pairs).
const PREP_PATCHES: usize = 64;
const SETUP_REPS: usize = 25;
const K: u64 = 10;
/// Phase (a)'s offered rate in requests per second, over all
/// connections: about a sixth of the ~6000 req/s saturation rate
/// (`rps_sat`) measured when the benchmark was written. A constant, never
/// derived at run time, so a slower server meets the same offered load.
/// At half the saturation rate, repeated runs' open-loop latencies
/// differed by 40–70%.
const RATE: f64 = 1000.0;
/// Requests each phase (b) connection keeps in flight.
const WINDOW: usize = 8;
/// How long after its last send a generator waits for responses.
const DRAIN: Duration = Duration::from_secs(2);
const PATCH_VALUES: usize = 8;

fn name(cluster: usize, version: usize) -> String {
    format!("c{cluster}v{version}")
}

/// A scratch directory under `perfbench/.scratch`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        let dir = PathBuf::from(format!("perfbench/.scratch/serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn cat_err(e: CatalogError) -> String {
    format!("catalog: {e}")
}

/// One cell change, addressed by name as a patch request is.
#[derive(Debug, Clone)]
struct Cell {
    name: String,
    tuple: u32,
    attr: u16,
    value: CellValue,
}

#[derive(Debug, Clone)]
enum CellValue {
    Const(String),
    Null(u32),
}

impl Cell {
    fn wire(&self) -> Request {
        Request::Patch {
            id: 0,
            name: self.name.clone(),
            ops: vec![PatchOp::Modify {
                tuple: self.tuple,
                attr: AttrRef::Index(self.attr),
                value: match &self.value {
                    CellValue::Const(s) => PatchValue::Const(s.clone()),
                    CellValue::Null(n) => PatchValue::Null(*n),
                },
            }],
        }
    }

    fn delta(&self, catalog: &mut Catalog) -> Delta {
        let value = match &self.value {
            CellValue::Const(s) => catalog.konst(s),
            CellValue::Null(n) => Value::Null(NullId(*n)),
        };
        Delta::new(vec![DeltaOp::Modify {
            id: TupleId(self.tuple),
            attr: AttrId(self.attr),
            value,
        }])
    }
}

/// The tuples of one instance as generated: `(tuple id, values)`.
type Tuples = Vec<(u32, Vec<CellValue>)>;

/// Patches on a set of instances: a fresh cell change, then its undo.
struct Patches {
    rng: Rng,
    /// The instances this stream owns, by name.
    targets: Vec<(String, Tuples)>,
    undo: Option<Cell>,
}

impl Patches {
    fn new(seed: u64, lake: &Lake, names: &[String]) -> Self {
        let targets = names
            .iter()
            .map(|n| {
                let inst = lake
                    .instances
                    .iter()
                    .find(|i| i.name() == n)
                    .expect("patched names are lake names");
                let tuples = inst
                    .iter_all()
                    .map(|(_, t)| {
                        let values = t
                            .values()
                            .iter()
                            .map(|v| match v {
                                Value::Const(s) => {
                                    CellValue::Const(lake.catalog.resolve(*s).to_string())
                                }
                                Value::Null(n) => CellValue::Null(n.0),
                            })
                            .collect();
                        (t.id().0, values)
                    })
                    .collect();
                (n.clone(), tuples)
            })
            .collect();
        Self {
            rng: Rng::new(seed),
            targets,
            undo: None,
        }
    }

    fn next(&mut self) -> Cell {
        if let Some(undo) = self.undo.take() {
            return undo;
        }
        let (name, tuples) = &self.targets[self.rng.below(self.targets.len())];
        let (tuple, values) = &tuples[self.rng.below(tuples.len())];
        let attr = self.rng.below(ARITY);
        self.undo = Some(Cell {
            name: name.clone(),
            tuple: *tuple,
            attr: attr as u16,
            value: values[attr].clone(),
        });
        Cell {
            name: name.clone(),
            tuple: *tuple,
            attr: attr as u16,
            value: CellValue::Const(format!("perfbench-patch-{}", self.rng.below(PATCH_VALUES))),
        }
    }
}

fn patched_names() -> Vec<String> {
    (0..PATCHED_CLUSTERS)
        .flat_map(|c| (0..PATCHED_VERSIONS).map(move |v| name(c, v)))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Compare,
    Search,
    Patch,
}

/// One generator's request stream: the mix, drawn from its seed.
struct Mix {
    rng: Rng,
    patches: Patches,
}

impl Mix {
    fn next(&mut self) -> (Kind, Request) {
        match self.rng.below(10) {
            0..=7 => {
                let c = self.rng.below(CLUSTERS);
                let a = self.rng.below(VERSIONS);
                let b = (a + 1 + self.rng.below(VERSIONS - 1)) % VERSIONS;
                (
                    Kind::Compare,
                    Request::Compare {
                        id: 0,
                        left: name(c, a),
                        right: name(c, b),
                        algo: Algo::Signature,
                        lambda: None,
                        budget_ms: None,
                    },
                )
            }
            8 => (
                Kind::Search,
                Request::Search {
                    id: 0,
                    query: name(self.rng.below(CLUSTERS), self.rng.below(VERSIONS)),
                    k: K,
                    lambda: None,
                    budget_ms: None,
                },
            ),
            _ => (Kind::Patch, self.patches.next().wire()),
        }
    }
}

fn set_id(req: &mut Request, new: u64) {
    match req {
        Request::Compare { id, .. }
        | Request::Search { id, .. }
        | Request::Patch { id, .. }
        | Request::Stats { id } => *id = new,
        _ => unreachable!("the benchmark sends compares, searches, patches and stats"),
    }
}

/// Score bits of every never-patched within-cluster pair, from a direct
/// `Comparator` on the served snapshot.
fn expected_scores(handle: &ServerHandle) -> Result<HashMap<(String, String), u64>, String> {
    let snap = handle.catalog().snapshot();
    let cmp = Comparator::new(&snap.catalog)
        .build()
        .map_err(|e| e.to_string())?;
    let patched = patched_names();
    let mut out = HashMap::new();
    for c in 0..CLUSTERS {
        for a in 0..VERSIONS {
            for b in 0..VERSIONS {
                let (l, r) = (name(c, a), name(c, b));
                if a == b || patched.contains(&l) || patched.contains(&r) {
                    continue;
                }
                let (li, ri) = (
                    snap.get(&l).ok_or("instance missing")?,
                    snap.get(&r).ok_or("instance missing")?,
                );
                let o = cmp.signature(li, ri).map_err(|e| e.to_string())?;
                out.insert((l, r), o.best.score().to_bits());
            }
        }
    }
    Ok(out)
}

/// How one response compares with what was asked.
enum Verdict {
    Ok { exec_us: Option<u64> },
    Refused,
    Failed,
    Wrong,
}

fn judge(
    req: &Request,
    resp: &Response,
    expected: &HashMap<(String, String), u64>,
    instances: u64,
) -> Verdict {
    match (req, resp) {
        (Request::Compare { left, right, .. }, Response::Compared { scores, .. }) => {
            let Some(score) = scores.signature else {
                return Verdict::Wrong;
            };
            match expected.get(&(left.clone(), right.clone())) {
                Some(bits) if *bits != score.to_bits() => Verdict::Wrong,
                _ => Verdict::Ok {
                    exec_us: Some(scores.elapsed_us),
                },
            }
        }
        (Request::Search { .. }, Response::Searched { results, .. }) => {
            if results.hits.len() as u64 == K && results.total == instances {
                Verdict::Ok {
                    exec_us: Some(results.elapsed_us),
                }
            } else {
                Verdict::Wrong
            }
        }
        (Request::Patch { name, .. }, Response::Patched { name: got, .. }) if name == got => {
            Verdict::Ok { exec_us: None }
        }
        (_, Response::Error { code, .. }) if *code == ErrorCode::Overloaded => Verdict::Refused,
        (_, Response::Error { .. }) => Verdict::Failed,
        _ => Verdict::Wrong,
    }
}

/// Counts and samples of one phase, merged over its generators.
#[derive(Default)]
struct Phase {
    sent: u64,
    ok: u64,
    failed: u64,
    refused: u64,
    wrong: u64,
    /// Due time (phase a) or send time (phase b) to decoded response.
    latency: Samples,
    patch_latency: Samples,
    /// Phase (b) keeps only `latency` and `patch_latency`, so the
    /// benchmark's own memory grows little with the server's speed.
    closed: bool,
    /// How late each send was against its due time.
    lag: Samples,
    encode_us: Samples,
    decode_us: Samples,
    exec_us: Samples,
    /// Send-to-decode time minus the server's `elapsed_us`.
    outside_us: Samples,
    /// In-flight requests at each send, by quarter of the phase.
    backlog: [Samples; 4],
}

impl Phase {
    fn merge(&mut self, o: Phase) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
        self.refused += o.refused;
        self.wrong += o.wrong;
        for (a, b) in [
            (&mut self.latency, o.latency),
            (&mut self.patch_latency, o.patch_latency),
            (&mut self.lag, o.lag),
            (&mut self.encode_us, o.encode_us),
            (&mut self.decode_us, o.decode_us),
            (&mut self.exec_us, o.exec_us),
            (&mut self.outside_us, o.outside_us),
        ] {
            a.extend(b);
        }
        for (a, b) in self.backlog.iter_mut().zip(o.backlog) {
            a.extend(b);
        }
    }

    fn line(&self) -> String {
        format!(
            "sent {}, succeeded {}, failed {}, refused {}, wrong {}",
            self.sent, self.ok, self.failed, self.refused, self.wrong
        )
    }
}

struct Sent {
    req: Request,
    kind: Kind,
    due: Instant,
    sent: Instant,
}

/// One generator's connection.
struct Conn {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
    next_id: u64,
    pending: HashMap<u64, Sent>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
        stream.set_nodelay(true).map_err(io_err("nodelay"))?;
        let reader = FrameReader::new(stream.try_clone().map_err(io_err("clone"))?);
        Ok(Self {
            stream,
            reader,
            next_id: 1,
            pending: HashMap::new(),
        })
    }

    /// Encodes, frames and writes `req`.
    fn send(&mut self, kind: Kind, mut req: Request, due: Instant) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        set_id(&mut req, id);
        let t = Instant::now();
        let mut frame = Vec::with_capacity(256);
        ic_serve::frame::write_frame(&mut frame, &req.encode()).map_err(io_err("frame"))?;
        self.stream.write_all(&frame).map_err(io_err("write"))?;
        self.pending.insert(
            id,
            Sent {
                req,
                kind,
                due,
                sent: t,
            },
        );
        Ok(())
    }

    /// Reads one response if one arrives within `wait` (`None` = block).
    fn recv(&mut self, wait: Option<Duration>) -> Result<Option<(Response, Duration)>, String> {
        self.stream
            .set_read_timeout(wait.map(|w| w.max(Duration::from_micros(1))))
            .map_err(io_err("timeout"))?;
        let Some(payload) = self.reader.poll_frame().map_err(|e| format!("read: {e}"))? else {
            return Ok(None);
        };
        let t = Instant::now();
        let resp = Response::decode(&payload).map_err(|e| format!("decode: {e}"))?;
        Ok(Some((resp, t.elapsed())))
    }
}

/// Matches a response with its request and records it in `ph`.
fn settle(sent: Sent, resp: &Response, decode: Duration, ph: &mut Phase, t: &Target<'_>) {
    let now = Instant::now();
    let verdict = judge(&sent.req, resp, t.expected, t.instances);
    match verdict {
        Verdict::Ok { .. } => ph.ok += 1,
        Verdict::Refused => ph.refused += 1,
        Verdict::Failed => ph.failed += 1,
        Verdict::Wrong => ph.wrong += 1,
    }
    let latency = now - sent.due;
    ph.latency.push_ms(latency);
    if sent.kind == Kind::Patch {
        ph.patch_latency.push_ms(latency);
    }
    if ph.closed {
        return;
    }
    ph.decode_us.push(decode.as_secs_f64() * 1e6);
    if let Verdict::Ok { exec_us: Some(us) } = verdict {
        ph.exec_us.push(us as f64);
        ph.outside_us
            .push((now - sent.sent).as_secs_f64() * 1e6 - us as f64);
    }
}

/// What every generator needs to know.
struct Target<'a> {
    addr: SocketAddr,
    expected: &'a HashMap<(String, String), u64>,
    instances: u64,
}

/// `write_all` on a nonblocking socket.
fn write_all(stream: &mut TcpStream, mut buf: &[u8]) -> Result<(), String> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err("write: connection closed".into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20))
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(())
}

/// Phase (a): an open loop at [`RATE`] over one connection per mix.
/// Two generator threads: this one sends each request at its due time,
/// round-robin over the connections; the other waits on every
/// connection at once and reads responses as they arrive. The phase
/// fails if in-flight requests grew from its first quarter to its last.
fn phase_a(t: &Target<'_>, mixes: &mut [Mix], len: Duration) -> Result<Phase, String> {
    let mut writers = Vec::with_capacity(mixes.len());
    let mut readers = Vec::with_capacity(mixes.len());
    for _ in 0..mixes.len() {
        let conn = Conn::open(t.addr)?;
        conn.stream
            .set_nonblocking(true)
            .map_err(io_err("nonblocking"))?;
        writers.push(conn.stream);
        readers.push(conn.reader);
    }
    let pending: Vec<Mutex<HashMap<u64, Sent>>> =
        mixes.iter().map(|_| Mutex::new(HashMap::new())).collect();
    let sending = AtomicBool::new(true);
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + len;

    let (sent, received) = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(t, &mut readers, &pending, &sending, end + DRAIN));
        let mut ph = Phase::default();
        let mut result = Ok(());
        for k in 0u32.. {
            let due = start + interval * k;
            if due >= end {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let now = Instant::now();
            ph.lag.push_ms(now - due);
            let c = k as usize % mixes.len();
            let (kind, mut req) = mixes[c].next();
            set_id(&mut req, u64::from(k) + 1);
            let mut frame = Vec::with_capacity(256);
            if let Err(e) = ic_serve::frame::write_frame(&mut frame, &req.encode()) {
                result = Err(format!("frame: {e}"));
                break;
            }
            ph.encode_us.push(now.elapsed().as_secs_f64() * 1e6);
            let in_flight = {
                let mut p = pending[c].lock().expect("generator threads do not panic");
                p.insert(
                    u64::from(k) + 1,
                    Sent {
                        req,
                        kind,
                        due,
                        sent: now,
                    },
                );
                p.len()
            };
            let quarter = ((due - start).as_secs_f64() / len.as_secs_f64() * 4.0) as usize;
            ph.backlog[quarter.min(3)].push(in_flight as f64);
            ph.sent += 1;
            if let Err(e) = write_all(&mut writers[c], &frame) {
                result = Err(e);
                break;
            }
        }
        sending.store(false, Ordering::Release);
        let received = receiver
            .join()
            .unwrap_or_else(|_| Err("receiver panicked".into()));
        (result.map(|()| ph), received)
    });
    let mut ph = sent?;
    ph.merge(received?);
    let (first, last) = (ph.backlog[0].mean(), ph.backlog[3].mean());
    if last > 2.0 * first + 4.0 {
        return Err(format!(
            "phase (a) backlog grew: {first:.2} in flight in the first quarter, {last:.2} in the last"
        ));
    }
    Ok(ph)
}

/// Phase (a)'s receiving generator: reads every connection until the
/// sender is done and nothing is in flight, or `deadline` passes.
fn receive(
    t: &Target<'_>,
    readers: &mut [FrameReader<TcpStream>],
    pending: &[Mutex<HashMap<u64, Sent>>],
    sending: &AtomicBool,
    deadline: Instant,
) -> Result<Phase, String> {
    let mut poller = Poller::new().map_err(io_err("epoll"))?;
    for (i, r) in readers.iter().enumerate() {
        poller
            .add(r.get_ref().as_raw_fd(), i as u64, Interest::READ)
            .map_err(io_err("epoll add"))?;
    }
    let mut ph = Phase::default();
    let mut events = Vec::new();
    loop {
        for (i, r) in readers.iter_mut().enumerate() {
            while let Some(payload) = r.poll_frame().map_err(|e| format!("read: {e}"))? {
                let t0 = Instant::now();
                let resp = Response::decode(&payload).map_err(|e| format!("decode: {e}"))?;
                let decode = t0.elapsed();
                let sent = pending[i]
                    .lock()
                    .expect("generator threads do not panic")
                    .remove(&resp.id())
                    .ok_or_else(|| format!("response to unknown id {}", resp.id()))?;
                settle(sent, &resp, decode, &mut ph, t);
            }
        }
        let in_flight: usize = pending
            .iter()
            .map(|p| p.lock().expect("generator threads do not panic").len())
            .sum();
        if !sending.load(Ordering::Acquire) && in_flight == 0 {
            return Ok(ph);
        }
        if Instant::now() > deadline {
            ph.failed += in_flight as u64;
            return Ok(ph);
        }
        poller.wait(&mut events, 10).map_err(io_err("epoll wait"))?;
    }
}

/// Phase (b) on one connection: `WINDOW` requests in flight until `end`.
fn closed_loop(t: &Target<'_>, mix: &mut Mix, end: Instant) -> Result<Phase, String> {
    let mut conn = Conn::open(t.addr)?;
    let mut ph = Phase {
        closed: true,
        ..Phase::default()
    };
    loop {
        let now = Instant::now();
        if now < end && conn.pending.len() < WINDOW {
            let (kind, req) = mix.next();
            conn.send(kind, req, now)?;
            ph.sent += 1;
            continue;
        }
        if conn.pending.is_empty() {
            break;
        }
        match conn.recv(Some(DRAIN))? {
            Some((resp, decode)) => {
                let sent = conn
                    .pending
                    .remove(&resp.id())
                    .ok_or_else(|| format!("response to unknown id {}", resp.id()))?;
                settle(sent, &resp, decode, &mut ph, t);
            }
            None => {
                ph.failed += conn.pending.len() as u64;
                break;
            }
        }
    }
    Ok(ph)
}

/// Runs `f` once per generator (at most `nproc`), each on its own
/// thread with its own mix, and merges what they measured.
fn generators(
    mixes: &mut [Mix],
    f: impl Fn(usize, &mut Mix) -> Result<Phase, String> + Sync,
) -> Result<Phase, String> {
    let results: Vec<Result<Phase, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = mixes
            .iter_mut()
            .enumerate()
            .map(|(i, mix)| {
                let f = &f;
                s.spawn(move || f(i, mix))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator panicked".into()))
            })
            .collect()
    });
    let mut total = Phase::default();
    for r in results {
        total.merge(r?);
    }
    Ok(total)
}

/// The prepared data dir's bytes: a snapshot of the lake plus a WAL of
/// patch records.
struct Prepared {
    schema: Schema,
    snapshot: Vec<u8>,
    wal: Vec<u8>,
}

fn prepare(lake: &Lake, seed: u64, scratch: &Scratch) -> Result<Prepared, String> {
    let dir = scratch.sub("prepared");
    std::fs::create_dir_all(&dir).map_err(io_err("prepared dir"))?;
    let snap = encode_snapshot(
        0,
        &lake.catalog,
        lake.instances.iter().map(|i| (i.name(), i)),
    );
    std::fs::write(dir.join("catalog.snap"), snap).map_err(io_err("write snapshot"))?;
    {
        let storage = FileStorage::open(&dir).map_err(io_err("open storage"))?;
        let catalog = ServeCatalog::durable(lake.catalog.schema().clone(), Box::new(storage))
            .map_err(cat_err)?;
        let mut patches = Patches::new(seed ^ 0x9E9, lake, &patched_names());
        for _ in 0..PREP_PATCHES {
            let cell = patches.next();
            catalog
                .patch(&cell.name, |c| Ok(cell.delta(c)))
                .map_err(cat_err)?;
        }
    }
    Ok(Prepared {
        schema: lake.catalog.schema().clone(),
        snapshot: std::fs::read(dir.join("catalog.snap")).map_err(io_err("read snapshot"))?,
        wal: std::fs::read(dir.join("catalog.wal")).map_err(io_err("read wal"))?,
    })
}

/// Copies the prepared files into a fresh data dir (not timed).
fn lay_out(p: &Prepared, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(io_err("data dir"))?;
    std::fs::write(dir.join("catalog.snap"), &p.snapshot).map_err(io_err("write snapshot"))?;
    std::fs::write(dir.join("catalog.wal"), &p.wal).map_err(io_err("write wal"))
}

fn recover(p: &Prepared, dir: &Path) -> Result<ServeCatalog, String> {
    let storage = FileStorage::open(dir).map_err(io_err("open storage"))?;
    ServeCatalog::durable(p.schema.clone(), Box::new(storage)).map_err(cat_err)
}

/// Blocking request on a plain connection (set-up and trace passes).
fn call(conn: &mut Conn, kind: Kind, req: Request) -> Result<(Response, Sent), String> {
    let id = conn.next_id;
    conn.send(kind, req, Instant::now())?;
    let (resp, _) = conn.recv(None)?.ok_or("connection closed")?;
    let sent = conn.pending.remove(&id).ok_or("response out of order")?;
    Ok((resp, sent))
}

/// One set-up: durable reopen, `Server::start`, then a warm-up that
/// forces the first index sync and fills the sigcache for every
/// instance. Returns the handle, the recovery time and the total.
fn start(p: &Prepared, dir: &Path) -> Result<(ServerHandle, Duration, Duration), String> {
    lay_out(p, dir)?;
    let t = Instant::now();
    let catalog = recover(p, dir)?;
    let recovered = t.elapsed();
    let cfg = ServerConfig {
        runtime: Runtime::EventLoop,
        workers: nproc(),
        ..ServerConfig::default()
    };
    let handle =
        Server::start(Arc::new(catalog), "127.0.0.1:0", cfg).map_err(io_err("server start"))?;
    let mut conn = Conn::open(handle.local_addr())?;
    let search = Request::Search {
        id: 0,
        query: name(0, 0),
        k: K,
        lambda: None,
        budget_ms: None,
    };
    let mut warm = vec![(Kind::Search, search)];
    for c in 0..CLUSTERS {
        for v in 0..VERSIONS {
            warm.push((
                Kind::Compare,
                Request::Compare {
                    id: 0,
                    left: name(c, v),
                    right: name(c, (v + 1) % VERSIONS),
                    algo: Algo::Signature,
                    lambda: None,
                    budget_ms: None,
                },
            ));
        }
    }
    for (kind, req) in warm {
        let (resp, _) = call(&mut conn, kind, req)?;
        if matches!(resp, Response::Error { .. }) {
            return Err(format!("warm-up failed: {resp:?}"));
        }
    }
    Ok((handle, recovered, t.elapsed()))
}

fn mixes(seed: u64, lake: &Lake) -> Vec<Mix> {
    let names = patched_names();
    let n = nproc().min(names.len());
    (0..n)
        .map(|g| {
            let own: Vec<String> = names.iter().skip(g).step_by(n).cloned().collect();
            Mix {
                rng: Rng::new(seed ^ (0xA11CE + g as u64)),
                patches: Patches::new(seed ^ (0xB0B + g as u64), lake, &own),
            }
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let lake = generate_lake(&LakeParams {
        clusters: CLUSTERS,
        versions_per_cluster: VERSIONS,
        rows: ROWS,
        arity: ARITY,
        seed: args.seed,
        ..LakeParams::default()
    });
    let instances = lake.instances.len() as u64;
    let scratch = Scratch::new()?;
    let prepared = prepare(&lake, args.seed, &scratch)?;
    let mut out = Outcome::default();
    out.param(
        "lake",
        format!("{CLUSTERS} clusters x {VERSIONS} versions x {ROWS} rows, arity {ARITY} = {instances} instances"),
    );
    out.param(
        "mix",
        "80% compare, 10% search k=10, 10% patch on 8 instances",
    );
    out.param(
        "prepared",
        format!(
            "snapshot {} B + WAL {} B ({PREP_PATCHES} patches)",
            prepared.snapshot.len(),
            prepared.wal.len()
        ),
    );
    out.param("workers", nproc());
    out.param("rate_a", RATE);
    out.param("window_b", WINDOW);

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut recovers = Vec::with_capacity(SETUP_REPS);
    let mut handle = None;
    for i in 0..SETUP_REPS {
        if let Some(h) = handle.take() {
            ServerHandle::shutdown(h);
        }
        let (h, rec, total) = start(&prepared, &scratch.sub(&format!("data-{i}")))?;
        recovers.push(rec);
        setup.push(total);
        handle = Some(h);
    }
    let handle = handle.expect("at least one set-up");
    let expected = expected_scores(&handle)?;
    let target = Target {
        addr: handle.local_addr(),
        expected: &expected,
        instances,
    };
    let mut mixes = mixes(args.seed, &lake);
    out.param("generators", mixes.len());

    if args.trace {
        let r = traced(
            args, &target, &mut mixes, &handle, &prepared, &lake, &scratch, out, &recovers,
        );
        handle.shutdown();
        return r;
    }

    let a = phase_a(&target, &mut mixes, share(args, 0.6))?;
    let b_start = Instant::now();
    let b = generators(&mut mixes, |_, mix| {
        closed_loop(&target, mix, b_start + share(args, 0.4))
    })?;
    let b_wall = b_start.elapsed();
    handle.shutdown();

    out.param("phase_a", a.line());
    out.param("phase_b", b.line());
    out.param("gen_lag_ms_p99", a.lag.pct(99.0));
    for ph in [&a, &b] {
        out.attempted += ph.sent;
        out.failed += ph.failed + ph.refused + ph.wrong;
        out.wrong += ph.wrong;
    }
    let rps_sat = b.ok as f64 / b_wall.as_secs_f64();
    out.metric(Metric::sampled(
        "setup_s",
        "s",
        median_s(&setup),
        setup.len(),
    ));
    out.metric(Metric::new("peak_rss_mb", "MiB", peak_rss_mb()));
    out.metric(Metric::pct("req_ms_p50", &a.latency, 50.0));
    out.metric(Metric::pct("req_ms_p90", &a.latency, 90.0));
    out.metric(Metric::pct("req_ms_p99", &a.latency, 99.0));
    out.metric(Metric::pct("patch_ms_p50", &a.patch_latency, 50.0));
    out.metric(Metric::pct("patch_ms_p90", &a.patch_latency, 90.0));
    out.metric(Metric::sampled("rps_sat", "req/s", rps_sat, b.ok as usize));
    out.metric(Metric::pct("req_closed_ms_p50", &b.latency, 50.0));
    out.metric(Metric::pct("patch_closed_ms_p50", &b.patch_latency, 50.0));
    out.metric(Metric::sampled("work_per_s", "1/s", rps_sat, b.ok as usize));
    out.metric(Metric::pct("op_ms", &b.latency, 50.0));
    Ok(out)
}

/// One request in the traced pass, split at the generator: encode, the
/// round trip (holding the server's reported execution time as a child),
/// decode.
fn traced_request(
    conn: &mut Conn,
    kind: Kind,
    req: Request,
    tr: Option<&mut Tracer>,
    t: &Target<'_>,
) -> Result<bool, String> {
    let Some(tr) = tr else {
        let (resp, sent) = call(conn, kind, req)?;
        return Ok(matches!(
            judge(&sent.req, &resp, t.expected, t.instances),
            Verdict::Ok { .. }
        ));
    };
    tr.next_op();
    let mut req = req;
    let id = conn.next_id;
    conn.next_id += 1;
    set_id(&mut req, id);
    let frame = tr.time("serve", "Request::encode", || {
        let mut frame = Vec::with_capacity(256);
        ic_serve::frame::write_frame(&mut frame, &req.encode()).map(|()| frame)
    });
    let frame = frame.map_err(io_err("frame"))?;
    let rt = tr.begin("serve", "round_trip");
    conn.stream.write_all(&frame).map_err(io_err("write"))?;
    conn.stream
        .set_read_timeout(None)
        .map_err(io_err("timeout"))?;
    let payload = conn.reader.next_frame().map_err(|e| format!("read: {e}"))?;
    tr.end(rt);
    let resp = tr.time("serve", "Response::decode", || Response::decode(&payload));
    let resp = resp.map_err(|e| format!("decode: {e}"))?;
    let verdict = judge(&req, &resp, t.expected, t.instances);
    if let Verdict::Ok { exec_us: Some(us) } = verdict {
        let (layer, name) = match kind {
            Kind::Search => ("index", "server.search_exec"),
            _ => ("core", "server.compare_exec"),
        };
        let exec = Duration::from_micros(us).min(tr.duration(rt));
        tr.child(rt, layer, name, Duration::ZERO, exec);
    }
    Ok(matches!(verdict, Verdict::Ok { .. }))
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    t: &Target<'_>,
    mixes: &mut [Mix],
    handle: &ServerHandle,
    prepared: &Prepared,
    lake: &Lake,
    scratch: &Scratch,
    mut out: Outcome,
    recovers: &[Duration],
) -> Result<Outcome, String> {
    // The open loop, for generator lag and the outside-execution time.
    let a = phase_a(t, mixes, share(args, 0.4))?;
    out.param("phase_a", a.line());
    out.attempted += a.sent;
    out.failed += a.failed + a.refused + a.wrong;
    out.wrong += a.wrong;

    // One request at a time, every other one traced.
    let mut tr = Tracer::new();
    let mut conn = Conn::open(t.addr)?;
    let mut cost = Overhead::default();
    let mix = &mut mixes[0];
    let end = Instant::now() + share(args, 0.4);
    let mut n = 0u64;
    while Instant::now() < end || n % 2 == 1 {
        let traced = n % 2 == 1;
        n += 1;
        out.attempted += 1;
        let (kind, req) = mix.next();
        let start = Instant::now();
        let ok = traced_request(&mut conn, kind, req, traced.then_some(&mut tr), t)?;
        cost.add(traced, start.elapsed());
        if !ok {
            out.failed += 1;
        }
    }
    let mut traced_wall = cost.traced_wall();
    let mut ops = n / 2;

    let (resp, _) = call(&mut conn, Kind::Compare, Request::Stats { id: 0 })?;
    let Response::Stats { stats, .. } = resp else {
        return Err(format!("stats answered {resp:?}"));
    };
    let label_wall = |label: &str| {
        stats
            .spans
            .iter()
            .find(|s| s.label == label)
            .map_or(0.0, |s| s.wall_us as f64 / s.reports.max(1) as f64)
    };
    let cache = handle.sig_cache().stats();
    let conns = handle.conn_stats();

    // The store layer alone: the same patch ops through
    // `ServeCatalog::patch` on a durable catalog of its own.
    let start = Instant::now();
    let dir = scratch.sub("store");
    lay_out(prepared, &dir)?;
    let catalog = tr.time("store", "ServeCatalog::durable", || recover(prepared, &dir))?;
    let wal_path = dir.join("catalog.wal");
    let wal_before = std::fs::metadata(&wal_path).map_or(0, |m| m.len());
    let mut patches = Patches::new(args.seed ^ 0x5707E, lake, &patched_names());
    let mut applies = Samples::default();
    let end = Instant::now() + share(args, 0.15);
    while Instant::now() < end || applies.len() % 2 == 1 {
        tr.next_op();
        let cell = patches.next();
        let id = tr.begin("store", "ServeCatalog::patch");
        let r = catalog.patch(&cell.name, |c| Ok(cell.delta(c)));
        tr.end(id);
        applies.push_ms(tr.duration(id));
        out.attempted += 1;
        if r.is_err() {
            out.failed += 1;
        }
    }
    traced_wall += start.elapsed();
    ops += applies.len() as u64;
    let wal_after = std::fs::metadata(&wal_path).map_or(0, |m| m.len());

    let responses = (a.ok + a.failed + a.refused + a.wrong).max(1) as f64;
    out.metric(Metric::sampled(
        "serve.encode_us",
        "us",
        a.encode_us.mean(),
        a.encode_us.len(),
    ));
    out.metric(Metric::sampled(
        "serve.decode_us",
        "us",
        a.decode_us.mean(),
        a.decode_us.len(),
    ));
    out.metric(Metric::sampled(
        "serve.exec_us_p50",
        "us",
        a.exec_us.median(),
        a.exec_us.len(),
    ));
    out.metric(Metric::sampled(
        "serve.outside_exec_us_p50",
        "us",
        a.outside_us.median(),
        a.outside_us.len(),
    ));
    out.metric(Metric::sampled(
        "serve.outside_exec_us_p99",
        "us",
        a.outside_us.pct(99.0),
        a.outside_us.len(),
    ));
    out.metric(Metric::new(
        "serve.sigcache_hit_rate",
        "ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    ));
    out.metric(Metric::new(
        "serve.sigcache_invalidations",
        "count",
        cache.invalidations as f64,
    ));
    out.metric(Metric::new(
        "serve.coalesced_frames_per_resp",
        "ratio",
        conns.coalesced_frames as f64 / responses,
    ));
    out.metric(Metric::new(
        "serve.label_wall_us.compare",
        "us",
        label_wall(COMPARE_LABEL),
    ));
    out.metric(Metric::new(
        "serve.label_wall_us.search",
        "us",
        label_wall(SEARCH_LABEL),
    ));
    out.metric(Metric::sampled(
        "serve.gen_lag_ms_p99",
        "ms",
        a.lag.pct(99.0),
        a.lag.len(),
    ));
    let mut rec = Samples::default();
    for r in recovers {
        rec.push_ms(*r);
    }
    out.metric(Metric::sampled(
        "store.recover_ms",
        "ms",
        rec.median(),
        rec.len(),
    ));
    out.metric(Metric::sampled(
        "store.apply_ms_p50",
        "ms",
        applies.median(),
        applies.len(),
    ));
    out.metric(Metric::new(
        "store.wal_bytes_per_patch",
        "bytes",
        (wal_after - wal_before) as f64 / applies.len().max(1) as f64,
    ));
    out.metric(Metric::new("obs.trace_overhead_pct", "%", cost.pct()));
    crate::trace::finish(args, &tr, traced_wall, ops, &mut out)?;
    Ok(out)
}
