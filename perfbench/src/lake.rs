//! `lake`: top-10 search over a ~10k-instance catalog index, closed
//! loop, one caller, with a single-instance update as every tenth op.
//!
//! The lake is `generate_lake` sized as in `bench_search`: 625 clusters
//! × 16 versions of 12 rows, so each query has 15 true near-duplicates.
//! Queries rotate across the lake. An update changes one cell of one
//! instance through `CatalogIndex::apply_delta`, and the query right
//! after it searches with the updated instance; the next update puts the
//! cell back, so the lake stays the generated one.

use crate::stats::{median_s, peak_rss_mb, Metric, Rng, Samples};
use crate::trace::{Overhead, Tracer};
use crate::{share, Args, Outcome};
use ic_core::{Comparator, Delta, DeltaOp};
use ic_datagen::{generate_lake, Lake, LakeParams};
use ic_index::{CatalogIndex, SearchOptions, SearchOutcome};
use ic_model::{AttrId, Instance, TupleId, Value};
use ic_obs::{MemorySink, Sink};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLUSTERS: usize = 625;
const VERSIONS: usize = 16;
const ROWS: usize = 12;
const ARITY: usize = 4;
const K: usize = 10;
/// One op in this many is an update.
const UPDATE_EVERY: u64 = 10;
const SETUP_REPS: usize = 9;
/// Queries checked against a brute-force scan before timing.
const PROBES: usize = 3;
const UPDATE_VALUES: usize = 8;

struct Input {
    lake: Lake,
    values: Vec<Value>,
}

fn input(seed: u64) -> Input {
    let mut lake = generate_lake(&LakeParams {
        clusters: CLUSTERS,
        versions_per_cluster: VERSIONS,
        rows: ROWS,
        arity: ARITY,
        seed,
        ..LakeParams::default()
    });
    let values = (0..UPDATE_VALUES)
        .map(|i| lake.catalog.konst(&format!("perfbench-update-{i}")))
        .collect();
    Input { lake, values }
}

/// The update stream: a fresh cell change on a random instance, then its
/// undo.
struct Updates {
    rng: Rng,
    undo: Option<(usize, TupleId, AttrId, Value)>,
}

impl Updates {
    /// The next update as `(instance slot, delta)`.
    fn next(&mut self, pins: &[Arc<Instance>], values: &[Value]) -> (usize, Delta) {
        let (slot, id, attr, value) = match self.undo.take() {
            Some(undo) => undo,
            None => {
                let slot = self.rng.below(pins.len());
                let tuples = pins[slot].tuples(ic_model::RelId(0));
                let t = &tuples[self.rng.below(tuples.len())];
                let attr = AttrId(self.rng.below(ARITY) as u16);
                let old = t.value(attr);
                let value = values[self.rng.below(values.len())];
                self.undo = Some((slot, t.id(), attr, old));
                (slot, t.id(), attr, value)
            }
        };
        (slot, Delta::new(vec![DeltaOp::Modify { id, attr, value }]))
    }
}

/// The comparator queries run with: one pool thread, the one caller's.
/// On a small box whose second core comes and goes, a parallel compare of
/// 12-row instances swings between two speeds from second to second;
/// `pairs` is the workload that measures the pool.
fn comparator<'c>(
    lake: &'c Lake,
    sink: Option<&Arc<MemorySink>>,
) -> Result<Comparator<'c>, String> {
    let mut b = Comparator::new(&lake.catalog).threads(1);
    if let Some(sink) = sink {
        b = b.observer("lake", Arc::clone(sink) as Arc<dyn Sink>);
    }
    b.build().map_err(|e| e.to_string())
}

fn sync(pins: &[Arc<Instance>]) -> (CatalogIndex, ic_index::SyncStats) {
    let index = CatalogIndex::new(&ic_core::SignatureConfig::default());
    let stats = index.sync(pins.iter().map(|p| (p.name(), p)));
    (index, stats)
}

/// Recall@K of `out` against a scan of every entry, scored with the same
/// comparator; 1.0 is required.
fn recall(
    index: &CatalogIndex,
    pins: &[Arc<Instance>],
    cmp: &Comparator<'_>,
    query: &Instance,
    out: &SearchOutcome,
) -> Result<f64, String> {
    let qm = cmp.build_maps(query).map_err(|e| e.to_string())?;
    let mut brute: Vec<(&str, f64)> = Vec::with_capacity(pins.len());
    for pin in pins {
        let maps = index
            .entry_maps(pin.name(), pin)
            .ok_or_else(|| format!("{} is not indexed at its current pin", pin.name()))?;
        let o = cmp
            .signature_with_maps(query, pin, Some(&qm), Some(&maps))
            .map_err(|e| e.to_string())?;
        brute.push((pin.name(), o.best.score()));
    }
    brute.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let found = out
        .hits
        .iter()
        .filter(|h| {
            brute[..K]
                .iter()
                .any(|(n, s)| *n == h.name && s.to_bits() == h.score.to_bits())
        })
        .count();
    Ok(found as f64 / K as f64)
}

/// Cheap per-query check: a full top-K over the whole index, and after
/// an update, the updated instance found with its exact self score.
fn plausible(out: &SearchOutcome, total: usize, updated: Option<(&Instance, f64)>) -> bool {
    out.hits.len() == K
        && out.total == total
        && updated.is_none_or(|(inst, score)| {
            out.hits
                .iter()
                .any(|h| h.name == inst.name() && h.score.to_bits() == score.to_bits())
        })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let Input { lake, values } = input(args.seed);
    let mut pins: Vec<Arc<Instance>> = lake.instances.iter().cloned().map(Arc::new).collect();
    let mut out = Outcome::default();
    out.param(
        "lake",
        format!(
            "{CLUSTERS} clusters x {VERSIONS} versions x {ROWS} rows, arity {ARITY} = {} instances",
            pins.len()
        ),
    );
    out.param("k", K);
    out.param("update_every", UPDATE_EVERY);

    if args.trace {
        return traced(args, &lake, &values, pins, out);
    }
    let cmp = comparator(&lake, None)?;

    // Set-up: the index sync, several times.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut index = None;
    for _ in 0..SETUP_REPS {
        drop(index.take());
        let t = Instant::now();
        let (ix, _) = sync(&pins);
        setup.push(t.elapsed());
        index = Some(ix);
    }
    let index = index.expect("at least one set-up");
    let opts = SearchOptions::default();
    let mut updates = Updates {
        rng: Rng::new(args.seed),
        undo: None,
    };

    // Recall probes before timing, the last one right after an update.
    let mut probes: Vec<Arc<Instance>> = (0..PROBES)
        .map(|p| Arc::clone(&pins[lake.index_of(p * (CLUSTERS / PROBES), p % VERSIONS)]))
        .collect();
    for step in 0..2 {
        let (slot, delta) = updates.next(&pins, &values);
        let (pin, _) = index
            .apply_delta(pins[slot].name(), &delta)
            .map_err(|e| e.to_string())?;
        pins[slot] = pin;
        if step == 0 {
            probes.push(Arc::clone(&pins[slot]));
            for q in &probes {
                let o = index.topk(q, K, &cmp, &opts).map_err(|e| e.to_string())?;
                let r = recall(&index, &pins, &cmp, q, &o)?;
                out.attempted += 1;
                if r != 1.0 {
                    out.failed += 1;
                    out.wrong += 1;
                }
            }
        }
    }
    out.param("recall_probes", probes.len());

    let mut topk = Samples::default();
    let mut updates_ms = Samples::default();
    // Ops per second over each block of `UPDATE_EVERY` ops.
    let mut block_rate = Samples::default();
    let mut block = Instant::now();
    let mut compared = 0usize;
    let phase = Instant::now();
    let end = phase + share(args, 1.0);
    let mut n = 0u64;
    let mut q = 0usize;
    let mut after_update: Option<(Arc<Instance>, f64)> = None;
    while Instant::now() < end {
        n += 1;
        out.attempted += 1;
        if n.is_multiple_of(UPDATE_EVERY) {
            block_rate.push(UPDATE_EVERY as f64 / block.elapsed().as_secs_f64());
            block = Instant::now();
            let (slot, delta) = updates.next(&pins, &values);
            let t = Instant::now();
            let r = index.apply_delta(pins[slot].name(), &delta);
            updates_ms.push_ms(t.elapsed());
            match r {
                Ok((pin, _)) => {
                    let own = cmp.signature(&pin, &pin).map_err(|e| e.to_string())?;
                    after_update = Some((Arc::clone(&pin), own.best.score()));
                    pins[slot] = pin;
                }
                Err(_) => out.failed += 1,
            }
            continue;
        }
        let updated = after_update.take();
        let query = match &updated {
            Some((pin, _)) => Arc::clone(pin),
            None => {
                q += 1;
                Arc::clone(&pins[(q * 997) % pins.len()])
            }
        };
        let t = Instant::now();
        let r = index.topk(&query, K, &cmp, &opts);
        topk.push_ms(t.elapsed());
        match r {
            Ok(o) if plausible(&o, pins.len(), updated.as_ref().map(|(p, s)| (&**p, *s))) => {
                compared += o.compared;
            }
            Ok(_) => {
                out.failed += 1;
                out.wrong += 1;
            }
            Err(_) => out.failed += 1,
        }
    }
    let wall = phase.elapsed();
    out.param(
        "compared_frac",
        compared as f64 / (topk.len().max(1) * pins.len()) as f64,
    );

    let ops_per_s = n as f64 / wall.as_secs_f64();
    out.metric(Metric::sampled(
        "setup_s",
        "s",
        median_s(&setup),
        setup.len(),
    ));
    out.metric(Metric::new("peak_rss_mb", "MiB", peak_rss_mb()));
    out.metric(Metric::pct("topk_ms_p50", &topk, 50.0));
    out.metric(Metric::pct("topk_ms_p90", &topk, 90.0));
    out.metric(Metric::pct("topk_ms_p99", &topk, 99.0));
    out.metric(Metric::pct("index_update_ms_p50", &updates_ms, 50.0));
    out.metric(Metric::pct("index_update_ms_p90", &updates_ms, 90.0));
    out.metric(Metric::sampled("ops_per_s", "1/s", ops_per_s, n as usize));
    out.metric(Metric::sampled(
        "work_per_s",
        "1/s",
        block_rate.pct(10.0),
        block_rate.len(),
    ));
    out.metric(Metric::pct("op_ms", &topk, 90.0));
    Ok(out)
}

/// The traced run: the sync, then the op loop with every other block of
/// ops traced: an observed comparator plus the benchmark's spans.
fn traced(
    args: &Args,
    lake: &Lake,
    values: &[Value],
    mut pins: Vec<Arc<Instance>>,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let sink = Arc::new(MemorySink::new());
    let plain = comparator(lake, None)?;
    let observed = comparator(lake, Some(&sink))?;
    let mut tr = Tracer::new();

    let sync_start = Instant::now();
    let id = tr.begin("index", "CatalogIndex::sync");
    let (index, stats) = sync(&pins);
    tr.end(id);
    let mut traced_wall = sync_start.elapsed();
    let sync_ms = tr.duration(id).as_secs_f64() * 1e3;

    let opts = SearchOptions::default();
    let mut updates = Updates {
        rng: Rng::new(args.seed),
        undo: None,
    };
    let mut topk = Samples::default();
    let mut prefilter = Samples::default();
    let mut applies = Samples::default();
    let (mut compared, mut total, mut hits) = (0usize, 0usize, 0usize);
    // Blocks of ops alternate between the plain and the observed
    // comparator; each block starts with an update and then searches with
    // the updated instance.
    let mut cost = Overhead::default();
    let end = Instant::now() + share(args, 1.0);
    let mut n = 0u64;
    let mut q = 0usize;
    let mut next_query: Option<Arc<Instance>> = None;
    while Instant::now() < end || !n.is_multiple_of(2 * UPDATE_EVERY) {
        let traced = (n / UPDATE_EVERY) % 2 == 1;
        let update = n.is_multiple_of(UPDATE_EVERY);
        n += 1;
        out.attempted += 1;
        if traced {
            tr.next_op();
        }
        if update {
            let (slot, delta) = updates.next(&pins, values);
            let t = Instant::now();
            let id = traced.then(|| tr.begin("index", "CatalogIndex::apply_delta"));
            let r = index.apply_delta(pins[slot].name(), &delta);
            if let Some(id) = id {
                tr.end(id);
                applies.push_ms(tr.duration(id));
            }
            cost.add(traced, t.elapsed());
            match r {
                Ok((pin, _)) => {
                    next_query = Some(Arc::clone(&pin));
                    pins[slot] = pin;
                }
                Err(_) => out.failed += 1,
            }
            continue;
        }
        let query = next_query.take().unwrap_or_else(|| {
            q += 1;
            Arc::clone(&pins[(q * 997) % pins.len()])
        });
        let t = Instant::now();
        if !traced {
            let r = index.topk(&query, K, &plain, &opts);
            cost.add(false, t.elapsed());
            if !r.is_ok_and(|o| plausible(&o, pins.len(), None)) {
                out.failed += 1;
            }
            continue;
        }
        let id = tr.begin("index", "CatalogIndex::topk");
        let r = index.topk(&query, K, &observed, &opts);
        tr.end(id);
        let reports = tr.time("obs", "MemorySink::take", || sink.take());
        cost.add(true, t.elapsed());
        let mut inner = Duration::ZERO;
        for rep in &reports {
            tr.attach(id, &rep.spans);
            inner += rep.spans.iter().map(|s| s.total).sum::<Duration>();
        }
        topk.push_ms(tr.duration(id));
        prefilter.push_ms(tr.duration(id).saturating_sub(inner));
        match r {
            Ok(o) if plausible(&o, pins.len(), None) => {
                compared += o.compared;
                total += o.total;
                hits += o.hits.len();
            }
            _ => out.failed += 1,
        }
    }
    traced_wall += cost.traced_wall();

    out.metric(Metric::new("index.sync_ms", "ms", sync_ms));
    out.metric(Metric::new("index.sync_added", "count", stats.added as f64));
    out.metric(Metric::sampled(
        "index.topk_ms",
        "ms",
        topk.mean(),
        topk.len(),
    ));
    out.metric(Metric::sampled(
        "index.prefilter_ms",
        "ms",
        prefilter.mean(),
        prefilter.len(),
    ));
    out.metric(Metric::new(
        "index.compared_frac",
        "ratio",
        compared as f64 / total.max(1) as f64,
    ));
    out.metric(Metric::new(
        "index.hit_yield",
        "ratio",
        hits as f64 / compared.max(1) as f64,
    ));
    out.metric(Metric::sampled(
        "index.apply_delta_ms",
        "ms",
        applies.mean(),
        applies.len(),
    ));
    out.metric(Metric::new("obs.trace_overhead_pct", "%", cost.pct()));
    crate::trace::finish(args, &tr, traced_wall, n / 2 + 1, &mut out)?;
    Ok(out)
}
