//! `pairs`: the library's compare and delta re-score, closed loop, one
//! caller, the pool at `nproc` threads.
//!
//! A fixed rotation of ic-datagen source/target pairs in the low
//! thousands of rows: modCell 5% on Doctors (labeled nulls), Bikeshare
//! and GitHub (arity 19, completion-heavy), and one
//! addRandomAndRedundant Doctors pair compared n-to-m. Phase one runs
//! from-scratch `Comparator::compare`s; phase two runs 1-tuple
//! `CompareCache::compare_delta`s on primed caches. Each delta changes
//! one cell and the next delta on the same pair puts it back, so the
//! instances stay the generated ones however many ops a run completes.

use crate::stats::{median_s, peak_rss_mb, Metric, Rng, Samples};
use crate::trace::{Overhead, Tracer};
use crate::{nproc, share, Args, Outcome};
use ic_core::{Comparator, CompareCache, Delta, DeltaOp, MatchMode, Pair};
use ic_datagen::{add_random_and_redundant, mod_cell, Dataset, Scenario};
use ic_model::{AttrId, TupleId, Value};
use ic_obs::{MemorySink, Sink};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Every n-th round of deltas (one per pair) is checked against
/// from-scratch compares; odd, so changes and undos both get checked.
const DELTA_CHECK_EVERY: u64 = 7;
/// Constants interned per pair for delta values.
const DELTA_VALUES: usize = 8;

struct PairInput {
    label: &'static str,
    sc: Scenario,
    mode: MatchMode,
    /// Replacement constants, interned before any comparator borrows the
    /// catalog.
    values: Vec<Value>,
    ids: Vec<TupleId>,
    arity: usize,
    /// Score bits and pairs of a 1-thread compare, taken before timing.
    reference: Option<(u64, Vec<Pair>)>,
}

fn inputs(seed: u64) -> Vec<PairInput> {
    let specs: [(&str, Scenario, MatchMode); 4] = [
        (
            "doctors_modcell",
            mod_cell(Dataset::Doctors, 1_500, 0.05, seed),
            MatchMode::one_to_one(),
        ),
        (
            "bikeshare_modcell",
            mod_cell(Dataset::Bikeshare, 1_500, 0.05, seed ^ 0xB1),
            MatchMode::one_to_one(),
        ),
        (
            "github_modcell",
            mod_cell(Dataset::GitHub, 1_000, 0.05, seed ^ 0x61),
            MatchMode::one_to_one(),
        ),
        (
            "doctors_rnd_red_ntom",
            add_random_and_redundant(Dataset::Doctors, 1_000, 0.05, 0.10, 0.10, seed ^ 0xD0),
            MatchMode::general(),
        ),
    ];
    specs
        .into_iter()
        .map(|(label, mut sc, mode)| {
            let values = (0..DELTA_VALUES)
                .map(|i| sc.catalog.konst(&format!("perfbench-delta-{i}")))
                .collect();
            let ids = sc.target.tuples(sc.rel).iter().map(|t| t.id()).collect();
            let arity = sc.catalog.schema().relation(sc.rel).arity();
            PairInput {
                label,
                sc,
                mode,
                values,
                ids,
                arity,
                reference: None,
            }
        })
        .collect()
}

fn comparators<'c>(
    inputs: &'c [PairInput],
    threads: usize,
    sink: Option<&Arc<MemorySink>>,
) -> Result<Vec<Comparator<'c>>, String> {
    inputs
        .iter()
        .map(|p| {
            let mut b = Comparator::new(&p.sc.catalog).threads(threads).mode(p.mode);
            if let Some(sink) = sink {
                b = b.observer("pairs", Arc::clone(sink) as Arc<dyn Sink>);
            }
            b.build()
                .map_err(|e| format!("{}: comparator: {e}", p.label))
        })
        .collect()
}

/// Cache priming: both sides inserted and compared once, which builds
/// their signature maps.
fn prime<'a>(
    cmps: &'a [Comparator<'a>],
    inputs: &[PairInput],
) -> Result<Vec<CompareCache<'a>>, String> {
    cmps.iter()
        .zip(inputs)
        .map(|(cmp, p)| {
            let mut cache = cmp.compare_cache();
            cache
                .insert_owned("source", p.sc.source.clone())
                .and_then(|()| cache.insert_owned("target", p.sc.target.clone()))
                .and_then(|()| cache.compare("source", "target").map(drop))
                .map_err(|e| format!("{}: priming: {e}", p.label))?;
            Ok(cache)
        })
        .collect()
}

/// The delta stream of one pair: a fresh cell change, then its undo.
#[derive(Default)]
struct DeltaStream {
    undo: Option<(TupleId, AttrId, Value)>,
}

impl DeltaStream {
    fn next(&mut self, p: &PairInput, cache: &CompareCache<'_>, rng: &mut Rng) -> Delta {
        let (id, attr, value) = match self.undo.take() {
            Some(undo) => undo,
            None => {
                let id = p.ids[rng.below(p.ids.len())];
                let attr = AttrId(rng.below(p.arity) as u16);
                let inst = cache.instance("target").expect("primed");
                let old = inst.tuple(id).expect("ids are stable").value(attr);
                let mut value = p.values[rng.below(p.values.len())];
                if value == old {
                    value = p.values[(rng.below(p.values.len() - 1) + 1) % p.values.len()];
                }
                self.undo = Some((id, attr, old));
                (id, attr, value)
            }
        };
        Delta::new(vec![DeltaOp::Modify { id, attr, value }])
    }
}

fn same(reference: &(u64, Vec<Pair>), score: f64, pairs: &[Pair]) -> bool {
    reference.0 == score.to_bits() && reference.1 == pairs
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let threads = nproc();
    let mut inputs = inputs(args.seed);
    let mut out = Outcome::default();
    out.param("pool_threads", threads);
    for p in &inputs {
        out.param(
            &format!("pair.{}", p.label),
            format!(
                "{} + {} tuples, arity {}",
                p.sc.source.num_tuples(),
                p.sc.target.num_tuples(),
                p.arity
            ),
        );
    }

    // References at one pool thread, before any timing.
    let refs: Vec<(u64, Vec<Pair>)> = {
        let cmps = comparators(&inputs, 1, None)?;
        cmps.iter()
            .zip(&inputs)
            .map(|(cmp, p)| {
                let c = cmp
                    .compare(&p.sc.source, &p.sc.target)
                    .map_err(|e| format!("{}: reference: {e}", p.label))?;
                Ok((c.score().to_bits(), c.outcome.best.pairs))
            })
            .collect::<Result<_, String>>()?
    };
    for (p, r) in inputs.iter_mut().zip(refs) {
        p.reference = Some(r);
    }
    let inputs = inputs;

    if args.trace {
        return traced(args, &inputs, out);
    }

    // Set-up: comparator build and cache priming, several times.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let cmps = comparators(&inputs, threads, None)?;
        let caches = prime(&cmps, &inputs)?;
        setup.push(t.elapsed());
        drop(caches);
    }
    let t = Instant::now();
    let cmps = comparators(&inputs, threads, None)?;
    let mut caches = prime(&cmps, &inputs)?;
    setup.push(t.elapsed());

    // Phase 1: from-scratch compares, every result checked. A rotation
    // (one compare of each pair) is the unit the end-to-end figures use,
    // so the four pairs' different costs do not make a multi-modal
    // distribution whose median jumps between pairs.
    let mut rows = 0usize;
    let mut compares = Samples::default();
    let (mut rotation_ms, mut rotation_rate) = (Samples::default(), Samples::default());
    let (mut rot_time, mut rot_rows) = (Duration::ZERO, 0usize);
    let phase = Instant::now();
    let end = phase + share(args, 0.3);
    let mut i = 0usize;
    while Instant::now() < end || !i.is_multiple_of(inputs.len()) {
        let (p, cmp) = (&inputs[i % inputs.len()], &cmps[i % inputs.len()]);
        i += 1;
        out.attempted += 1;
        let t = Instant::now();
        let r = cmp.compare(&p.sc.source, &p.sc.target);
        let took = t.elapsed();
        compares.push_ms(took);
        rot_time += took;
        rot_rows += p.sc.source.num_tuples() + p.sc.target.num_tuples();
        if i.is_multiple_of(inputs.len()) {
            rotation_ms.push_ms(rot_time / inputs.len() as u32);
            rotation_rate.push(rot_rows as f64 / rot_time.as_secs_f64());
            rows += rot_rows;
            (rot_time, rot_rows) = (Duration::ZERO, 0);
        }
        match r {
            Ok(c)
                if same(
                    p.reference.as_ref().expect("set"),
                    c.score(),
                    &c.outcome.best.pairs,
                ) => {}
            Ok(_) => {
                out.failed += 1;
                out.wrong += 1;
            }
            Err(_) => out.failed += 1,
        }
    }
    let compare_wall = phase.elapsed();

    // Phase 2: 1-tuple deltas through the primed caches, in rounds of
    // one delta per pair.
    let mut rng = Rng::new(args.seed);
    let mut streams: Vec<DeltaStream> = inputs.iter().map(|_| DeltaStream::default()).collect();
    let mut deltas = Samples::default();
    let mut round_ms = Samples::default();
    let mut round_time = Duration::ZERO;
    let mut checked = 0u64;
    let end = Instant::now() + share(args, 0.7);
    let mut n = 0u64;
    while Instant::now() < end || !n.is_multiple_of(inputs.len() as u64) {
        let k = (n % inputs.len() as u64) as usize;
        let check = (n / inputs.len() as u64).is_multiple_of(DELTA_CHECK_EVERY);
        n += 1;
        let p = &inputs[k];
        let delta = streams[k].next(p, &caches[k], &mut rng);
        out.attempted += 1;
        let t = Instant::now();
        let r = caches[k].compare_delta("source", "target", &delta);
        let took = t.elapsed();
        deltas.push_ms(took);
        round_time += took;
        if n.is_multiple_of(inputs.len() as u64) {
            round_ms.push_ms(round_time / inputs.len() as u32);
            round_time = Duration::ZERO;
        }
        match r {
            Ok(c) if check => {
                checked += 1;
                let target = caches[k].instance("target").expect("primed");
                let fresh = cmps[k]
                    .compare(&p.sc.source, target)
                    .map_err(|e| format!("{}: check: {e}", p.label))?;
                let reference = (fresh.score().to_bits(), fresh.outcome.best.pairs);
                if !same(&reference, c.score(), &c.outcome.best.pairs) {
                    out.failed += 1;
                    out.wrong += 1;
                }
            }
            Ok(_) => {}
            Err(_) => out.failed += 1,
        }
    }
    out.param("delta_results_checked", checked);

    let compare_rows_per_s = rows as f64 / compare_wall.as_secs_f64();
    out.metric(Metric::sampled(
        "setup_s",
        "s",
        median_s(&setup),
        setup.len(),
    ));
    out.metric(Metric::new("peak_rss_mb", "MiB", peak_rss_mb()));
    out.metric(Metric::sampled(
        "compare_rows_per_s",
        "rows/s",
        compare_rows_per_s,
        compares.len(),
    ));
    out.metric(Metric::pct("delta1_ms_p50", &deltas, 50.0));
    out.metric(Metric::pct("delta1_ms_p99", &deltas, 99.0));
    out.metric(Metric::sampled(
        "work_per_s",
        "1/s",
        rotation_rate.pct(10.0),
        rotation_rate.len(),
    ));
    out.metric(Metric::pct("compare_rotation_ms_p50", &rotation_ms, 50.0));
    out.metric(Metric::pct("op_ms", &round_ms, 50.0));
    Ok(out)
}

/// Per-layer totals of the traced passes.
#[derive(Default)]
struct Acc {
    compares: u64,
    build_maps: Samples,
    matches: Samples,
    probe: f64,
    complete: f64,
    score: f64,
    unattributed: f64,
    sig_matches: u64,
    exhaustive_matches: u64,
    tasks: u64,
    steals: u64,
    idle: Duration,
    idle_capacity: Duration,
    applies: Samples,
    rescores: Samples,
}

/// The compare op as the traced run splits it: both sides' maps, then
/// the seeded match. With `tr` set, each call is a span and the `ic-core`
/// spans of the observed comparator hang under it.
fn traced_compare(
    p: &PairInput,
    cmp: &Comparator<'_>,
    obs: Option<(&mut Tracer, &MemorySink, &mut Acc)>,
) -> Result<bool, String> {
    let err = |e: ic_core::Error| format!("{}: {e}", p.label);
    let Some((tr, sink, acc)) = obs else {
        let lm = cmp.build_maps(&p.sc.source).map_err(err)?;
        let rm = cmp.build_maps(&p.sc.target).map_err(err)?;
        let o = cmp
            .signature_with_maps(&p.sc.source, &p.sc.target, Some(&lm), Some(&rm))
            .map_err(err)?;
        return Ok(same(
            p.reference.as_ref().expect("set"),
            o.best.score(),
            &o.best.pairs,
        ));
    };
    tr.next_op();
    let before = tr.time("pool", "ic_pool::pool_stats", ic_pool::pool_stats);
    let op_start = Instant::now();
    let mut maps = Vec::with_capacity(2);
    for side in [&p.sc.source, &p.sc.target] {
        let id = tr.begin("core", "Comparator::build_maps");
        let m = cmp.build_maps(side).map_err(err)?;
        tr.end(id);
        acc.build_maps.push_ms(tr.duration(id));
        let reports = tr.time("obs", "MemorySink::take", || sink.take());
        for r in &reports {
            tr.attach(id, &r.spans);
        }
        maps.push(m);
    }
    let id = tr.begin("core", "Comparator::signature_with_maps");
    let o = cmp
        .signature_with_maps(&p.sc.source, &p.sc.target, Some(&maps[0]), Some(&maps[1]))
        .map_err(err)?;
    tr.end(id);
    acc.matches.push_ms(tr.duration(id));
    let op_wall = op_start.elapsed();
    let reports = tr.time("obs", "MemorySink::take", || sink.take());
    for r in &reports {
        tr.attach(id, &r.spans);
        if let Some(sig) = r.find_span(&["signature"]) {
            let child = |name: &str| {
                sig.children
                    .iter()
                    .filter(|c| c.name == name)
                    .map(|c| c.total.as_secs_f64() * 1e3)
                    .sum::<f64>()
            };
            acc.probe += child("signature.probe");
            acc.complete += child("signature.complete");
            acc.score += child("score");
            acc.unattributed += (sig.total.as_secs_f64() - sig.child_total().as_secs_f64()) * 1e3;
        }
    }
    let after = tr.time("pool", "ic_pool::pool_stats", ic_pool::pool_stats);
    acc.compares += 1;
    acc.sig_matches += o.stats.sig_matches as u64;
    acc.exhaustive_matches += o.stats.exhaustive_matches as u64;
    acc.tasks += after.total_tasks() - before.total_tasks();
    acc.steals += after.total_steals() - before.total_steals();
    acc.idle += after.total_idle().saturating_sub(before.total_idle());
    acc.idle_capacity += op_wall * after.live_workers.max(1) as u32;
    Ok(same(
        p.reference.as_ref().expect("set"),
        o.best.score(),
        &o.best.pairs,
    ))
}

/// The delta op as the traced run splits it: `apply_delta`, then the
/// re-score through the cache.
fn traced_delta(
    cache: &mut CompareCache<'_>,
    delta: &Delta,
    obs: Option<(&mut Tracer, &MemorySink, &mut Acc)>,
) -> Result<(), String> {
    let Some((tr, sink, acc)) = obs else {
        cache
            .apply_delta("target", delta)
            .map_err(|e| e.to_string())?;
        cache
            .compare("source", "target")
            .map_err(|e| e.to_string())?;
        return Ok(());
    };
    tr.next_op();
    let id = tr.begin("core", "CompareCache::apply_delta");
    let r = cache.apply_delta("target", delta);
    tr.end(id);
    acc.applies.push_ms(tr.duration(id));
    r.map_err(|e| e.to_string())?;
    let id = tr.begin("core", "CompareCache::compare");
    let r = cache.compare("source", "target");
    tr.end(id);
    acc.rescores.push_ms(tr.duration(id));
    let reports = tr.time("obs", "MemorySink::take", || sink.take());
    for rep in &reports {
        tr.attach(id, &rep.spans);
    }
    r.map(drop).map_err(|e| e.to_string())
}

/// The traced run: both phases with every other op traced (an observed
/// comparator plus the benchmark's spans), so the tracing overhead shows.
fn traced(args: &Args, inputs: &[PairInput], mut out: Outcome) -> Result<Outcome, String> {
    let threads = nproc();
    let sink = Arc::new(MemorySink::new());
    let plain = comparators(inputs, threads, None)?;
    let observed = comparators(inputs, threads, Some(&sink))?;
    let mut tr = Tracer::new();
    let mut acc = Acc::default();
    // Untraced and traced ops alternate, so both see the same machine.
    let mut compare_cost = Overhead::default();
    let end = Instant::now() + share(args, 0.4);
    let mut i = 0usize;
    while Instant::now() < end || !i.is_multiple_of(2 * inputs.len()) {
        let (k, traced) = ((i / 2) % inputs.len(), i % 2 == 1);
        i += 1;
        out.attempted += 1;
        let t = Instant::now();
        let ok = if traced {
            traced_compare(&inputs[k], &observed[k], Some((&mut tr, &*sink, &mut acc)))?
        } else {
            traced_compare(&inputs[k], &plain[k], None)?
        };
        compare_cost.add(traced, t.elapsed());
        if !ok {
            out.failed += 1;
            out.wrong += 1;
        }
    }

    let mut caches = [prime(&plain, inputs)?, prime(&observed, inputs)?];
    sink.take();
    let primed_full: u64 = caches[1]
        .iter()
        .map(|c| c.stats().tuples_indexed_full)
        .sum();
    let mut rng = Rng::new(args.seed);
    let mut streams: [Vec<DeltaStream>; 2] =
        std::array::from_fn(|_| inputs.iter().map(|_| DeltaStream::default()).collect());
    let repairs_before: u64 = caches[1]
        .iter()
        .map(|c| c.stats().tuples_indexed_repair)
        .sum();
    let mut delta_cost = Overhead::default();
    let end = Instant::now() + share(args, 0.6);
    let mut n = 0usize;
    while Instant::now() < end || !n.is_multiple_of(2 * inputs.len()) {
        let (k, traced) = ((n / 2) % inputs.len(), n % 2 == 1);
        n += 1;
        let side = usize::from(traced);
        let delta = streams[side][k].next(&inputs[k], &caches[side][k], &mut rng);
        out.attempted += 1;
        let t = Instant::now();
        let r = if traced {
            traced_delta(&mut caches[1][k], &delta, Some((&mut tr, &*sink, &mut acc)))
        } else {
            traced_delta(&mut caches[0][k], &delta, None)
        };
        delta_cost.add(traced, t.elapsed());
        if r.is_err() {
            out.failed += 1;
        }
    }
    let repairs = caches[1]
        .iter()
        .map(|c| c.stats().tuples_indexed_repair)
        .sum::<u64>()
        - repairs_before;

    let traced_wall = compare_cost.traced_wall() + delta_cost.traced_wall();
    let c = acc.compares.max(1) as f64;
    let untraced = compare_cost.per_op(false) + delta_cost.per_op(false);
    let traced_cost = compare_cost.per_op(true) + delta_cost.per_op(true);
    out.param("traced_compares", acc.compares);
    out.param("traced_deltas", acc.applies.len());
    out.metric(Metric::sampled(
        "core.build_maps_ms",
        "ms",
        acc.build_maps.mean(),
        acc.build_maps.len(),
    ));
    out.metric(Metric::sampled(
        "core.match_ms",
        "ms",
        acc.matches.mean(),
        acc.matches.len(),
    ));
    out.metric(Metric::new("core.probe_ms", "ms", acc.probe / c));
    out.metric(Metric::new("core.complete_ms", "ms", acc.complete / c));
    out.metric(Metric::new("core.score_ms", "ms", acc.score / c));
    out.metric(Metric::new(
        "core.unattributed_ms",
        "ms",
        acc.unattributed / c,
    ));
    out.metric(Metric::sampled(
        "core.delta_apply_ms",
        "ms",
        acc.applies.mean(),
        acc.applies.len(),
    ));
    out.metric(Metric::sampled(
        "core.delta_rescore_ms",
        "ms",
        acc.rescores.mean(),
        acc.rescores.len(),
    ));
    out.metric(Metric::new(
        "core.repair_ops_per_delta",
        "count",
        repairs as f64 / acc.applies.len().max(1) as f64,
    ));
    out.metric(Metric::new(
        "core.tuples_indexed_full",
        "count",
        primed_full as f64,
    ));
    out.metric(Metric::new(
        "core.exhaustive_match_share",
        "ratio",
        acc.exhaustive_matches as f64 / (acc.sig_matches + acc.exhaustive_matches).max(1) as f64,
    ));
    out.metric(Metric::new(
        "pool.tasks_per_compare",
        "count",
        acc.tasks as f64 / c,
    ));
    out.metric(Metric::new(
        "pool.steals_per_compare",
        "count",
        acc.steals as f64 / c,
    ));
    out.metric(Metric::new(
        "pool.idle_ms_per_compare",
        "ms",
        acc.idle.as_secs_f64() * 1e3 / c,
    ));
    out.metric(Metric::new(
        "pool.idle_share",
        "ratio",
        acc.idle.as_secs_f64() / acc.idle_capacity.as_secs_f64().max(f64::MIN_POSITIVE),
    ));
    out.metric(Metric::new(
        "obs.trace_overhead_pct",
        "%",
        (traced_cost / untraced - 1.0) * 100.0,
    ));
    crate::trace::finish(
        args,
        &tr,
        traced_wall,
        acc.compares + acc.applies.len() as u64,
        &mut out,
    )?;
    Ok(out)
}
