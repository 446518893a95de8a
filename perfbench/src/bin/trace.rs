//! The traced study: the same study as `study`, mirrored step by step
//! through the crates' public calls with a wall-clock span around each
//! call into a layer, under a counting global allocator.
//!
//! ```sh
//! trace --workload conflict-daily --seed 1 --report REPORT --spans SPANS \
//!       [--checkpoint-dir DIR]
//! ```
//!
//! The mirror follows `ruwhere_core::try_run_study` call for call, with
//! two additions that leave the report unchanged (the benchmark checks it
//! byte for byte against the untraced run):
//!
//! * each sweep day calls `World::publish_tld_zones` explicitly before
//!   `sweep_frame` (which publishes again; publishing is idempotent), so
//!   zone publishing gets a span of its own and the sweep's fan-out is
//!   the `sweep_frame` span minus the publish span;
//! * each day takes one `Registry::zone_snapshot` per registry on its own,
//!   the unit of work publishing repeats (twice per registry).
//!
//! After the study, a timing `Transport` around side lanes of the final
//! day's network drives `IterativeResolver::resolve` over a fixed sample
//! of seeds and captures every exchange; DNS decode/encode and the
//! authoritative answer path are then timed by replaying that corpus.
//!
//! Spans are kept in memory and written to `SPANS` (one JSON object per
//! line) at the end; the per-layer metrics print as one JSON line.

use ruwhere_authdns::{AuthServer, IterativeResolver, ZoneSet};
use ruwhere_bench::render_report;
use ruwhere_core::{
    AnalysisEngine, AsnShareSeries, CaIssuanceAnalysis, CompositionSeries, DatasetStats, InfraKind,
    RevocationAnalysis, RussianCaAnalysis, StudyConfig, StudyResults, TldDependencySeries,
    TldUsageSeries, TransitionFlows,
};
use ruwhere_dns::{Message, Name, RType};
use ruwhere_netsim::{Lane, NetError, SimTime, Transport};
use ruwhere_perfbench::{study_config, Args, JsonLine, Workload};
use ruwhere_scan::{
    CertDataset, IpScanSnapshot, IpScanner, MatchRule, OpenIntelScanner, SweepOptions,
};
use ruwhere_store::{
    CheckpointDir, DayCheckpoint, Interner, InternerDelta, SweepFrame, TableSizes,
};
use ruwhere_types::{Date, CERT_WINDOW_END, CERT_WINDOW_START};
use ruwhere_world::World;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "trace --workload NAME --seed N --report FILE --spans FILE \
                     [--checkpoint-dir DIR]";

/// Seeds resolved through the capturing transport.
const CAPTURE_SAMPLE: usize = 64;
/// Passes over the captured corpus per replay timing.
const REPLAY_ROUNDS: usize = 200;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every allocation and reallocation. The counts are
/// statistics that publish no other data, hence `Relaxed`.
struct CountingAlloc;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees to `GlobalAlloc` are exactly `System`'s
// requirements; counting touches only two atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One timed call into a layer. Every span's parent is the study span;
/// `day` (the study day index) ties the spans of one day together.
struct Span {
    name: &'static str,
    day: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 12),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, day: Option<u32>, f: impl FnOnce() -> R) -> R {
        let allocs = ALLOCS.load(Ordering::Relaxed);
        let alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            day,
            start_ns,
            end_ns,
            allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed) - alloc_bytes,
        });
        out
    }

    fn last(&self) -> &Span {
        self.spans.last().expect("a span was just recorded")
    }

    /// Summed duration of every span named `name`, in milliseconds.
    fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum();
        ns as f64 / 1e6
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.name == "study" {
                "null"
            } else {
                "\"study\""
            };
            let day = s.day.map_or("null".to_owned(), |d| d.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"parent\": {parent}, \"day\": {day}, \"start_us\": {:.3}, \
                 \"end_us\": {:.3}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.allocs,
                s.alloc_bytes
            )?;
        }
        out.flush()
    }
}

/// Work counters the traced study accumulates beside its spans.
#[derive(Default)]
struct Counters {
    days: u64,
    sweep_days: u64,
    written_days: u64,
    replayed_days: u64,
    queries: u64,
    ns_cache_hits: u64,
    ns_cache_misses: u64,
    timeouts: u64,
    retries_spent: u64,
    sweep_allocs: u64,
    sweep_alloc_bytes: u64,
    sweep_publish_ms: f64,
    segment_bytes: u64,
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// `ruwhere_core::try_run_study`, call for call, with spans.
fn traced_study(cfg: &StudyConfig, tr: &mut Tracer, c: &mut Counters) -> (StudyResults, World) {
    let store = cfg.checkpoint_dir.as_ref().map(|dir| {
        tr.span("store.open", None, || CheckpointDir::open(dir))
            .unwrap_or_else(|e| fail(e))
    });
    let fingerprint = cfg.fingerprint();
    let mut replayed: Vec<DayCheckpoint> = Vec::new();
    if let Some(store) = &store {
        if cfg.resume {
            let outcome = tr
                .span("store.load", None, || store.load(fingerprint))
                .unwrap_or_else(|e| fail(e));
            if !outcome.quarantined.is_empty() {
                fail("checkpoint segments were quarantined");
            }
            replayed = outcome.days;
        } else if store.has_segments().unwrap_or_else(|e| fail(e)) {
            fail("checkpoint directory already holds segments");
        }
    }

    let mut world = tr.span("world.new", None, || World::new(cfg.world.clone()));
    let sanctions = world.sanctions().clone();
    let sweep_dates = cfg.sweep_dates();
    let first = sweep_dates.first().copied();
    let last = sweep_dates.last().copied();
    let interner = Arc::new(Interner::new());
    let (mut scanner, mut ip_scanner) = tr.span("scan.init", None, || {
        (
            OpenIntelScanner::with_options(
                &world,
                SweepOptions::new()
                    .workers(cfg.workers)
                    .interner(interner.clone()),
            ),
            IpScanner::new(&world),
        )
    });
    let mut ns_composition = CompositionSeries::new(InfraKind::NameServers);
    let mut hosting_composition = CompositionSeries::new(InfraKind::Hosting);
    let mut sanctioned_ns =
        CompositionSeries::sanctioned(InfraKind::NameServers, sanctions.clone());
    let mut tld_dependency = TldDependencySeries::new();
    let mut tld_usage = TldUsageSeries::new();
    let mut asn_share = AsnShareSeries::new();
    let mut dataset = DatasetStats::new();
    let mut transitions = TransitionFlows::new(InfraKind::NameServers);
    let mut retained: BTreeMap<Date, SweepFrame> = BTreeMap::new();
    let mut engine = AnalysisEngine::new();
    let mut ip_scans: Vec<IpScanSnapshot> = Vec::new();
    let mut scans_pending = cfg.ip_scans.clone();
    scans_pending.sort();

    let mut replayed_queries = 0u64;
    for (i, &date) in sweep_dates.iter().enumerate() {
        let day = Some(i as u32);
        c.days += 1;
        tr.span("world.advance", day, || world.advance_to(date));
        while scans_pending.first().is_some_and(|d| *d <= date) {
            scans_pending.remove(0);
            let scan = tr.span("scan.ip_scan", day, || ip_scanner.scan(&mut world));
            ip_scans.push(scan);
        }
        tr.span("registry.zone_snapshot", day, || {
            for r in world.registries() {
                black_box(r.zone_snapshot(date));
            }
        });
        tr.span("world.publish", day, || world.publish_tld_zones());
        let (publish_allocs, publish_bytes, publish_ms) = {
            let s = tr.last();
            (s.allocs, s.alloc_bytes, s.ns() as f64 / 1e6)
        };
        let frame = match replayed.get(i) {
            Some(ck) => {
                if ck.date != date {
                    fail(format!(
                        "checkpoint day {i} is dated {}, schedule says {date}",
                        ck.date
                    ));
                }
                c.replayed_days += 1;
                replayed_queries += ck.frame.stats.queries;
                tr.span("store.replay", day, || {
                    ck.interner.replay(&interner)?;
                    world.restore_net_clock_us(ck.net_clock_us);
                    Ok::<_, ruwhere_store::CheckpointError>(ck.frame.clone())
                })
                .unwrap_or_else(|e| fail(e))
            }
            None => {
                c.sweep_days += 1;
                let base = TableSizes::of(&interner);
                let frame = tr.span("scan.sweep_frame", day, || scanner.sweep_frame(&mut world));
                let s = tr.last();
                c.sweep_allocs += s.allocs.saturating_sub(publish_allocs);
                c.sweep_alloc_bytes += s.alloc_bytes.saturating_sub(publish_bytes);
                c.sweep_publish_ms += publish_ms;
                if let Some(store) = &store {
                    tr.span("store.write", day, || {
                        store.write_day(
                            &DayCheckpoint {
                                day_index: i as u32,
                                date,
                                net_clock_us: world.network().now().as_micros(),
                                interner: InternerDelta::capture(&interner, base),
                                frame: frame.clone().strip_metrics(),
                            },
                            fingerprint,
                        )
                    })
                    .unwrap_or_else(|e| fail(e));
                    c.written_days += 1;
                    c.segment_bytes +=
                        std::fs::metadata(store.segment_path(i as u32)).map_or(0, |m| m.len());
                }
                frame
            }
        };
        c.queries += frame.stats.queries;
        c.ns_cache_hits += frame.stats.ns_cache_hits;
        c.ns_cache_misses += frame.stats.ns_cache_misses;
        c.timeouts += frame.stats.timeouts;
        c.retries_spent += frame.stats.retries_spent;
        tr.span("core.observe_frame", day, || {
            engine.observe_frame(
                &frame,
                &interner,
                &mut [
                    &mut ns_composition,
                    &mut hosting_composition,
                    &mut sanctioned_ns,
                    &mut tld_dependency,
                    &mut tld_usage,
                    &mut asn_share,
                    &mut dataset,
                    &mut transitions,
                ],
            )
        });
        tr.span("core.retain", day, || {
            if cfg.retain.contains(&date) || first == Some(date) || last == Some(date) {
                retained.insert(date, frame.strip_metrics());
            }
        });
    }

    tr.span("world.finalize_ocsp", None, || world.finalize_ocsp());
    let cert_from = CERT_WINDOW_START.max(cfg.world.cert_start);
    let cert_to = CERT_WINDOW_END.min(cfg.world.end);
    let certs = tr.span("scan.cert_dataset", None, || {
        CertDataset::from_logs(world.ct_logs(), cert_from, cert_to, MatchRule::CnOrSan)
    });
    let (issuance, revocation, russian_ca) = tr.span("core.cert_analyses", None, || {
        (
            CaIssuanceAnalysis::new(&certs),
            RevocationAnalysis::new(&certs, world.ocsp(), &sanctions, cert_to),
            ip_scans
                .last()
                .map(|scan| RussianCaAnalysis::new(scan, &certs, &sanctions, cert_to)),
        )
    });
    let total_queries = replayed_queries + scanner.queries_sent();
    if total_queries != c.queries {
        fail(format!(
            "scanner counted {total_queries} queries, the frames {}",
            c.queries
        ));
    }
    tr.span("study.teardown", None, || {
        drop((scanner, ip_scanner, replayed, store))
    });
    let results = StudyResults {
        ns_composition,
        hosting_composition,
        sanctioned_ns,
        tld_dependency,
        tld_usage,
        asn_share,
        retained,
        interner,
        analysis: engine,
        certs,
        issuance,
        revocation,
        russian_ca,
        ip_scans,
        sanctions,
        dataset,
        transitions,
        total_queries,
        sweeps_run: sweep_dates.len(),
    };
    (results, world)
}

/// One captured request/response exchange.
struct Exchange {
    dst: (Ipv4Addr, u16),
    query: Vec<u8>,
    response: Vec<u8>,
}

/// A `Transport` that times each request on the lane it wraps and keeps
/// the bytes of every answered exchange.
struct CapturingTransport<'a> {
    lane: Lane<'a>,
    requests: u64,
    request_ns: u64,
    exchanges: Vec<Exchange>,
}

impl Transport for CapturingTransport<'_> {
    fn now(&self) -> SimTime {
        self.lane.now()
    }

    fn request(
        &mut self,
        src_ip: Ipv4Addr,
        dst: (Ipv4Addr, u16),
        payload: &[u8],
        timeout_us: u64,
        attempts: u32,
    ) -> Result<Vec<u8>, NetError> {
        let t0 = Instant::now();
        let out = self
            .lane
            .request(src_ip, dst, payload, timeout_us, attempts);
        self.request_ns += t0.elapsed().as_nanos() as u64;
        self.requests += 1;
        if let Ok(response) = &out {
            self.exchanges.push(Exchange {
                dst,
                query: payload.to_vec(),
                response: response.clone(),
            });
        }
        out
    }
}

/// DNS-path timings from resolving a seed sample on side lanes, then
/// replaying the captured corpus.
struct WireProfile {
    resolve_us: f64,
    resolver_self_us: f64,
    request_us: f64,
    requests_per_resolution: f64,
    answer_us: f64,
    decode_ns: f64,
    encode_ns: f64,
    bytes_per_msg: f64,
    messages: usize,
    check_failures: u64,
}

fn wire_profile(world: &World) -> WireProfile {
    let seeds = world.seed_names();
    let step = (seeds.len() / CAPTURE_SAMPLE).max(1);
    let mut resolver = IterativeResolver::new(world.scanner_ip(), world.root_hints());
    let mut requests = 0u64;
    let mut request_ns = 0u64;
    let mut resolve_ns = 0u64;
    let mut resolutions = 0u64;
    let mut exchanges: Vec<Exchange> = Vec::new();
    for seed in seeds.iter().step_by(step).take(CAPTURE_SAMPLE) {
        // A side lane: its clock and counters are never absorbed into the
        // network, so the study's state is untouched.
        let mut transport = CapturingTransport {
            lane: world.network().lane(&format!("perfbench-capture/{seed}")),
            requests: 0,
            request_ns: 0,
            exchanges: Vec::new(),
        };
        let name = Name::from(seed);
        for rtype in [RType::Ns, RType::A] {
            let t0 = Instant::now();
            let res = resolver.resolve(&mut transport, &name, rtype);
            resolve_ns += t0.elapsed().as_nanos() as u64;
            black_box(res.ok());
            resolutions += 1;
        }
        requests += transport.requests;
        request_ns += transport.request_ns;
        exchanges.append(&mut transport.exchanges);
    }

    let mut check_failures = 0u64;
    let wire: Vec<&[u8]> = exchanges
        .iter()
        .flat_map(|x| [x.query.as_slice(), x.response.as_slice()])
        .collect();
    let t0 = Instant::now();
    for _ in 0..REPLAY_ROUNDS {
        for bytes in &wire {
            black_box(Message::decode(black_box(bytes)).ok());
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / (REPLAY_ROUNDS * wire.len()).max(1) as f64;
    let decoded: Vec<Message> = wire
        .iter()
        .filter_map(|b| Message::decode(b).ok())
        .collect();
    check_failures += (wire.len() - decoded.len()) as u64;
    // Encoding a decoded capture must give back its exact bytes.
    check_failures += wire
        .iter()
        .zip(&decoded)
        .filter(|(b, m)| m.encode().ok().as_deref() != Some(**b))
        .count() as u64;
    let t0 = Instant::now();
    for _ in 0..REPLAY_ROUNDS {
        for m in &decoded {
            black_box(black_box(m).encode().ok());
        }
    }
    let encode_ns = t0.elapsed().as_nanos() as f64 / (REPLAY_ROUNDS * decoded.len()).max(1) as f64;

    // The TLD server's answers, replayed against today's registry zones:
    // each must re-encode to the captured response.
    let tld_server = (world.xfr_server().0, 53);
    let mut zones = ZoneSet::new();
    for r in world.registries() {
        zones.insert(r.zone_snapshot(world.today()));
    }
    let tld: Vec<(Message, &[u8])> = exchanges
        .iter()
        .filter(|x| x.dst == tld_server)
        .filter_map(|x| Some((Message::decode(&x.query).ok()?, x.response.as_slice())))
        .collect();
    check_failures += tld
        .iter()
        .filter(|(q, resp)| AuthServer::answer(&zones, q).encode().ok().as_deref() != Some(*resp))
        .count() as u64;
    let t0 = Instant::now();
    for _ in 0..REPLAY_ROUNDS {
        for (q, _) in &tld {
            black_box(AuthServer::answer(&zones, black_box(q)));
        }
    }
    let answer_us =
        t0.elapsed().as_nanos() as f64 / 1e3 / (REPLAY_ROUNDS * tld.len()).max(1) as f64;
    if tld.is_empty() || resolutions == 0 || requests == 0 {
        check_failures += 1;
    }

    let per = |total_ns: u64, n: u64| total_ns as f64 / 1e3 / n.max(1) as f64;
    WireProfile {
        resolve_us: per(resolve_ns, resolutions),
        resolver_self_us: per(resolve_ns.saturating_sub(request_ns), resolutions),
        request_us: per(request_ns, requests),
        requests_per_resolution: requests as f64 / resolutions.max(1) as f64,
        answer_us,
        decode_ns,
        encode_ns,
        bytes_per_msg: wire.iter().map(|b| b.len()).sum::<usize>() as f64
            / wire.len().max(1) as f64,
        messages: wire.len(),
        check_failures,
    }
}

fn main() {
    let args = Args::from_env(USAGE, false);
    let spans_path = args
        .spans
        .clone()
        .unwrap_or_else(|| fail("--spans is required"));
    // One worker: only there do the exact counters (`scan.queries`,
    // `alloc.per_query`, ...) repeat from run to run.
    let mut cfg = study_config(args.seed, 1);
    cfg.checkpoint_dir = args.checkpoint_dir.clone();
    cfg.resume = args.workload == Workload::Reanalysis;

    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let study_start = tr.now_ns();
    let (results, world) = traced_study(&cfg, &mut tr, &mut c);
    let report = tr.span("core.render", None, || render_report(&results));
    let record_visits = results.analysis.record_visits();
    tr.span("study.teardown", None, || drop(results));
    let study_end = tr.now_ns();
    tr.spans.push(Span {
        name: "study",
        day: None,
        start_ns: study_start,
        end_ns: study_end,
        allocs: 0,
        alloc_bytes: 0,
    });
    let study_ns = (study_end - study_start) as f64;
    let covered_ns: u64 = tr
        .spans
        .iter()
        .filter(|s| s.name != "study")
        .map(Span::ns)
        .sum();

    let wire = wire_profile(&world);
    eprintln!(
        "trace: {} days, {} queries, {} wire messages captured",
        c.days, c.queries, wire.messages
    );

    if let Err(e) = std::fs::write(&args.report, &report) {
        fail(format!("write {}: {e}", args.report.display()));
    }
    if let Err(e) = tr.write(&spans_path) {
        fail(format!("write {}: {e}", spans_path.display()));
    }

    let per_day = |ms: f64, days: u64| if days == 0 { 0.0 } else { ms / days as f64 };
    let study_s = study_ns / 1e9;
    let mut out = JsonLine::default();
    out.num("trace.study_s", study_s)
        .num("trace.span_coverage", covered_ns as f64 / study_ns)
        .num(
            "world.publish_share",
            tr.total_ms("world.publish") / 1e3 / study_s,
        )
        .num("world.new_ms", tr.total_ms("world.new"))
        .num(
            "world.advance_ms_per_day",
            per_day(tr.total_ms("world.advance"), c.days),
        )
        .num(
            "world.publish_ms_per_day",
            per_day(tr.total_ms("world.publish"), c.days),
        )
        .num(
            "registry.zone_snapshot_ms_per_day",
            per_day(tr.total_ms("registry.zone_snapshot"), c.days),
        )
        .num(
            "scan.fanout_ms_per_day",
            per_day(
                tr.total_ms("scan.sweep_frame") - c.sweep_publish_ms,
                c.sweep_days,
            ),
        )
        .int("scan.queries", c.queries)
        .num(
            "scan.ns_cache_hit_rate",
            c.ns_cache_hits as f64 / (c.ns_cache_hits + c.ns_cache_misses).max(1) as f64,
        )
        .int("scan.timeouts", c.timeouts)
        .int("scan.retries_spent", c.retries_spent)
        .num("scan.ip_scan_ms", tr.total_ms("scan.ip_scan"))
        .num("scan.cert_dataset_ms", tr.total_ms("scan.cert_dataset"))
        .num("authdns.resolve_us", wire.resolve_us)
        .num("authdns.resolver_self_us", wire.resolver_self_us)
        .num("authdns.answer_us", wire.answer_us)
        .num("netsim.request_us", wire.request_us)
        .num(
            "netsim.requests_per_resolution",
            wire.requests_per_resolution,
        )
        .num("dns.decode_ns", wire.decode_ns)
        .num("dns.encode_ns", wire.encode_ns)
        .num("dns.bytes_per_msg", wire.bytes_per_msg)
        .num(
            "alloc.per_query",
            c.sweep_allocs as f64 / c.queries.max(1) as f64,
        )
        .num(
            "alloc.bytes_per_query",
            c.sweep_alloc_bytes as f64 / c.queries.max(1) as f64,
        )
        .num(
            "store.write_ms_per_day",
            per_day(tr.total_ms("store.write"), c.written_days),
        )
        .num(
            "store.segment_bytes_per_day",
            c.segment_bytes as f64 / c.written_days.max(1) as f64,
        )
        .num("store.load_ms", tr.total_ms("store.load"))
        .num(
            "store.replay_ms_per_day",
            per_day(tr.total_ms("store.replay"), c.replayed_days),
        )
        .num(
            "core.observe_frame_ms_per_day",
            per_day(tr.total_ms("core.observe_frame"), c.days),
        )
        .int("core.record_visits", record_visits)
        .num("core.cert_analyses_ms", tr.total_ms("core.cert_analyses"))
        .num("core.render_ms", tr.total_ms("core.render"))
        .int("check_failures", wire.check_failures);
    println!("{}", out.render());
}
