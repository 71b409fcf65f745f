//! Wall-clock benchmark of the asb workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_asb --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Sets the workload up from the seed (several times, reporting the median
//! set-up time), runs it in passes for the given number of seconds, checks
//! every answer, and prints an environment header, one line per metric and
//! finally one JSON object. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs half the time untraced and half traced and reports the
//! per-layer metrics. The exit code is 1 when any answer was wrong.

mod layers;
mod trace;
mod workloads;
mod wrap;

use layers::{Probe, ReplayTimes, SpanTimes};
use trace::{median, percentile, Layer, OpKind, Span};
use workloads::{PaperAsb, Pass, ServeArena, SetupTimes, UpdateWal, Workload};

use asb_workload::Scale;
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Each workload is set up at least `SETUP_REPS` times and for at least
/// `SETUP_MIN`; the median set-up time is reported. Small set-ups take
/// about 12 ms, so one sample alone is mostly noise.
const SETUP_REPS: usize = 15;
const SETUP_MIN: Duration = Duration::from_millis(1500);
/// Passes every run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

const WORKLOADS: [&str; 3] = ["paper_asb", "serve_arena", "update_wal"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    plant: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut plant) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--plant-wrong-answer" {
            plant = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                traced = Some(match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("bad --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        plant,
    })
}

fn setup_once(name: &str, seed: u64) -> Result<(Box<dyn Workload>, SetupTimes)> {
    Ok(match name {
        "paper_asb" => {
            let (w, t) = PaperAsb::setup(seed, Scale::Medium, 2_500)?;
            (Box::new(w), t)
        }
        "serve_arena" => {
            let (w, t) = ServeArena::setup(seed, Scale::Small, 1_024, 32, 160_000)?;
            (Box::new(w), t)
        }
        "update_wal" => {
            let (w, t) = UpdateWal::setup(seed, Scale::Small, 10_000)?;
            (Box::new(w), t)
        }
        other => unreachable!("workload {other} was validated"),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one pass on a thread of its own and waits for it. Each new thread
/// draws fresh hash-table keys and allocates from its own heap arena, so
/// the passes of a run sample these per-thread layouts instead of all
/// sharing the one the process happened to draw.
fn pass_on_new_thread(w: &mut dyn Workload, traced: bool, first: bool) -> Result<Pass> {
    std::thread::scope(|s| {
        s.spawn(|| w.pass(traced, first).map_err(|e| e.to_string()))
            .join()
            .map_err(|_| "a pass panicked")?
            .map_err(Into::into)
    })
}

/// Adds passes until `until` (and until there are [`MIN_PASSES`]).
fn run_passes(
    w: &mut dyn Workload,
    traced: bool,
    until: Instant,
    passes: &mut Vec<Pass>,
) -> Result<()> {
    while passes.len() < MIN_PASSES || Instant::now() < until {
        passes.push(pass_on_new_thread(w, traced, false)?);
    }
    Ok(())
}

/// Spans of several passes as one list (parent indices re-based).
fn merge_spans(passes: &[Pass]) -> Vec<Span> {
    let mut all: Vec<Span> = Vec::new();
    for p in passes {
        let base = all.len() as u32;
        all.extend(p.spans.iter().map(|s| Span {
            parent: s.parent.map(|x| x + base),
            ..*s
        }));
    }
    all
}

fn rate(p: &Pass) -> f64 {
    p.ops as f64 / p.wall.as_secs_f64()
}

/// Latency samples of all `passes`, sorted.
fn pooled_latencies(passes: &[Pass]) -> Vec<u64> {
    let mut v: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.lat_ns.iter().copied())
        .collect();
    v.sort_unstable();
    v
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn run(args: &Args) -> Result<Report> {
    println!(
        "# env: nproc={} profile={} rustc=\"{}\" seed={} workload={} trace={} seconds={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        rustc_version(),
        args.seed,
        args.workload,
        u8::from(args.traced),
        args.seconds,
    );

    let mut setups = Vec::new();
    let mut workload = None;
    let started = Instant::now();
    while setups.len() < SETUP_REPS || started.elapsed() < SETUP_MIN {
        // Drop the previous copy first, so memory does not pile up.
        drop(workload.take());
        let (w, t) = setup_once(&args.workload, args.seed)?;
        setups.push(t);
        workload = Some(w);
    }
    let mut w = workload.expect("set up at least once");
    println!(
        "# workload: {} ; set up {} times",
        w.describe(),
        setups.len()
    );
    let setup_s = median(
        &setups
            .iter()
            .map(|t| t.dataset_s + t.load_s)
            .collect::<Vec<_>>(),
    );

    let budget = Duration::from_secs(args.seconds);
    let share = if args.traced { budget / 2 } else { budget };
    // The first pass warms caches up and keeps its answers for the check;
    // it is not timed with the others.
    let warm = pass_on_new_thread(w.as_mut(), false, true)?;
    // Peak memory of set-up and one pass, read before the run's own
    // latency buffers grow with the number of passes.
    let rss_mib = peak_rss_mib()?;
    let mut plain = Vec::new();
    run_passes(w.as_mut(), false, Instant::now() + share, &mut plain)?;
    let mut traced = Vec::new();
    if args.traced {
        run_passes(w.as_mut(), true, Instant::now() + share, &mut traced)?;
    }
    let all: Vec<&Pass> = std::iter::once(&warm)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let counts = all[0].counts;
    let ops = all[0].ops;
    let mut correct = true;
    if let Some(p) = all.iter().find(|p| p.counts != counts) {
        println!(
            "# FAIL: pass counters differ: {:?} vs {:?}",
            p.counts, counts
        );
        correct = false;
    }

    if args.plant {
        w.plant_wrong_answer();
    }
    let wrong = w.check()?;
    let attempted: u64 = all.iter().map(|p| p.ops).sum();
    let failed = all.iter().map(|p| p.failed).sum::<u64>() + wrong;
    if failed > 0 {
        println!("# FAIL: {failed} operations failed or answered wrong ({wrong} wrong answers)");
        correct = false;
    }

    let replay_input = w.replay()?;
    let mut replayed: Option<ReplayTimes> = None;
    let mut replay_misses = None;
    w.with_disk(&mut |disk| {
        if args.traced {
            let t = layers::replay_times(disk, &replay_input)?;
            replay_misses = Some(t.policy.misses);
            replayed = Some(t);
        } else if args.workload == "paper_asb" {
            let r = &replay_input;
            replay_misses = Some(layers::replay(disk, &r.refs, r.policy, r.capacity)?.misses);
        }
        Ok(())
    })?;
    if args.workload == "paper_asb" {
        let misses = replay_misses.expect("paper_asb replays its trace");
        println!(
            "# replay: {} recorded references through BufferManager(ASB) -> {} misses; store reads per pass {}",
            replay_input.refs.len(),
            misses,
            counts.store_reads
        );
        if misses != counts.store_reads {
            println!("# FAIL: replayed misses differ from the store reads of the pass");
            correct = false;
        }
    }

    let lat = pooled_latencies(&plain);
    let tail = trace::tail_percentile(lat.len());
    let lat_us = |pct: f64| percentile(&lat, pct) as f64 / 1e3;
    println!(
        "# ops per pass={} passes warm-up=1 untraced={} traced={} attempted={} failed={} error_rate={}",
        ops,
        plain.len(),
        traced.len(),
        attempted,
        failed,
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "# latency samples={} ({} of {} untraced passes); highest percentile with >=10 samples beyond: {}",
        lat.len(),
        if args.workload == "serve_arena" { "serve rounds" } else { "operations" },
        plain.len(),
        match tail {
            Some((label, pct)) => format!("{label} = {:.3} us", lat_us(pct)),
            None => "too few samples".into(),
        }
    );
    println!(
        "# latency deciles (us): {}",
        (1..10)
            .map(|d| format!("{:.1}", lat_us(d as f64 * 10.0)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "# counts per pass: disk_reads={} logical_reads={} serve_p99_ticks={} rounds={} write_amp={} (store writes {} x {} B + WAL {} B over {} B of item records)",
        counts.store_reads,
        counts.logical_reads,
        counts.serve_p99_ticks,
        counts.rounds,
        ratio(
            (counts.store_writes * asb_storage::PAGE_SIZE as u64 + counts.wal_bytes) as f64,
            counts.record_bytes as f64
        ),
        counts.store_writes,
        asb_storage::PAGE_SIZE,
        counts.wal_bytes,
        counts.record_bytes,
    );

    let untraced_rate = median(&plain.iter().map(rate).collect::<Vec<_>>());
    println!(
        "# untraced pass rates (ops/s): {}",
        plain
            .iter()
            .map(|p| format!("{:.0}", rate(p)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    // `serve` answers many requests per call and its rounds are of very
    // different sizes, so a request's own wall time cannot be seen and the
    // median round says little; its typical latency is the wall time per
    // request of the median pass, and its tail the p99 round.
    let p50_us = if args.workload == "serve_arena" {
        1e6 / untraced_rate
    } else {
        lat_us(50.0)
    };
    let metrics = if args.traced {
        let traced_rate = median(&traced.iter().map(rate).collect::<Vec<_>>());
        let spans = merge_spans(&traced);
        let traced_ops: u64 = traced.iter().map(|p| p.ops).sum();
        let own = layers::span_times(&spans, traced_ops);
        if own.self_sum_gap_ns != 0 {
            println!(
                "# FAIL: self times miss the op time by {} ns",
                own.self_sum_gap_ns
            );
            correct = false;
        }
        println!(
            "# spans: {} in {} traced passes; op + pool + store self times sum to the op time (gap {} ns)",
            spans.len(),
            traced.len(),
            own.self_sum_gap_ns
        );
        let probe = layers::probe(w.dataset(), args.seed)?;
        let kinds = [
            OpKind::Point,
            OpKind::Window,
            OpKind::Insert,
            OpKind::Delete,
        ];
        let samples = |spans: &[Span]| -> String {
            kinds
                .iter()
                .map(|&k| {
                    let n = spans.iter().filter(|s| s.layer == Layer::Op(k)).count();
                    format!("{k:?}={n}")
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "# samples behind tree.*_us_p50: workload {} ; probe {}",
            samples(&spans),
            samples(&probe.spans)
        );
        let mut iso = None;
        w.with_disk(&mut |disk| {
            iso = Some(layers::isolated(disk)?);
            Ok(())
        })?;
        per_layer(
            &args.workload,
            &setups,
            &traced,
            &own,
            &probe,
            &iso.expect("isolated loops ran"),
            replayed.as_ref().expect("traced runs replay"),
            100.0 * (untraced_rate / traced_rate - 1.0),
        )
    } else {
        vec![
            m("setup_s", setup_s, "s"),
            m("ops_per_s", untraced_rate, "ops/s"),
            m("op_p50_us", p50_us, "us"),
            m("op_p99_us", lat_us(99.0), "us"),
            m(
                "disk_reads_per_op",
                counts.store_reads as f64 / ops as f64,
                "count",
            ),
            m("peak_rss_mib", rss_mib, "MiB"),
        ]
    };
    Ok(Report {
        metrics,
        attempted,
        failed,
        correct,
    })
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    workload: &str,
    setups: &[SetupTimes],
    traced: &[Pass],
    own: &SpanTimes,
    probe: &Probe,
    iso: &layers::Isolated,
    rep: &ReplayTimes,
    overhead_pct: f64,
) -> Vec<Metric> {
    let c = traced[0].counts;
    let ops = traced[0].ops as f64;
    let pt = layers::span_times(&probe.spans, probe.ops);
    let mut fallbacks = Vec::new();
    let mut pick = |name: &'static str, mine: Option<f64>, theirs: Option<f64>| -> f64 {
        mine.unwrap_or_else(|| {
            fallbacks.push(name);
            theirs.unwrap_or(0.0)
        })
    };
    let store_write = pick(
        "store.write_us_per_op",
        own.store_write_us_per_op,
        pt.store_write_us_per_op,
    );
    let store_read = pick(
        "store.read_us_per_op",
        own.store_read_us_per_op,
        pt.store_read_us_per_op,
    );
    let pool_self = pick(
        "pool.self_us_per_op",
        own.pool_self_us_per_op,
        pt.pool_self_us_per_op,
    );
    let tree_self = pick(
        "tree.self_us_per_op",
        own.tree_self_us_per_op,
        pt.tree_self_us_per_op,
    );
    let point = pick("tree.point_us_p50", own.point_us_p50, pt.point_us_p50);
    let window = pick("tree.window_us_p50", own.window_us_p50, pt.window_us_p50);
    let insert = pick("tree.insert_us_p50", own.insert_us_p50, pt.insert_us_p50);
    let delete = pick("tree.delete_us_p50", own.delete_us_p50, pt.delete_us_p50);
    let traced_requests: f64 = traced.iter().map(|p| p.ops as f64).sum();
    let traced_rounds: f64 = traced.iter().map(|p| p.counts.rounds as f64).sum();
    let (serve_per_req, serve_per_round, rounds) = match own.serve_self_us {
        Some(t) => (t / traced_requests, t / traced_rounds, c.rounds as f64),
        None => {
            fallbacks.extend([
                "serve.self_us_per_request",
                "serve.us_per_round",
                "serve.rounds",
            ]);
            let t = pt.serve_self_us.unwrap_or(0.0);
            (
                t / probe.requests as f64,
                t / probe.rounds as f64,
                probe.rounds as f64,
            )
        }
    };
    let (switches, p99_ticks) = if workload == "serve_arena" {
        (c.authority_switches, c.serve_p99_ticks)
    } else {
        fallbacks.extend(["arena.authority_switches", "serve_p99_ticks"]);
        (probe.authority_switches, probe.p99_ticks)
    };
    if !fallbacks.is_empty() {
        println!(
            "# {workload} does not reach these layers; they come from the probe on its dataset: {}",
            fallbacks.join(", ")
        );
    }
    let hit_ns = ratio(rep.policy.hit_ns as f64, rep.policy.hits as f64);
    let miss_ns = ratio(rep.policy.miss_ns as f64, rep.policy.misses as f64);
    let lru_ns = rep.lru.access_ns();
    println!(
        "# replay: {} references (policy {} hits / {} misses), ratio rows on the first {}; base LRU {:.1} ns/access (full), {:.1} ns/access (prefix)",
        rep.refs, rep.policy.hits, rep.policy.misses, rep.prefix, lru_ns, rep.lru_prefix_ns
    );
    let (cand_sum, cand_n): (u64, u64) = traced
        .iter()
        .fold((0, 0), |(s, n), p| (s + p.candidate.0, n + p.candidate.1));
    let med = |f: &dyn Fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    vec![
        m("page.checksum_ns", iso.checksum_ns, "ns"),
        m("store.read_us_per_op", store_read, "us"),
        m("store.write_us_per_op", store_write, "us"),
        m("wal.append_image_ns", iso.wal_append_ns, "ns"),
        m("wal.bytes_per_op", c.wal_bytes as f64 / ops, "B"),
        m("flight.run_ns", iso.flight_run_ns, "ns"),
        m("manager.hit_ns", hit_ns, "ns"),
        m("manager.miss_ns", miss_ns, "ns"),
        m(
            "manager.policy_vs_lru",
            ratio(rep.policy.access_ns(), lru_ns),
            "ratio",
        ),
        m("manager.lru_access_ns", lru_ns, "ns"),
        m(
            "manager.hit_ratio",
            ratio(c.hits as f64, c.logical_reads as f64),
            "fraction",
        ),
        m(
            "manager.evictions_per_op",
            c.evictions as f64 / ops,
            "count",
        ),
        m(
            "asb.candidate_size_mean",
            ratio(cand_sum as f64, cand_n as f64),
            "pages",
        ),
        m(
            "arena.authority_switches",
            switches as f64,
            "count",
        ),
        m("pool.self_us_per_op", pool_self, "us"),
        m(
            "pool.pages_per_batch",
            ratio(c.batch_pages as f64, c.batches as f64),
            "count",
        ),
        m("node.decode_ns", iso.decode_ns, "ns"),
        m("node.encode_ns", iso.encode_ns, "ns"),
        m("tree.self_us_per_op", tree_self, "us"),
        m(
            "tree.logical_reads_per_op",
            c.logical_reads as f64 / ops,
            "count",
        ),
        m("tree.point_us_p50", point, "us"),
        m("tree.window_us_p50", window, "us"),
        m("tree.insert_us_p50", insert, "us"),
        m("tree.delete_us_p50", delete, "us"),
        m("serve.self_us_per_request", serve_per_req, "us"),
        m("serve.us_per_round", serve_per_round, "us"),
        m("serve.rounds", rounds, "count"),
        m(
            "serve.hit_tick_gap",
            ratio(asb_serve::HIT_TICKS as f64, hit_ns / 1e3),
            "ratio",
        ),
        m(
            "serve.round_tick_gap",
            ratio(asb_serve::ROUND_OVERHEAD_TICKS as f64, serve_per_round),
            "ratio",
        ),
        m("serve_p99_ticks", p99_ticks as f64, "ticks"),
        m(
            "write_amp",
            ratio(
                (c.store_writes * asb_storage::PAGE_SIZE as u64 + c.wal_bytes) as f64,
                c.record_bytes as f64,
            ),
            "B/B",
        ),
        m("setup.dataset_s", med(&|t| t.dataset_s), "s"),
        m("setup.load_s", med(&|t| t.load_s), "s"),
        m("trace.overhead_pct", overhead_pct, "%"),
        m("trace.op_us_per_op", own.op_us_per_op, "us"),
        m(
            "ratio.asb_vs_lru",
            ratio(rep.asb_prefix_ns, rep.lru_prefix_ns),
            "ratio",
        ),
        m(
            "ratio.arena_vs_lru",
            ratio(rep.arena_prefix_ns, rep.lru_prefix_ns),
            "ratio",
        ),
        m(
            "ratio.checksum_vs_hit",
            ratio(iso.checksum_ns, hit_ns),
            "ratio",
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--plant-wrong-answer]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut fields = Vec::new();
    for x in &report.metrics {
        if !x.value.is_finite() {
            eprintln!("error: metric {} is not finite ({})", x.name, x.value);
            std::process::exit(1);
        }
        println!("{:<28} {:>16} {}", x.name, x.value, x.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if !report.correct {
        std::process::exit(1);
    }
}
