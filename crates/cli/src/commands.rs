//! Subcommand implementations.

use std::fmt::Write as _;

use fdx_core::{render_autoregression_heatmap, score_fd, Fdx, FdxConfig};
use fdx_data::{read_csv_str, BadRowPolicy, Dataset, IngestConfig, Ingested};

use crate::args::{Command, DiscoverOptions, OnBadRow, RequestArgs, ServeArgs, StatsArgs, TopArgs};

/// Runs a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Discover { path, options } => discover(&path, &options),
        Command::Profile { path } => profile(&path),
        Command::Score { path, lhs, rhs } => score(&path, &lhs, &rhs),
        Command::Serve { options } => serve(&options),
        Command::Request { options } => request(&options),
        Command::Stats { options } => stats(&options),
        Command::Top { options } => top(&options),
    }
}

/// `fdx serve`: run the discovery service until a `shutdown` frame arrives,
/// then drain and exit 0 with a final flushed metrics snapshot.
fn serve(args: &ServeArgs) -> Result<(), String> {
    // The server mirrors its counters into obs; recording must be on for
    // the final snapshot (and any --metrics export) to carry them.
    fdx_obs::set_enabled(true);
    fdx_obs::Registry::global().reset();
    fdx_obs::journal::Journal::global().reset();
    let config = fdx_serve::ServeConfig {
        addr: args.addr.clone(),
        threads: args.threads,
        queue_cap: args.queue_cap,
        drain_timeout_secs: args.drain_timeout,
        chaos: args.chaos,
        metrics_path: args.metrics.as_ref().map(std::path::PathBuf::from),
        journal_path: args.journal.as_ref().map(std::path::PathBuf::from),
        session_dir: args.session_dir.as_ref().map(std::path::PathBuf::from),
        session_budget: args.session_budget,
        max_conns: args.max_conns,
    };
    let handle = fdx_serve::Server::start(config).map_err(|e| format!("serve: bind: {e}"))?;
    println!("fdx-serve listening on {}", handle.addr());
    if args.chaos {
        eprintln!("# chaos enabled: requests may arm fault-injection points");
    }
    let rec = handle.recovery();
    if args.session_dir.is_some() {
        eprintln!(
            "# sessions recovered: {} datasets, {} cached results, {} quarantined",
            rec.datasets,
            rec.results,
            rec.quarantined.len()
        );
        for q in &rec.quarantined {
            eprintln!("#   quarantined {}: {}", q.file, q.reason);
        }
    }
    let report = handle.wait();
    eprintln!(
        "# drained: {} requests, {} completed, {} shed, {} panics, {} deadline-exceeded, {} abandoned, {} stats{}",
        report.requests,
        report.completed,
        report.shed,
        report.panics,
        report.deadline_exceeded,
        report.abandoned,
        report.stats_requests,
        if report.drain_timed_out {
            " (drain timed out)"
        } else {
            ""
        }
    );
    Ok(())
}

/// Builds the wire frame for `fdx request` from parsed CLI options.
/// Public to the crate for tests.
fn build_request_frame(args: &RequestArgs, csv: String) -> Result<fdx_serve::RequestFrame, String> {
    let frame = fdx_serve::RequestFrame {
        id: args.id.clone(),
        csv,
        path: None,
        dataset: args.dataset.clone(),
        deadline_ms: args.deadline_ms,
        threshold: args.threshold,
        sparsity: args.sparsity,
        min_lift: args.min_lift,
        seed: args.seed,
        threads: args.threads,
        validate: if args.validate { None } else { Some(false) },
        trace: args.trace,
        chaos: parse_chaos_specs(args)?,
    };
    Ok(frame)
}

/// Parses the raw `--chaos` entries into validated wire specs.
fn parse_chaos_specs(args: &RequestArgs) -> Result<Vec<fdx_serve::ChaosSpec>, String> {
    let mut specs = Vec::new();
    for entry in &args.chaos {
        // Accepted spellings: `point`, `point=value`, `point:times`.
        let (name, times, value) = if let Some((n, v)) = entry.split_once('=') {
            let v: f64 = v
                .parse()
                .map_err(|_| format!("--chaos: bad value in {entry:?}"))?;
            (n, None, Some(v))
        } else if let Some((n, t)) = entry.split_once(':') {
            let t: u64 = t
                .parse()
                .map_err(|_| format!("--chaos: bad count in {entry:?}"))?;
            (n, Some(t), None)
        } else {
            (entry.as_str(), None, None)
        };
        let point = fdx_serve::protocol::intern_fault_point(name).ok_or_else(|| {
            format!(
                "--chaos: unknown fault point {name:?} (known: {})",
                fdx_serve::protocol::FAULT_POINTS.join(", ")
            )
        })?;
        specs.push(fdx_serve::ChaosSpec {
            point,
            times,
            value,
        });
    }
    Ok(specs)
}

/// `fdx request`: one exchange with a running server, retrying
/// `overloaded`/connect failures on the deterministic backoff schedule.
/// Idempotent forms — session ops and `--dataset` discovers — also retry
/// dropped connections, so a server restart mid-session is invisible.
fn request(args: &RequestArgs) -> Result<(), String> {
    let policy = fdx_serve::RetryPolicy {
        retries: args.retries,
        ..fdx_serve::RetryPolicy::default()
    };
    if args.shutdown {
        let line = fdx_serve::shutdown_line(&args.id);
        let resp = fdx_serve::client::send_line_with_retry(&args.addr, &line, &policy)
            .map_err(|e| format!("request: {e}"))?;
        println!("{}", resp.raw_line());
        return Ok(());
    }
    if let Some(line) = session_op_line(args)? {
        let resp = fdx_serve::send_idempotent_line(&args.addr, &line, &policy)
            .map_err(|e| format!("request: {e}"))?;
        println!("{}", resp.raw_line());
        return if resp.is_ok() {
            Ok(())
        } else {
            Err(format!(
                "request {}: {} ({})",
                resp.id,
                resp.code.as_deref().unwrap_or("error"),
                resp.detail.as_deref().unwrap_or("no detail")
            ))
        };
    }
    let csv = match args.path.as_deref() {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => String::new(), // --dataset discover: the handle is the payload
    };
    let frame = build_request_frame(args, csv)?;
    let resp = if args.dataset.is_some() {
        // Handle discovers are idempotent (cached results replay verbatim),
        // so they may ride through a dropped connection.
        fdx_serve::send_idempotent_line(&args.addr, &frame.to_line(), &policy)
            .map_err(|e| format!("request: {e}"))?
    } else {
        fdx_serve::request(&args.addr, &frame, &policy).map_err(|e| format!("request: {e}"))?
    };
    println!("{}", resp.raw_line());
    if let Some(trace) = &resp.trace {
        // Same waterfall `fdx discover --trace` prints, captured remotely.
        eprint!("{}", fdx_obs::render_phase_tree(trace));
    }
    if resp.is_ok() {
        Ok(())
    } else {
        Err(format!(
            "request {}: {} ({})",
            resp.id,
            resp.code.as_deref().unwrap_or("error"),
            resp.detail.as_deref().unwrap_or("no detail")
        ))
    }
}

/// Builds the wire line for a session op (`--upload`/`--open`/`--close`),
/// or `None` when the request is a discover/shutdown form.
fn session_op_line(args: &RequestArgs) -> Result<Option<String>, String> {
    if args.upload {
        let path = args.path.as_deref().ok_or("request: missing <file.csv>")?;
        let csv = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let chaos = parse_chaos_specs(args)?;
        return Ok(Some(fdx_serve::upload_line(&args.id, &csv, &chaos)));
    }
    if let Some(handle) = &args.open {
        return Ok(Some(fdx_serve::open_line(&args.id, handle)));
    }
    if let Some(handle) = &args.close {
        return Ok(Some(fdx_serve::close_line(&args.id, handle)));
    }
    Ok(None)
}

/// `fdx stats`: one `stats` exchange with a running server — the raw JSON
/// reply by default, or a rendered table with `--text`. Stats is
/// idempotent, so the exchange retries across dropped connections.
fn stats(args: &StatsArgs) -> Result<(), String> {
    let resp = fdx_serve::stats_request(
        &args.addr,
        "stats-1",
        args.journal,
        &fdx_serve::RetryPolicy::default(),
    )
    .map_err(|e| format!("stats: {e}"))?;
    if !resp.is_ok() {
        return Err(format!(
            "stats: {} ({})",
            resp.code.as_deref().unwrap_or("error"),
            resp.detail.as_deref().unwrap_or("no detail")
        ));
    }
    if args.text {
        print!("{}", render_stats_text(&resp.raw));
    } else {
        println!("{}", resp.raw_line());
    }
    Ok(())
}

/// `fdx top`: periodically re-polled `fdx stats --text`. Errors after the
/// first successful poll are reported and polling continues (the server
/// may be briefly saturated — that is exactly when watching it matters).
fn top(args: &TopArgs) -> Result<(), String> {
    let mut poll: u64 = 0;
    loop {
        poll += 1;
        // No retries: a missed poll is itself the signal when watching live.
        match fdx_serve::stats_request(
            &args.addr,
            &format!("top-{poll}"),
            Some(args.journal),
            &fdx_serve::RetryPolicy::none(),
        ) {
            Ok(resp) if resp.is_ok() => {
                println!("== {}  poll {}", args.addr, poll);
                print!("{}", render_stats_text(&resp.raw));
            }
            Ok(resp) => println!(
                "== {}  poll {}: error {}",
                args.addr,
                poll,
                resp.code.as_deref().unwrap_or("?")
            ),
            Err(e) if poll == 1 => return Err(format!("top: {e}")),
            Err(e) => println!("== {}  poll {}: {e}", args.addr, poll),
        }
        if args.count.is_some_and(|c| poll >= c) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(args.interval_secs));
    }
}

/// Renders a `stats` reply document as a compact table: server tallies,
/// shed-pressure percentiles, and the journal tail (oldest first).
fn render_stats_text(raw: &fdx_obs::json::JsonValue) -> String {
    let u = |k: &str| raw.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let f = |k: &str| raw.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "uptime {:.1}s  workers {}  queue {}/{}  inflight {}",
        f("uptime_secs"),
        u("workers"),
        u("queue_depth"),
        u("queue_cap"),
        u("inflight"),
    );
    let _ = writeln!(
        out,
        "requests {}  completed {}  shed {}  panics {}  bad_frames {}  \
         deadline_exceeded {}  abandoned {}  stats {}",
        u("requests"),
        u("completed"),
        u("shed"),
        u("panics"),
        u("bad_frames"),
        u("deadline_exceeded"),
        u("abandoned"),
        u("stats_requests"),
    );
    // Session/snapshot counters appear once a session op has run (or a
    // recovery scan found snapshots); silent otherwise to keep the plain
    // serve view compact.
    let counters = raw.get("counters");
    let c = |k: &str| {
        counters
            .and_then(|o| o.get(k))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let session_total = c("fdx.session.uploads")
        + c("fdx.session.opens")
        + c("fdx.session.closes")
        + c("fdx.session.cache_hits")
        + c("fdx.session.cache_misses")
        + c("fdx.snapshot.writes")
        + c("fdx.snapshot.recovered")
        + c("fdx.snapshot.quarantined");
    if session_total > 0 {
        let resident = raw
            .get("gauges")
            .and_then(|o| o.get("fdx.session.resident_bytes"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let _ = writeln!(
            out,
            "sessions: uploads {}  opens {}  closes {}  cache {}/{} hit  \
             pair_stats {}/{} hit  evictions {}  warm_starts {}  resident {:.0}B",
            c("fdx.session.uploads"),
            c("fdx.session.opens"),
            c("fdx.session.closes"),
            c("fdx.session.cache_hits"),
            c("fdx.session.cache_hits") + c("fdx.session.cache_misses"),
            c("fdx.session.stats_hits"),
            c("fdx.session.stats_hits") + c("fdx.session.stats_misses"),
            c("fdx.session.evictions"),
            c("fdx.session.warm_starts"),
            resident,
        );
        let _ = writeln!(
            out,
            "snapshots: writes {}  recovered {}  quarantined {}  conn_rejected {}",
            c("fdx.snapshot.writes"),
            c("fdx.snapshot.recovered"),
            c("fdx.snapshot.quarantined"),
            c("fdx.session.conn_rejected"),
        );
    }
    for name in ["queue_wait_ms", "service_ms"] {
        if let Some(h) = raw.get(name) {
            let hu = |k: &str| h.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
            let mean = h.get("mean").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{name:<14} count {:<6} mean {mean:>8.1}  p50<={}  p95<={}  p99<={}",
                hu("count"),
                hu("p50"),
                hu("p95"),
                hu("p99"),
            );
        }
    }
    if let Some(journal) = raw.get("journal").and_then(|j| j.as_arr()) {
        if !journal.is_empty() {
            let _ = writeln!(out, "journal (oldest first):");
            // A session miss that started from kept pair statistics
            // reads a zero transform.
            let _ = writeln!(
                out,
                "  {:>5}  {:<18} {:<18} {:<16} {:>4}  {:>8}  {:>8}  {:>11}  {:>7}",
                "seq",
                "id",
                "outcome",
                "session",
                "rung",
                "wait_s",
                "total_s",
                "transform_s",
                "threads"
            );
            for e in journal {
                let es = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("-");
                let eu = |k: &str| e.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
                let ef = |k: &str| e.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
                let transform = e
                    .get("phases")
                    .and_then(|p| p.get("transform"))
                    .and_then(|v| v.as_f64())
                    .map_or("-".to_string(), |secs| format!("{secs:.3}"));
                let _ = writeln!(
                    out,
                    "  {:>5}  {:<18} {:<18} {:<16} {:>4}  {:>8.3}  {:>8.3}  {:>11}  {:>7}",
                    eu("seq"),
                    es("id"),
                    es("outcome"),
                    es("session"),
                    eu("rung"),
                    ef("queue_wait_secs"),
                    ef("total_secs"),
                    transform,
                    eu("threads"),
                );
            }
        }
    }
    out
}

fn load(path: &str) -> Result<Dataset, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let raw = String::from_utf8(bytes).map_err(|e| {
        format!(
            "{path}: not valid UTF-8 (first invalid byte at offset {}); convert the file to UTF-8 and retry",
            e.utf8_error().valid_up_to()
        )
    })?;
    read_csv_str(&raw).map_err(|e| format!("{path}: {e}"))
}

fn build_config(options: &DiscoverOptions) -> FdxConfig {
    let mut cfg = FdxConfig::default();
    if let Some(noise) = options.noise {
        cfg = cfg.for_noise_rate(noise);
    }
    if let Some(t) = options.threshold {
        cfg.threshold = t;
    }
    if let Some(s) = options.sparsity {
        cfg.sparsity = s;
    }
    if let Some(l) = options.min_lift {
        cfg.min_lift = l;
    }
    if let Some(o) = options.ordering {
        cfg.ordering = o;
    }
    if let Some(seed) = options.seed {
        cfg.transform.seed = seed;
    }
    if let Some(threads) = options.threads {
        cfg = cfg.with_threads(threads);
    }
    if let Some(budget) = options.time_budget {
        cfg.time_budget = Some(budget);
    }
    cfg.validate = options.validate;
    cfg
}

/// Maps the CLI ingest flags onto an `fdx_data::IngestConfig`.
fn build_ingest_config(options: &DiscoverOptions) -> IngestConfig {
    IngestConfig {
        chunk_rows: options.chunk_rows,
        on_bad_row: match options.on_bad_row {
            OnBadRow::Abort => BadRowPolicy::Abort,
            OnBadRow::Skip => BadRowPolicy::Skip,
            // args::parse guarantees the path is present for this policy.
            OnBadRow::Quarantine => BadRowPolicy::Quarantine(
                options
                    .quarantine
                    .as_deref()
                    .unwrap_or("quarantine.jsonl")
                    .into(),
            ),
        },
        memory_budget: options.memory_budget,
    }
}

fn discover(path: &str, options: &DiscoverOptions) -> Result<(), String> {
    let cfg = build_config(options);
    let observing = options.trace || options.metrics.is_some();
    if observing {
        // Start from a clean slate so the export covers exactly this run.
        fdx_obs::set_enabled(true);
        fdx_obs::Registry::global().reset();
        let _ = fdx_obs::take_trace();
    }
    // Every discover goes through the chunked out-of-core reader; with the
    // default flags it reconstructs the identical dataset a resident read
    // would (asserted in fdx_data), so this is a pure superset.
    let run = fdx_data::ingest_csv_file(path, &build_ingest_config(options))
        .map_err(|e| e.to_string())
        .map(
            |Ingested {
                 dataset, health, ..
             }| (dataset, health),
        )
        .and_then(|(data, ingest_health)| {
            Fdx::new(cfg)
                .discover(&data)
                .map_err(|e| e.to_string())
                .map(|mut result| {
                    result.health.ingest = Some(ingest_health);
                    (result, data)
                })
        });
    let trace = if observing {
        fdx_obs::set_enabled(false);
        fdx_obs::take_trace()
    } else {
        Vec::new()
    };
    let (result, data) = run?;
    if options.heatmap {
        println!(
            "{}",
            render_autoregression_heatmap(&result.autoregression, data.schema())
        );
    }
    if result.fds.is_empty() {
        println!("no functional dependencies found");
    } else {
        print!("{}", result.fds.render(data.schema()));
    }
    eprintln!(
        "# {} rows x {} attributes; transform {:.3}s, model {:.3}s",
        data.nrows(),
        data.ncols(),
        result.timings.transform_secs,
        result.timings.model_secs()
    );
    eprint!("# {}", result.health.render());
    if options.trace {
        eprint!("{}", fdx_obs::render_phase_tree(&trace));
    }
    if let Some(mpath) = &options.metrics {
        let mut out = String::new();
        out.push_str(&result.summary_json());
        out.push('\n');
        for root in &trace {
            out.push_str(
                &fdx_obs::json::Obj::new()
                    .str_("kind", "phase")
                    .raw("tree", &root.to_json())
                    .finish(),
            );
            out.push('\n');
        }
        out.push_str(&fdx_obs::export_jsonl(
            &fdx_obs::Registry::global().snapshot(),
        ));
        // Crash-safe: a killed process must never leave truncated JSONL.
        fdx_obs::write_atomic(std::path::Path::new(mpath), &out)
            .map_err(|e| format!("{mpath}: {e}"))?;
    }
    if observing {
        fdx_obs::Registry::global().reset();
    }
    if options.strict && result.health.degraded() {
        return Err(format!(
            "strict: run degraded (rung {}, {} recoveries)",
            result.health.rung,
            result.health.recoveries.len()
        ));
    }
    Ok(())
}

fn profile(path: &str) -> Result<(), String> {
    let data = load(path)?;
    let result = Fdx::new(FdxConfig::default())
        .discover(&data)
        .map_err(|e| e.to_string())?;
    let mut in_fd = vec![false; data.ncols()];
    for (x, y) in result.fds.edge_set() {
        in_fd[x] = true;
        in_fd[y] = true;
    }
    let name_w = (0..data.ncols())
        .map(|a| data.schema().name(a).len())
        .max()
        .unwrap_or(6)
        .max(6);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>9}  {:>7}  {:>7}  dependency",
        "column", "distinct", "nulls", "null%"
    );
    for (a, &used) in in_fd.iter().enumerate() {
        let col = data.column(a);
        let nulls = col.null_count();
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>9}  {:>7}  {:>6.1}%  {}",
            data.schema().name(a),
            col.distinct_count(),
            nulls,
            100.0 * nulls as f64 / data.nrows().max(1) as f64,
            if used { "yes" } else { "-" }
        );
    }
    print!("{out}");
    println!("\ndependencies:");
    if result.fds.is_empty() {
        println!("  (none)");
    } else {
        for fd in result.fds.iter() {
            println!("  {}", fd.display(data.schema()));
        }
    }
    Ok(())
}

fn score(path: &str, lhs_names: &[String], rhs_name: &str) -> Result<(), String> {
    let data = load(path)?;
    let resolve = |name: &str| {
        data.schema()
            .id_of(name)
            .ok_or_else(|| format!("no column named {name:?} (have: {})", data.schema()))
    };
    let lhs: Vec<usize> = lhs_names
        .iter()
        .map(|n| resolve(n))
        .collect::<Result<_, _>>()?;
    let rhs = resolve(rhs_name)?;
    if lhs.contains(&rhs) {
        return Err("rhs attribute may not appear in lhs".into());
    }
    let s = score_fd(&data, &lhs, rhs);
    println!("FD        {} -> {}", lhs_names.join(","), rhs_name);
    println!(
        "conditional P(rhs agrees | lhs agrees) = {:.4}",
        s.conditional
    );
    println!("baseline    P(rhs agrees)              = {:.4}", s.baseline);
    println!("lift        (rho - beta)/(1 - beta)    = {:.4}", s.lift);
    println!(
        "support     lhs-agreeing tuple pairs   = {}",
        s.support_pairs
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::DiscoverOptions;

    #[test]
    fn config_mapping() {
        let opts = DiscoverOptions {
            threshold: Some(0.3),
            noise: Some(0.1),
            validate: false,
            ..Default::default()
        };
        let cfg = build_config(&opts);
        // Explicit threshold overrides the noise-derived one.
        assert_eq!(cfg.threshold, 0.3);
        assert!(!cfg.validate);
        assert!(cfg.min_lift < 0.85);
        assert_eq!(cfg.threads, None);
        let threaded = build_config(&DiscoverOptions {
            threads: Some(3),
            ..Default::default()
        });
        assert_eq!(threaded.threads, Some(3));
        assert_eq!(threaded.transform.threads, Some(3));
    }

    /// The obs registry and trace are process-global: discovers with
    /// `--trace`/`--metrics` reset and read them, and every glasso solve sets
    /// the `fdx.glasso.*` gauges. So each test that runs a discover holds
    /// this lock.
    static OBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn discover_and_profile_on_temp_csv() {
        let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("fdx_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut csv = String::from("zip,city\n");
        for i in 0..60 {
            let zip = i % 12;
            csv.push_str(&format!("z{zip},c{}\n", zip / 3));
        }
        std::fs::write(&path, csv).unwrap();
        let p = path.to_str().unwrap();
        discover(p, &DiscoverOptions::default()).unwrap();
        profile(p).unwrap();
        score(p, &["zip".to_string()], "city").unwrap();
        assert!(score(p, &["city".to_string()], "nope").is_err());
        assert!(score(p, &["city".to_string()], "city").is_err());
    }

    #[test]
    fn discover_writes_metrics_jsonl() {
        let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("fdx_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("m.csv");
        let mut csv = String::from("zip,city,state\n");
        for i in 0..80 {
            let zip = i % 16;
            csv.push_str(&format!("z{zip},c{},s{}\n", zip / 2, zip / 8));
        }
        std::fs::write(&csv_path, csv).unwrap();
        let metrics_path = dir.join("m.jsonl");
        let opts = DiscoverOptions {
            trace: true,
            metrics: Some(metrics_path.to_str().unwrap().to_string()),
            ..Default::default()
        };
        discover(csv_path.to_str().unwrap(), &opts).unwrap();
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.contains(r#""kind":"run_summary""#), "{first}");
        assert!(
            first.contains(r#""health":{"kind":"health","rung":1"#),
            "health report missing from run summary: {first}"
        );
        assert!(text.contains(r#""kind":"phase""#), "phase tree missing");
        assert!(text.contains("fdx.discover"), "root span missing");
        assert!(
            text.contains(r#""name":"fdx.glasso.summary""#),
            "glasso convergence summary missing:\n{text}"
        );
        for phase in [
            "fdx.transform",
            "fdx.covariance",
            "fdx.ordering",
            "fdx.factorization",
            "fdx.generation",
            "fdx.validation.repair",
            "fdx.validation.scoring",
        ] {
            assert!(
                text.contains(phase),
                "{phase} missing from metrics:\n{text}"
            );
        }
        assert!(
            text.contains("fdx.validate.score_calls"),
            "validation scoring counters missing from metrics:\n{text}"
        );
        assert!(
            ["avx512", "popcnt", "portable"]
                .iter()
                .any(|k| first.contains(&format!(r#""popcount":"{k}""#))),
            "popcount kernel missing from run summary: {first}"
        );
        assert!(
            ["avx512bw", "portable"]
                .iter()
                .any(|k| first.contains(&format!(r#""compare":"{k}""#))),
            "compare kernel missing from run summary: {first}"
        );
        let counter = |name: &str| -> u64 {
            let prefix = format!(r#"{{"kind":"counter","name":"{name}","value":"#);
            text.lines()
                .find_map(|line| line.strip_prefix(prefix.as_str()))
                .and_then(|rest| rest.trim_end_matches('}').parse().ok())
                .unwrap_or_else(|| panic!("{name} missing from metrics:\n{text}"))
        };
        for name in ["fdx.transform.gram_us", "fdx.transform.gram_words"] {
            counter(name);
        }
        // The block build's time includes its sort's.
        let (sort, pack) = (
            counter("fdx.transform.sort_us"),
            counter("fdx.transform.pack_us"),
        );
        assert!(sort <= pack, "sort_us {sort} > pack_us {pack}");
        // The interner's memo answers a share of the short lookups, and
        // validation counts pair agreement without a partition per score.
        let (lookups, hits) = (
            counter("fdx.ingest.short_lookups"),
            counter("fdx.ingest.memo_hits"),
        );
        assert!(lookups > 0, "no short lookups counted");
        assert!(
            hits <= lookups,
            "memo_hits {hits} > short_lookups {lookups}"
        );
        assert!(counter("fdx.validate.pair_counts") > 0);
    }

    #[test]
    fn gram_words_count_no_batch_padding() {
        let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("fdx_cli_gram_words_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("w.csv");
        // 4000 rows pack 63-word block rows, so one Gram folds a batch of 8
        // sort blocks and 20 attributes fold as 8, 8 and 4. A last batch
        // that counted its 4 empty slots would add 4 · 63 words to every
        // one of its 210 row pairs.
        let (rows, k, w) = (4000u64, 20u64, 63u64);
        let mut csv = (0..k)
            .map(|a| format!("a{a}"))
            .collect::<Vec<_>>()
            .join(",");
        csv.push('\n');
        for i in 0..rows {
            let row: Vec<String> = (0..k)
                .map(|a| format!("v{}", (i * (a + 7)) % (3 + a)))
                .collect();
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        std::fs::write(&csv_path, csv).unwrap();
        let metrics_path = dir.join("w.jsonl");
        let opts = DiscoverOptions {
            threads: Some(1),
            validate: false,
            metrics: Some(metrics_path.to_str().unwrap().to_string()),
            ..Default::default()
        };
        discover(csv_path.to_str().unwrap(), &opts).unwrap();
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        let prefix = r#"{"kind":"counter","name":"fdx.transform.gram_words","value":"#;
        let words: u64 = text
            .lines()
            .find_map(|line| line.strip_prefix(prefix))
            .and_then(|rest| rest.trim_end_matches('}').parse().ok())
            .unwrap_or_else(|| panic!("gram_words missing from metrics:\n{text}"));
        // One Gram per block would count k(k+1)/2 row pairs of w words, k
        // times over.
        assert_eq!(words, k * (k * (k + 1) / 2) * w);
    }

    #[test]
    fn discover_metrics_carry_the_solves_glasso_gauges() {
        let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("fdx_cli_glasso_gauges_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("g.csv");
        // Two unrelated groups, zip -> city and tone -> hue, so that the
        // λ > 0 solve screens the pair covariance into components.
        let mut csv = String::from("zip,city,tone,hue\n");
        for i in 0..120 {
            let (zip, tone) = (i % 12, (i * 7 / 5) % 10);
            csv.push_str(&format!("z{zip},c{},t{tone},h{}\n", zip / 3, tone / 2));
        }
        std::fs::write(&csv_path, csv).unwrap();
        let metrics_path = dir.join("g.jsonl");
        let opts = DiscoverOptions {
            sparsity: Some(0.05),
            metrics: Some(metrics_path.to_str().unwrap().to_string()),
            ..Default::default()
        };
        discover(csv_path.to_str().unwrap(), &opts).unwrap();
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        let records: Vec<fdx_obs::json::JsonValue> = text
            .lines()
            .map(|line| fdx_obs::json::parse(line).unwrap())
            .collect();
        let health = records[0].get("health").unwrap();
        for (gauge, field) in [
            ("fdx.glasso.components", "glasso_components"),
            ("fdx.glasso.largest_component", "glasso_largest_component"),
        ] {
            let recorded = records
                .iter()
                .find(|r| {
                    r.get("kind").and_then(|v| v.as_str()) == Some("gauge")
                        && r.get("name").and_then(|v| v.as_str()) == Some(gauge)
                })
                .and_then(|r| r.get("value")?.as_f64())
                .unwrap_or_else(|| panic!("{gauge} missing from metrics:\n{text}"));
            let reported = health.get(field).and_then(|v| v.as_f64()).unwrap();
            assert!(recorded >= 1.0, "{gauge} = {recorded}:\n{text}");
            assert_eq!(recorded, reported, "{gauge} vs health {field}:\n{text}");
        }
    }

    #[test]
    fn request_frame_building_maps_chaos_spellings() {
        let args = RequestArgs {
            id: "r1".into(),
            deadline_ms: Some(500),
            chaos: vec![
                "glasso.force_no_converge".into(),
                "clock.skew=1e6".into(),
                "udut.force_not_pd:1".into(),
            ],
            validate: false,
            ..RequestArgs::default()
        };
        let frame = build_request_frame(&args, "a,b\n1,2\n".into()).unwrap();
        assert_eq!(frame.id, "r1");
        assert_eq!(frame.deadline_ms, Some(500));
        assert_eq!(frame.validate, Some(false));
        assert_eq!(frame.chaos.len(), 3);
        assert_eq!(frame.chaos[0].point, "glasso.force_no_converge");
        assert_eq!(frame.chaos[1].value, Some(1e6));
        assert_eq!(frame.chaos[2].times, Some(1));
        // Validation defaults to "absent" (server default true).
        let frame = build_request_frame(&RequestArgs::default(), "a\n1\n".into()).unwrap();
        assert_eq!(frame.validate, None);
        // Unknown fault points are rejected client-side with the full list.
        let bad = RequestArgs {
            chaos: vec!["nope.nope".into()],
            ..RequestArgs::default()
        };
        let err = build_request_frame(&bad, String::new()).unwrap_err();
        assert!(err.contains("unknown fault point"), "{err}");
        assert!(err.contains("glasso.force_no_converge"), "{err}");
    }

    #[test]
    fn metrics_file_write_is_atomic_no_temp_left_behind() {
        let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("fdx_cli_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("a.csv");
        let mut csv = String::from("zip,city\n");
        for i in 0..60 {
            let zip = i % 12;
            csv.push_str(&format!("z{zip},c{}\n", zip / 3));
        }
        std::fs::write(&csv_path, csv).unwrap();
        let metrics_path = dir.join("a.jsonl");
        // Pre-existing truncated output from a "killed" earlier run.
        std::fs::write(&metrics_path, "{\"kind\":\"run_su").unwrap();
        let opts = DiscoverOptions {
            metrics: Some(metrics_path.to_str().unwrap().to_string()),
            ..Default::default()
        };
        discover(csv_path.to_str().unwrap(), &opts).unwrap();
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(text.lines().next().unwrap().contains("run_summary"));
        assert!(text.lines().all(|l| l.ends_with('}')), "truncated line");
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
    }

    #[test]
    fn request_frame_carries_trace_flag() {
        let args = RequestArgs {
            trace: true,
            ..RequestArgs::default()
        };
        let frame = build_request_frame(&args, "a\n1\n".into()).unwrap();
        assert!(frame.trace);
        assert!(frame.to_line().contains("\"trace\":true"));
    }

    #[test]
    fn render_stats_text_tabulates_reply() {
        let stats = fdx_serve::ServerStats {
            uptime_secs: 12.25,
            workers: 4,
            queue_depth: 2,
            queue_cap: 64,
            inflight: 4,
            requests: 120,
            completed: 110,
            shed: 3,
            deadline_exceeded: 2,
            stats_requests: 5,
            ..fdx_serve::ServerStats::default()
        };
        let entry = fdx_obs::journal::JournalEntry {
            seq: 9,
            id: "r9".into(),
            outcome: "deadline_exceeded".into(),
            session: Some("00000000000000aa".into()),
            queue_wait_secs: 0.125,
            total_secs: 0.5,
            phases: Vec::new(),
            rung: 0,
            threads: 1,
        };
        let miss = fdx_obs::journal::JournalEntry {
            seq: 10,
            id: "r10".into(),
            outcome: "ok".into(),
            total_secs: 0.75,
            phases: vec![("transform".into(), 0.0), ("glasso".into(), 0.5)],
            ..entry.clone()
        };
        let line = fdx_serve::protocol::stats_frame(
            "s1",
            &stats,
            &fdx_obs::Snapshot::default(),
            &[entry, miss],
        );
        let resp = fdx_serve::Response::parse(&line).unwrap();
        let text = render_stats_text(&resp.raw);
        assert!(
            text.contains("uptime 12.2s  workers 4  queue 2/64  inflight 4"),
            "{text}"
        );
        assert!(text.contains("requests 120"), "{text}");
        assert!(text.contains("queue_wait_ms"), "{text}");
        assert!(text.contains("journal (oldest first):"), "{text}");
        assert!(text.contains("deadline_exceeded"), "{text}");
        assert!(text.contains("r9"), "{text}");
        assert!(text.contains("00000000000000aa"), "{text}");
        // An entry without phases shows no transform; a miss from kept pair
        // statistics shows a zero one.
        assert!(text.contains("0.500            -"), "{text}");
        assert!(text.contains("0.750        0.000"), "{text}");
        // No session ops recorded → the session summary lines stay silent.
        assert!(!text.contains("sessions:"), "{text}");

        let counters = [
            ("fdx.session.cache_misses", 4),
            ("fdx.session.stats_hits", 3),
            ("fdx.session.stats_misses", 1),
        ];
        let snapshot = fdx_obs::Snapshot {
            counters: counters.map(|(k, v)| (k.to_string(), v)).to_vec(),
            ..fdx_obs::Snapshot::default()
        };
        let line = fdx_serve::protocol::stats_frame("s2", &stats, &snapshot, &[]);
        let text = render_stats_text(&fdx_serve::Response::parse(&line).unwrap().raw);
        assert!(text.contains("cache 0/4 hit  pair_stats 3/4 hit"), "{text}");
    }

    #[test]
    fn stats_and_top_against_live_server() {
        let handle = fdx_serve::Server::start(fdx_serve::ServeConfig {
            threads: Some(1),
            ..fdx_serve::ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        stats(&StatsArgs {
            addr: addr.clone(),
            text: false,
            journal: None,
        })
        .unwrap();
        stats(&StatsArgs {
            addr: addr.clone(),
            text: true,
            journal: Some(4),
        })
        .unwrap();
        top(&TopArgs {
            addr: addr.clone(),
            interval_secs: 0.01,
            count: Some(2),
            journal: 4,
        })
        .unwrap();
        // A dead address fails fast on the first poll.
        handle.shutdown();
        let report = handle.wait();
        assert_eq!(report.stats_requests, 4);
        assert!(top(&TopArgs {
            addr,
            interval_secs: 0.01,
            count: Some(1),
            journal: 1,
        })
        .is_err());
    }

    #[test]
    fn discover_quarantines_bad_rows() {
        let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("fdx_cli_quarantine_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.csv");
        let mut csv = String::from("zip,city\n");
        for i in 0..60 {
            let zip = i % 12;
            csv.push_str(&format!("z{zip},c{}\n", zip / 3));
            if i == 30 {
                csv.push_str("ragged,row,extra,fields\n");
            }
        }
        std::fs::write(&path, csv).unwrap();
        let p = path.to_str().unwrap();

        // The default abort policy fails with a typed, line-numbered error.
        let err = discover(p, &DiscoverOptions::default()).unwrap_err();
        assert!(err.contains("line"), "{err}");

        // Quarantine: the run succeeds and the bad row lands in the file.
        let qpath = dir.join("bad.jsonl");
        let _ = std::fs::remove_file(&qpath);
        let opts = DiscoverOptions {
            on_bad_row: OnBadRow::Quarantine,
            quarantine: Some(qpath.to_str().unwrap().to_string()),
            ..Default::default()
        };
        discover(p, &opts).unwrap();
        let q = std::fs::read_to_string(&qpath).unwrap();
        assert!(q.contains(r#""kind":"quarantine""#), "{q}");
        assert!(q.contains("ragged"), "{q}");

        // The same run under --strict fails: quarantined rows degrade it.
        let strict = DiscoverOptions {
            strict: true,
            ..opts
        };
        let err = discover(p, &strict).unwrap_err();
        assert!(err.contains("strict"), "{err}");
    }

    #[test]
    fn discover_respects_memory_budget() {
        let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("fdx_cli_budget_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.csv");
        let mut csv = String::from("zip,city\n");
        for i in 0..400 {
            let zip = i % 12;
            csv.push_str(&format!("z{zip},c{}\n", zip / 3));
        }
        std::fs::write(&path, csv).unwrap();
        let p = path.to_str().unwrap();

        // A tight budget degrades to sampled rows but still completes.
        let opts = DiscoverOptions {
            chunk_rows: Some(32),
            memory_budget: Some(4000),
            ..Default::default()
        };
        discover(p, &opts).unwrap();
        // Under --strict the sampled rung is a failure.
        let strict = DiscoverOptions {
            strict: true,
            ..opts
        };
        assert!(discover(p, &strict).is_err());
        // An impossible budget is a typed error, not a hang or a panic.
        let impossible = DiscoverOptions {
            chunk_rows: Some(32),
            memory_budget: Some(16),
            ..Default::default()
        };
        let err = discover(p, &impossible).unwrap_err();
        assert!(err.contains("memory budget"), "{err}");
    }

    #[test]
    fn missing_file_reports_path() {
        let err = load("/definitely/not/here.csv").unwrap_err();
        assert!(err.contains("here.csv"));
    }

    #[test]
    fn non_utf8_file_reports_path_and_encoding() {
        let dir = std::env::temp_dir().join("fdx_cli_utf8_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("latin1.csv");
        // "a,b\ncafé,x\n" with é encoded as Latin-1 0xE9: invalid UTF-8.
        std::fs::write(&path, b"a,b\ncaf\xE9,x\n").unwrap();
        let err = load(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("latin1.csv"), "{err}");
        assert!(err.contains("not valid UTF-8"), "{err}");
    }

    #[test]
    fn strict_mode_fails_only_degraded_runs() {
        let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("fdx_cli_strict_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.csv");
        let mut csv = String::from("zip,city\n");
        for i in 0..60 {
            let zip = i % 12;
            csv.push_str(&format!("z{zip},c{}\n", zip / 3));
        }
        std::fs::write(&path, csv).unwrap();
        let p = path.to_str().unwrap();
        let opts = DiscoverOptions {
            strict: true,
            ..Default::default()
        };
        discover(p, &opts).expect("clean run must pass --strict");
        // Force a ladder descent: the same run must now exit non-zero.
        let _f = fdx_obs::faults::arm_times("glasso.force_no_converge", 1);
        let err = discover(p, &opts).unwrap_err();
        assert!(err.contains("strict"), "{err}");
        // Without --strict a degraded run still succeeds.
        let _f = fdx_obs::faults::arm_times("glasso.force_no_converge", 1);
        discover(p, &DiscoverOptions::default()).expect("degraded run passes without --strict");
    }
}
