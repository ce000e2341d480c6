//! `abp` — regenerate the tables and figures of *Adaptive Beacon
//! Placement* (Bulusu, Heidemann & Estrin, ICDCS 2001).
//!
//! ```text
//! abp <command> [options]
//!
//! commands:
//!   table1            print the simulation-parameter table
//!   fig1              granularity of localization regions (uniform grids)
//!   fig4              mean error vs density, ideal propagation
//!   fig5              improvement in mean/median error, 3 algorithms, ideal
//!   fig6              mean error vs density, noise 0/0.1/0.3/0.5
//!   fig7|fig8|fig9    Random/Max/Grid improvements across noise levels
//!   bound             centroid error vs range-overlap ratio R/d (sec. 2.2)
//!   ablation          all five algorithms side by side
//!   noise-styles      the three readings of the noise model's u draw
//!   robustness        Grid vs partial exploration and GPS error (sec. 3.1)
//!   faults            error and placement ranking under injected faults:
//!                     beacon death, burst loss, GPS outages (sec. 6)
//!   solspace          solution-space density sweep (sec. 1, contribution 3)
//!   multilat          the algorithms recast for multilateration (sec. 6);
//!                     surveys at 4 m or coarser unless --step is given
//!   batch             k beacons at once: greedy vs one-shot top-k (sec. 6)
//!   duel              paired Grid-vs-Max comparison with significance verdicts
//!   localizers        estimator ablation: centroid vs weighted/locus/multilat;
//!                     surveys at 4 m or coarser unless --step is given
//!   heatmap           ASCII before/after heatmap of one placement step
//!   bench             time each hot kernel against its brute-force
//!                     oracle (survey sweep, noisy survey, incremental
//!                     re-survey, greedy Grid candidate scan), verify
//!                     every sample is bit-identical, and with --out write
//!                     BENCH_sweep.json (median + 95% CI per kernel,
//!                     plus steady-state allocs/trial, gated at 0; the
//!                     serve_qps block drives the daemon under load
//!                     with /metrics scraped concurrently)
//!   serve             run the online localization daemon until
//!                     SIGTERM/SIGINT: answers localize/place/info
//!                     queries over the length-prefixed TCP protocol
//!                     (docs/SERVING.md), re-surveying in the background
//!                     on applied placements via epoch snapshot swaps
//!   serve-bench       load-test the daemon in process: N client
//!                     threads over real sockets, exact p50/p95/p99
//!                     round-trip quantiles, the served-vs-batch
//!                     bit-identity gate, and allocs/request (gated at
//!                     0)
//!   top               live dashboard over a running daemon's stats
//!                     opcode: per-opcode qps and interval p50/p95/p99,
//!                     epoch, connections, rebuild activity, and the
//!                     slow-request flight recorder; full-screen on a
//!                     TTY, one line per poll when piped; reconnects
//!                     with capped exponential backoff when the daemon
//!                     restarts mid-poll
//!   serve-chaos       throw the hostile-client battery at a live
//!                     daemon: torn frames, garbage opcodes, absurd
//!                     length/count prefixes, connection floods,
//!                     slowloris dribbles, an injected handler panic,
//!                     deadline overruns, and a warm restart from the
//!                     state file; exits non-zero on the first
//!                     violated expectation (docs/SERVING.md §7)
//!   net               time-domain packet simulation (abp-net,
//!                     docs/SIMULATION.md): localization error vs
//!                     beacon interval, collision rate vs density,
//!                     network lifetime vs duty cycle — three figures
//!                     from the same deterministic event engine
//!   all               table1 + every paper figure + bound, in order
//!
//! options:
//!   --preset paper|quick|tiny   base configuration   [default: quick]
//!                               (bench: paper = 100-beacon 1 m paper scale,
//!                               quick/tiny = seconds-scale smoke)
//!   --trials N                  override trials per density
//!   --step METERS               override survey lattice step (without it,
//!                               localizers and multilat raise the preset's
//!                               step to 4 m)
//!   --threads N                 trial worker threads for figures (0 = all
//!                               cores); bench, serve and serve-bench
//!                               ignore it
//!   --seed HEX                  master seed
//!   --noise X                   noise level for ablation/duel/batch [default: 0]
//!   --beacons N                 field size for robustness/faults/batch [default: 40]
//!   --retry N                   re-run a panicked or timed-out trial up to N
//!                               more times, waiting 250 ms before the first
//!                               retry and doubling to at most 4 s; each
//!                               attempt re-derives its seed
//!                               deterministically, so healthy trials are
//!                               bit-identical with or without the flag;
//!                               every Monte-Carlo command honours it
//!   --trial-timeout DUR         abort any trial attempt running longer than
//!                               DUR (e.g. 30s, 500ms) and record a structured
//!                               timeout; combines with --retry and reaches
//!                               the same commands
//!   --repeats N                 bench only: timed samples per kernel
//!                               variant (default: preset's repeats);
//!                               raise it when a speedup CI straddles 1.0
//!   --port N                    serve/serve-bench: TCP port [default: 0,
//!                               an ephemeral port printed at startup];
//!                               top: the daemon's port (required)
//!   --clients N                 serve-bench: client threads
//!   --requests N                serve-bench: measured requests per client
//!   --metrics-port N            serve/serve-bench: also expose Prometheus
//!                               text exposition over HTTP at
//!                               127.0.0.1:N/metrics (0 = ephemeral)
//!   --interval DUR              top: delay between polls [default: 1s]
//!   --polls N                   top: render N updates then exit
//!                               (default: run until SIGTERM/SIGINT)
//!   --max-conns N               serve/serve-bench: connection cap — each
//!                               admitted connection gets its own thread;
//!                               while this many are live, new ones are
//!                               answered Overloaded and closed
//!                               [default: 256]
//!   --deadline DUR              serve: per-request handling deadline;
//!                               overruns answer DeadlineExceeded
//!                               [default: none]
//!   --idle-timeout DUR          serve: close connections idle between
//!                               frames for longer than DUR [default: 300s]
//!   --state PATH                serve: persist the published world here on
//!                               every epoch and warm-restart from it at
//!                               boot (bit-identical error map)
//!   --replay-check              net: before the sweeps, run one trial of
//!                               each experiment twice and fail unless the
//!                               event logs are byte-identical (the CI
//!                               determinism gate)
//!   --out DIR                   also write <figure>.csv files into DIR
//!   --progress                  live completed/total and ETA on stderr
//!   --report PATH               write the run report (JSON): command, seed,
//!                               config fingerprint, how the checkpoint
//!                               opened, per-figure wall time, trials,
//!                               failures, retries, timeouts and trial-time
//!                               quantiles, and the hot-path counters
//!   --checkpoint PATH           persist finished sweeps; resume from PATH
//!                               (density, improvement and fault sweeps:
//!                               fig4..fig9, ablation, noise-styles,
//!                               faults, all)
//!   --trace PATH                write a structured trace of the run: Chrome
//!                               Trace Event JSON (chrome://tracing,
//!                               Perfetto) when PATH ends in .json, JSONL
//!                               otherwise
//! ```

use abp_sim::experiments::density_error;
use abp_sim::experiments::net_sim;
use abp_sim::experiments::overlap_bound::BoundConfig;
use abp_sim::progress::{Ctx, Fanout, MetricsRecorder, Probe, ProgressProbe};
use abp_sim::runner::{resolve_threads, RunPolicy};
use abp_sim::{figures, AlgorithmKind, Figure, SimConfig, SweepCheckpoint};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

mod top;

#[derive(Debug, Clone)]
struct Options {
    command: String,
    cfg: SimConfig,
    /// The raw `--preset` name (`bench` maps it to its own scales).
    preset: String,
    noise: f64,
    /// `--beacons` when given explicitly (commands have per-command
    /// defaults).
    beacons: Option<usize>,
    /// `--step` when given explicitly (already applied to `cfg`).
    step_override: Option<f64>,
    /// `--seed` when given explicitly (already applied to `cfg`).
    seed_override: Option<u64>,
    out: Option<PathBuf>,
    retry: u32,
    trial_timeout: Option<Duration>,
    progress: bool,
    report: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    trace: Option<PathBuf>,
    /// `--repeats` when given explicitly (bench).
    repeats: Option<usize>,
    /// `--port` for serve/serve-bench (0 = ephemeral) and top (the
    /// daemon to poll, required).
    port: u16,
    /// `--clients` when given explicitly (serve-bench).
    clients: Option<usize>,
    /// `--requests` when given explicitly (serve-bench).
    requests: Option<usize>,
    /// `--metrics-port`: bind the HTTP exposition listener here.
    metrics_port: Option<u16>,
    /// `--interval` between `top` polls.
    interval: Duration,
    /// `--polls`: `top` renders this many updates then exits.
    polls: Option<u64>,
    /// `--max-conns` when given explicitly: the serve connection cap.
    max_conns: Option<usize>,
    /// `--deadline`: per-request handling budget (None = no deadline).
    deadline: Option<Duration>,
    /// `--idle-timeout` when given explicitly (serve).
    idle_timeout: Option<Duration>,
    /// `--state`: warm-restart state file (serve).
    state: Option<PathBuf>,
    /// `--replay-check`: net runs its byte-identity replay gate first.
    replay_check: bool,
}

fn usage() -> &'static str {
    "usage: abp <table1|fig1|fig4..fig9|bound|ablation|noise-styles|robustness|\
     faults|solspace|multilat|batch|duel|localizers|heatmap|bench|serve|\
     serve-bench|serve-chaos|top|net|all> \
     [--preset paper|quick|tiny] [--trials N] [--step M] [--threads N] \
     [--seed HEX] [--noise X] [--beacons N] [--out DIR] \
     [--retry N] [--trial-timeout DUR] [--repeats N] \
     [--port N] [--clients N] [--requests N] \
     [--metrics-port N] [--interval DUR] [--polls N] \
     [--max-conns N] [--deadline DUR] [--idle-timeout DUR] [--state PATH] \
     [--replay-check] \
     [--progress] [--report PATH] [--checkpoint PATH] [--trace PATH]"
}

/// Parses a human-friendly duration: a positive number with an `s`
/// (seconds) or `ms` (milliseconds) suffix, e.g. `30s`, `2.5s`, `500ms`.
/// Zero, negatives, and bare numbers are rejected up front so a typo
/// fails before any multi-minute computation starts.
fn parse_duration(flag: &str, raw: &str) -> Result<Duration, String> {
    let bad = || format!("{flag}: expected a duration like 30s or 500ms, got {raw}");
    let (digits, scale) = if let Some(v) = raw.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = raw.strip_suffix('s') {
        (v, 1.0)
    } else {
        return Err(bad());
    };
    let value: f64 = digits.parse().map_err(|_| bad())?;
    let seconds = value * scale;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err(format!("{flag} must be positive, got {raw}"));
    }
    if seconds > 86_400.0 * 365.0 {
        return Err(format!("{flag}: {raw} is longer than a year"));
    }
    Ok(Duration::from_secs_f64(seconds))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut command = None;
    let mut preset = "quick".to_string();
    let mut trials = None;
    let mut step = None;
    let mut threads = None;
    let mut seed = None;
    let mut noise = 0.0;
    let mut beacons = None;
    let mut out = None;
    let mut retry = 0u32;
    let mut trial_timeout = None;
    let mut progress = false;
    let mut report = None;
    let mut checkpoint = None;
    let mut trace = None;
    let mut repeats = None;
    let mut port = 0u16;
    let mut clients = None;
    let mut requests = None;
    let mut metrics_port = None;
    let mut interval = Duration::from_secs(1);
    let mut polls = None;
    let mut max_conns = None;
    let mut deadline = None;
    let mut idle_timeout = None;
    let mut state = None;
    let mut replay_check = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match arg.as_str() {
            "--preset" => preset = value("--preset")?,
            "--trials" => {
                trials = Some(
                    value("--trials")?
                        .parse::<usize>()
                        .map_err(|e| format!("--trials: {e}"))?,
                )
            }
            "--step" => {
                step = Some(
                    value("--step")?
                        .parse::<f64>()
                        .map_err(|e| format!("--step: {e}"))?,
                )
            }
            "--threads" => {
                threads = Some(
                    value("--threads")?
                        .parse::<usize>()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--seed" => {
                let raw = value("--seed")?;
                let raw = raw.trim_start_matches("0x");
                seed = Some(u64::from_str_radix(raw, 16).map_err(|e| format!("--seed: {e}"))?);
            }
            "--noise" => {
                noise = value("--noise")?
                    .parse::<f64>()
                    .map_err(|e| format!("--noise: {e}"))?
            }
            "--beacons" => {
                beacons = Some(
                    value("--beacons")?
                        .parse::<usize>()
                        .map_err(|e| format!("--beacons: {e}"))?,
                )
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--retry" => {
                let raw = value("--retry")?;
                let n = raw.parse::<u32>().map_err(|e| format!("--retry: {e}"))?;
                if n == 0 {
                    return Err(
                        "--retry must be at least 1 (omit the flag to disable retries)".into(),
                    );
                }
                retry = n;
            }
            "--trial-timeout" => {
                trial_timeout = Some(parse_duration(
                    "--trial-timeout",
                    &value("--trial-timeout")?,
                )?)
            }
            "--progress" => progress = true,
            "--report" => report = Some(PathBuf::from(value("--report")?)),
            "--checkpoint" => checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--repeats" => {
                let n = value("--repeats")?
                    .parse::<usize>()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if n == 0 {
                    return Err("--repeats must be at least 1".into());
                }
                repeats = Some(n);
            }
            "--port" => {
                port = value("--port")?
                    .parse::<u16>()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--clients" => {
                let n = value("--clients")?
                    .parse::<usize>()
                    .map_err(|e| format!("--clients: {e}"))?;
                if n == 0 {
                    return Err("--clients must be at least 1".into());
                }
                clients = Some(n);
            }
            "--requests" => {
                let n = value("--requests")?
                    .parse::<usize>()
                    .map_err(|e| format!("--requests: {e}"))?;
                if n == 0 {
                    return Err("--requests must be at least 1".into());
                }
                requests = Some(n);
            }
            "--metrics-port" => {
                metrics_port = Some(
                    value("--metrics-port")?
                        .parse::<u16>()
                        .map_err(|e| format!("--metrics-port: {e}"))?,
                )
            }
            "--interval" => interval = parse_duration("--interval", &value("--interval")?)?,
            "--polls" => {
                let n = value("--polls")?
                    .parse::<u64>()
                    .map_err(|e| format!("--polls: {e}"))?;
                if n == 0 {
                    return Err("--polls must be at least 1 (omit the flag to run until \
                                SIGTERM/SIGINT)"
                        .into());
                }
                polls = Some(n);
            }
            "--max-conns" => {
                let n = value("--max-conns")?
                    .parse::<usize>()
                    .map_err(|e| format!("--max-conns: {e}"))?;
                if n == 0 {
                    return Err("--max-conns must be at least 1".into());
                }
                max_conns = Some(n);
            }
            "--deadline" => deadline = Some(parse_duration("--deadline", &value("--deadline")?)?),
            "--idle-timeout" => {
                idle_timeout = Some(parse_duration("--idle-timeout", &value("--idle-timeout")?)?)
            }
            "--state" => state = Some(PathBuf::from(value("--state")?)),
            "--replay-check" => replay_check = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}"));
            }
            other => {
                if command.replace(other.to_string()).is_some() {
                    return Err("more than one command given".into());
                }
            }
        }
    }
    let command = command.ok_or_else(|| "no command given".to_string())?;
    let mut cfg = match preset.as_str() {
        "paper" => SimConfig::paper(),
        "quick" => SimConfig::quick(),
        "tiny" => SimConfig::tiny(),
        other => return Err(format!("unknown preset {other}")),
    };
    if let Some(t) = trials {
        if t == 0 {
            return Err("--trials must be at least 1".into());
        }
        cfg.trials = t;
    }
    if let Some(s) = step {
        if !s.is_finite() || s <= 0.0 {
            return Err(format!(
                "--step must be a positive number of meters, got {s}"
            ));
        }
        cfg.step = s;
    } else if matches!(command.as_str(), "localizers" | "multilat") {
        // Both run a localizer at every lattice point (Gauss-Newton for
        // multilateration), so without an explicit step they survey at
        // 4 m or coarser.
        cfg.step = cfg.step.max(4.0);
    }
    if let Some(t) = threads {
        cfg.threads = t;
    }
    if let Some(s) = seed {
        cfg.seed = s;
    }
    // Half-open on purpose, matching `PerBeaconNoise`'s contract: a noise
    // factor of 1 would let a beacon's effective range collapse to 0 (the
    // paper never exceeds 0.5). Rejecting here keeps the panic out of the
    // middle of a multi-minute sweep.
    if !noise.is_finite() || !(0.0..1.0).contains(&noise) {
        return Err(format!(
            "--noise must be in [0, 1), got {noise} (a noise factor of 1 \
             would let effective beacon ranges reach 0; the paper tops out \
             at 0.5)"
        ));
    }
    Ok(Options {
        command,
        cfg,
        preset,
        noise,
        beacons,
        step_override: step,
        seed_override: seed,
        out,
        retry,
        trial_timeout,
        progress,
        report,
        checkpoint,
        trace,
        repeats,
        port,
        clients,
        requests,
        metrics_port,
        interval,
        polls,
        max_conns,
        deadline,
        idle_timeout,
        state,
        replay_check,
    })
}

/// Checks, before any multi-minute computation starts, that `path`'s
/// parent directory exists and is writable (probed by creating and
/// removing a uniquely-named scratch file).
fn validate_output_path(flag: &str, path: &Path) -> Result<(), String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    if path.as_os_str().is_empty() {
        return Err(format!("{flag} expects a file path"));
    }
    if path.is_dir() {
        return Err(format!(
            "{flag}: {} is a directory, expected a file path",
            path.display()
        ));
    }
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if !parent.is_dir() {
        return Err(format!(
            "{flag}: parent directory {} does not exist",
            parent.display()
        ));
    }
    static PROBE_ID: AtomicU64 = AtomicU64::new(0);
    let probe = parent.join(format!(
        ".abp-write-probe-{}-{}",
        std::process::id(),
        PROBE_ID.fetch_add(1, Ordering::Relaxed)
    ));
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&probe)
    {
        Ok(_) => {
            let _ = std::fs::remove_file(&probe);
            Ok(())
        }
        Err(e) => Err(format!(
            "{flag}: parent directory {} is not writable: {e}",
            parent.display()
        )),
    }
}

/// Validates every output path the run will eventually write.
fn validate_paths(opts: &Options) -> Result<(), String> {
    if let Some(p) = &opts.report {
        validate_output_path("--report", p)?;
    }
    if let Some(p) = &opts.checkpoint {
        validate_output_path("--checkpoint", p)?;
    }
    if let Some(p) = &opts.trace {
        validate_output_path("--trace", p)?;
    }
    if let Some(p) = &opts.state {
        validate_output_path("--state", p)?;
    }
    Ok(())
}

fn emit(fig: &Figure, out: &Option<PathBuf>) -> Result<(), String> {
    println!("{}", fig.render());
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.csv", fig.id));
        std::fs::write(&path, fig.to_csv())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// The saturation density of `fig`'s series named `series`.
fn saturation(fig: &Figure, series: &str) -> Option<f64> {
    let series = fig.series.iter().find(|s| s.name == series)?;
    density_error::series_saturation_density(series, 0.1)
}

fn emit_pair(figs: (Figure, Figure), out: &Option<PathBuf>) -> Result<(), String> {
    emit(&figs.0, out)?;
    emit(&figs.1, out)
}

/// Builds the observability context from the options, runs the command,
/// then writes the run report and the trace (when requested).
fn run(opts: &Options) -> Result<(), String> {
    validate_paths(opts)?;
    let progress = opts.progress.then(ProgressProbe::new);
    let recorder = MetricsRecorder::new(resolve_threads(opts.cfg.threads));
    let checkpoint = match &opts.checkpoint {
        Some(path) => Some(
            SweepCheckpoint::open(path, opts.cfg.fingerprint())
                .map_err(|e| format!("opening checkpoint {}: {e}", path.display()))?,
        ),
        None => None,
    };
    // The report reads the counters and the trace records spans: either
    // turns the gate on, and only the trace installs a sink.
    let gated = opts.report.is_some() || opts.trace.is_some();
    if gated {
        // Start from clean counters so the outputs cover this run only
        // (repeated in-process runs share the global registry).
        abp_trace::reset_metrics();
        if opts.trace.is_some() {
            abp_trace::sink::install(abp_trace::sink::DEFAULT_CAPACITY);
            let _ = abp_trace::drain(); // discard any previous run's events
        }
        abp_trace::set_enabled(true);
    }
    let probes: Vec<&dyn Probe> = match &progress {
        Some(p) => vec![p, &recorder],
        None => vec![&recorder],
    };
    let fanout = Fanout::new(probes);
    if let (Some(path), Some(c)) = (&opts.checkpoint, &checkpoint) {
        let open = c.opened();
        fanout.checkpoint_opened(path, &open);
        // The progress probe already narrates surprising opens; without it,
        // still tell the user when an existing file was set aside or held
        // damaged entries, so silent recomputation never looks like resume.
        if !opts.progress && (open.is_ignored() || open.quarantined() > 0) {
            eprintln!("checkpoint {}: {open}", path.display());
        }
    }
    let mut ctx = Ctx::new(&fanout).with_policy(RunPolicy {
        retries: opts.retry,
        trial_timeout: opts.trial_timeout,
        ..RunPolicy::default()
    });
    if let Some(c) = &checkpoint {
        ctx = ctx.with_checkpoint(c);
    }
    let result = run_command(opts, ctx);
    if gated {
        // Always turn the gate back off, even when the command failed, so
        // later runs in the same process start untraced.
        abp_trace::set_enabled(false);
        abp_trace::sink::uninstall();
    }
    result?;
    if let Some(path) = &opts.report {
        std::fs::write(path, recorder.report(&opts.command, &opts.cfg))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &opts.trace {
        let counters = abp_trace::counters_snapshot();
        let trace = abp_trace::drain();
        let body = if path.extension().is_some_and(|ext| ext == "json") {
            abp_trace::export::to_chrome_json(&trace, &counters)
        } else {
            abp_trace::export::to_jsonl(&trace, &counters)
        };
        std::fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
        if trace.dropped > 0 {
            eprintln!(
                "wrote {} ({} events shed by the bounded sink)",
                path.display(),
                trace.dropped
            );
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

fn run_command(opts: &Options, ctx: Ctx<'_>) -> Result<(), String> {
    let cfg = &opts.cfg;
    let announce = |what: &str| eprintln!("running {what} with {cfg}");
    match opts.command.as_str() {
        "table1" => println!("{}", figures::table1()),
        "fig1" => {
            announce("fig1");
            emit(
                &figures::fig1_with(cfg, &[1, 2, 3, 4, 6, 8, 10], ctx),
                &opts.out,
            )?;
        }
        "fig4" => {
            announce("fig4");
            let fig = figures::fig4_with(cfg, ctx);
            emit(&fig, &opts.out)?;
            if let Some(sat) = saturation(&fig, "Ideal") {
                println!("saturation beacon density (10% of plateau): {sat:.4} /m^2");
            }
        }
        "fig5" => {
            announce("fig5");
            emit_pair(figures::fig5_with(cfg, ctx), &opts.out)?;
        }
        "fig6" => {
            announce("fig6");
            let fig = figures::fig6_with(cfg, ctx);
            emit(&fig, &opts.out)?;
            for (noise, series) in [(0.0, "Ideal"), (0.5, "Noise=0.5")] {
                if let Some(sat) = saturation(&fig, series) {
                    println!("saturation density at noise {noise}: {sat:.4} /m^2");
                }
            }
        }
        "fig7" => {
            announce("fig7");
            emit_pair(
                figures::fig_noise_with(cfg, AlgorithmKind::Random, ctx),
                &opts.out,
            )?;
        }
        "fig8" => {
            announce("fig8");
            emit_pair(
                figures::fig_noise_with(cfg, AlgorithmKind::Max, ctx),
                &opts.out,
            )?;
        }
        "fig9" => {
            announce("fig9");
            emit_pair(
                figures::fig_noise_with(cfg, AlgorithmKind::Grid, ctx),
                &opts.out,
            )?;
        }
        "bound" => {
            announce("bound");
            emit(
                &figures::bound_with(&BoundConfig::default(), ctx),
                &opts.out,
            )?;
        }
        "ablation" => {
            announce("ablation");
            emit(
                &figures::ablation_algorithms_with(cfg, opts.noise, ctx),
                &opts.out,
            )?;
        }
        "noise-styles" => {
            announce("noise-styles");
            let noise = if opts.noise == 0.0 { 0.5 } else { opts.noise };
            emit(
                &figures::ablation_noise_styles_with(cfg, noise, ctx),
                &opts.out,
            )?;
        }
        "robustness" => {
            announce("robustness");
            emit_pair(
                figures::robustness_with(cfg, opts.beacons.unwrap_or(40), ctx),
                &opts.out,
            )?;
        }
        "faults" => {
            announce("faults (beacon death, burst loss, GPS outages)");
            emit_pair(
                figures::faults_with(cfg, opts.beacons.unwrap_or(40), ctx),
                &opts.out,
            )?;
        }
        "solspace" => {
            announce("solspace");
            emit(
                &figures::solution_space_with(cfg, opts.noise, 100, 0.02, ctx),
                &opts.out,
            )?;
        }
        "batch" => {
            announce("batch");
            emit(
                &figures::multi_beacon_with(
                    cfg,
                    opts.noise,
                    opts.beacons.unwrap_or(40),
                    &[1, 2, 4, 8, 12],
                    ctx,
                ),
                &opts.out,
            )?;
        }
        "localizers" => {
            announce("localizers");
            emit(&figures::localizers_with(cfg, 0.05, ctx), &opts.out)?;
        }
        "duel" => {
            announce("duel (paired Grid vs Max)");
            use abp_sim::experiments::improvement::paired_comparison;
            let points = paired_comparison(
                cfg,
                opts.noise,
                AlgorithmKind::Grid,
                AlgorithmKind::Max,
                ctx,
            );
            println!(
                "paired per-field difference in mean-error improvement, Grid - Max (noise {}):",
                opts.noise
            );
            println!(
                "{:>12} {:>26} {:>14}",
                "density", "diff (m, 95% CI)", "verdict"
            );
            for p in &points {
                let verdict = if p.diff.lo() > 0.0 {
                    "Grid wins"
                } else if p.diff.hi() < 0.0 {
                    "Max wins"
                } else {
                    "tie"
                };
                println!(
                    "{:>12.4} {:>26} {:>14}",
                    p.density,
                    p.diff.to_string(),
                    verdict
                );
            }
        }
        "heatmap" => {
            // A worked visual: deploy, render, place one Grid beacon,
            // render again.
            use abp_sim::heatmap_demo;
            println!("{}", heatmap_demo(cfg));
        }
        "multilat" => {
            announce("multilat");
            emit(&figures::multilateration_with(cfg, 0.05, ctx), &opts.out)?;
        }
        "bench" => {
            let mut bcfg = match opts.preset.as_str() {
                "paper" => abp_bench::BenchConfig::paper_scale(),
                // The smoke scales: `quick` (the default) and `tiny`
                // both run the seconds-scale scenario.
                "quick" | "tiny" => abp_bench::BenchConfig::tiny(),
                other => return Err(format!("bench: unknown preset {other}")),
            };
            if let Some(n) = opts.beacons {
                if n == 0 {
                    return Err("bench: --beacons must be at least 1".into());
                }
                bcfg.beacons = n;
            }
            if let Some(s) = opts.step_override {
                bcfg.step = s;
            }
            if let Some(s) = opts.seed_override {
                bcfg.seed = s;
            }
            if let Some(r) = opts.repeats {
                bcfg.repeats = r;
            }
            eprintln!(
                "running bench ({} scale: {} beacons, step {} m, {} samples/kernel)",
                bcfg.preset, bcfg.beacons, bcfg.step, bcfg.repeats
            );
            let report = abp_bench::run_bench(&bcfg);
            println!(
                "{:<22} {:>14} {:>14} {:>9} {:>10}",
                "kernel", "brute median", "indexed median", "speedup", "identical"
            );
            for k in &report.kernels {
                println!(
                    "{:<22} {:>13.4}s {:>13.4}s {:>8.2}x {:>10}",
                    k.name, k.brute.median_s, k.indexed.median_s, k.speedup, k.identical
                );
            }
            for k in &report.kernels {
                if k.speedup_ci_straddles_unity() {
                    eprintln!(
                        "WARNING: {}: speedup 95% CI [{:.2}x, {:.2}x] straddles 1.0 — \
                         the measured speedup is indistinguishable from noise at \
                         {} samples; raise --repeats before trusting or committing \
                         this number",
                        k.name, k.speedup_ci95.0, k.speedup_ci95.1, k.indexed.samples
                    );
                }
            }
            println!(
                "steady-state scratch survey: {:.2} allocs/trial, {:.0} bytes/trial",
                report.alloc.allocs_per_trial, report.alloc.bytes_per_trial
            );
            println!(
                "serve_qps: {:.0} req/s (p99 {:.1} us); {} scrapes under load (p50 {:.1} us)",
                report.serve.qps,
                report.serve.p99_s * 1e6,
                report.serve.scrapes,
                report.serve.scrape_p50_s * 1e6
            );
            println!(
                "overload: {} clients into {} slots, {} served, {} sheds \
                 ({:.0}% shed rate), accepted p99 {:.1} us ({})",
                report.overload.offered_clients,
                report.overload.max_conns,
                report.overload.requests,
                report.overload.shed_connections,
                report.overload.shed_rate * 100.0,
                report.overload.p99_s * 1e6,
                if report.overload.bounded {
                    "bounded"
                } else {
                    "UNBOUNDED"
                }
            );
            if let Some(dir) = &opts.out {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                let path = dir.join("BENCH_sweep.json");
                std::fs::write(&path, report.to_json())
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
            if !report.all_identical() {
                return Err(
                    "bench: an indexed kernel produced output that differs from brute force".into(),
                );
            }
            if report.alloc.allocs_per_trial > 0.0 {
                return Err(format!(
                    "bench: the reused-scratch survey path allocated in steady state \
                     ({} allocs/trial, expected 0)",
                    report.alloc.allocs_per_trial
                ));
            }
            if !report.overload.bounded {
                return Err(format!(
                    "bench: accepted-request p99 under 2x overload was {:.3} s, above \
                     the {:.2} s bound — shedding is not protecting admitted work",
                    report.overload.p99_s,
                    abp_serve::bench::OVERLOAD_P99_BOUND_S
                ));
            }
            if report.overload.allocs_per_request > 0.0 {
                return Err(format!(
                    "bench: the serving path allocated under overload \
                     ({} allocs/request, expected 0)",
                    report.overload.allocs_per_request
                ));
            }
        }
        "serve" => {
            let scfg = serve_config(opts)?;
            abp_serve::signal::install();
            let daemon =
                abp_serve::daemon::Daemon::start(&scfg).map_err(|e| format!("serve: {e}"))?;
            let snap = daemon.snapshot();
            eprintln!(
                "abp-serve listening on {} (max-conns {}, {} beacons, {} m terrain at {} m \
                 survey step, R = {} m, epoch {})",
                daemon.local_addr(),
                scfg.max_conns,
                snap.field().len(),
                scfg.side,
                scfg.step,
                scfg.nominal_range,
                snap.epoch()
            );
            if let Some(maddr) = daemon.metrics_addr() {
                eprintln!("metrics exposition on http://{maddr}/metrics");
            }
            if scfg.state_path.is_some() {
                eprintln!("state: {}", daemon.state_open().describe());
            }
            if let Some(deadline) = scfg.deadline {
                eprintln!("defenses: deadline {deadline:?}");
            }
            eprintln!("serving until SIGTERM/SIGINT");
            while !abp_serve::signal::triggered() {
                std::thread::sleep(Duration::from_millis(50));
            }
            let stats = daemon.shutdown();
            eprintln!("{}", stats.summary_line());
            let table = stats.summary_table();
            if !table.is_empty() {
                eprintln!("{table}");
            }
        }
        "serve-bench" => {
            let scfg = serve_config(opts)?;
            let mut load = match opts.preset.as_str() {
                "paper" => abp_serve::bench::LoadConfig::paper_scale(),
                "quick" | "tiny" => abp_serve::bench::LoadConfig::tiny(),
                other => return Err(format!("serve-bench: unknown preset {other}")),
            };
            if let Some(c) = opts.clients {
                load.clients = c;
            }
            if let Some(r) = opts.requests {
                load.requests_per_client = r;
            }
            if load.clients > scfg.max_conns {
                return Err(format!(
                    "serve-bench: --clients {} is above the daemon's connection cap {} \
                     (raise --max-conns)",
                    load.clients, scfg.max_conns
                ));
            }
            eprintln!(
                "running serve-bench ({} clients x {} requests, {} beacons, step {} m)",
                load.clients, load.requests_per_client, scfg.beacons, scfg.step
            );
            let report = abp_serve::bench::run_load(&scfg, &load)
                .map_err(|e| format!("serve-bench: {e}"))?;
            println!(
                "requests: {} over {:.3} s ({:.0} req/s, {} clients)",
                report.requests, report.wall_s, report.qps, report.clients
            );
            println!(
                "latency: p50 {:.1} us, p95 {:.1} us, p99 {:.1} us (min {:.1}, max {:.1})",
                report.p50_s * 1e6,
                report.p95_s * 1e6,
                report.p99_s * 1e6,
                report.min_s * 1e6,
                report.max_s * 1e6
            );
            println!(
                "serving path: {:.2} allocs/request, {:.0} bytes/request over {} \
                 measured requests",
                report.allocs_per_request, report.bytes_per_request, report.measured_requests
            );
            if report.scrapes > 0 {
                println!(
                    "metrics scrapes under load: {} (p50 {:.1} us, max {:.1} us)",
                    report.scrapes,
                    report.scrape_p50_s * 1e6,
                    report.scrape_max_s * 1e6
                );
            }
            println!("served-vs-batch bit-identity: {}", report.identical);
            if !report.identical {
                return Err(
                    "serve-bench: served localization diverged from the batch pipeline".into(),
                );
            }
            if report.allocs_per_request > 0.0 {
                return Err(format!(
                    "serve-bench: the serving path allocated in steady state \
                     ({} allocs/request, expected 0)",
                    report.allocs_per_request
                ));
            }
        }
        "serve-chaos" => {
            eprintln!(
                "running the serve resilience battery (hostile inputs, floods, \
                 slowloris, injected panic, deadlines, warm restart)"
            );
            eprintln!(
                "note: one panic backtrace below is EXPECTED — it is the injected \
                 handler panic being contained"
            );
            let report = abp_serve::chaos::run_chaos().map_err(|e| format!("serve-chaos: {e}"))?;
            for o in &report.outcomes {
                println!("ok {:<22} {}", o.name, o.detail);
            }
            println!(
                "serve-chaos: all {} scenarios passed",
                report.outcomes.len()
            );
        }
        "top" => {
            if opts.port == 0 {
                return Err(
                    "top: --port is required (the port abp serve printed at startup)".into(),
                );
            }
            top::run_top(&top::TopConfig {
                port: opts.port,
                interval: opts.interval,
                polls: opts.polls,
            })?;
        }
        "net" => {
            announce("net (time-domain packet simulation)");
            let axes = net_sim::NetAxes::for_config(cfg);
            if opts.replay_check {
                // The CI determinism gate: one trial of the most contended
                // configuration, run twice, must produce byte-identical
                // event logs before the sweeps are worth trusting.
                for trial in 0..2 {
                    if !net_sim::replay_identical(cfg, &axes, trial) {
                        return Err(format!(
                            "net: replay check FAILED — trial {trial} produced \
                             different event logs on re-run (determinism bug)"
                        ));
                    }
                }
                eprintln!("replay check passed: re-run event logs byte-identical");
            }
            emit(&figures::net_interval_with(cfg, &axes, ctx), &opts.out)?;
            emit(&figures::net_collisions_with(cfg, &axes, ctx), &opts.out)?;
            emit(&figures::net_lifetime_with(cfg, &axes, ctx), &opts.out)?;
        }
        "all" => {
            println!("{}", figures::table1());
            for cmd in [
                "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "bound",
            ] {
                run_command(
                    &Options {
                        command: cmd.to_string(),
                        ..opts.clone()
                    },
                    ctx,
                )?;
            }
        }
        other => return Err(format!("unknown command {other}\n{}", usage())),
    }
    Ok(())
}

/// Builds the daemon configuration `serve` and `serve-bench` share:
/// the preset scale plus the generic overrides (`--beacons`, `--step`,
/// `--seed`, `--max-conns`, `--port` as bind port).
fn serve_config(opts: &Options) -> Result<abp_serve::daemon::ServeConfig, String> {
    let mut scfg = match opts.preset.as_str() {
        "paper" => abp_serve::daemon::ServeConfig::paper_scale(),
        "quick" | "tiny" => abp_serve::daemon::ServeConfig::tiny(),
        other => return Err(format!("{}: unknown preset {other}", opts.command)),
    };
    scfg.addr = format!("127.0.0.1:{}", opts.port);
    scfg.metrics_addr = opts.metrics_port.map(|p| format!("127.0.0.1:{p}"));
    if let Some(n) = opts.beacons {
        if n == 0 {
            return Err(format!("{}: --beacons must be at least 1", opts.command));
        }
        scfg.beacons = n;
    }
    if let Some(s) = opts.step_override {
        scfg.step = s;
    }
    if let Some(s) = opts.seed_override {
        scfg.seed = s;
    }
    if let Some(n) = opts.max_conns {
        scfg.max_conns = n;
    }
    scfg.deadline = opts.deadline;
    if let Some(t) = opts.idle_timeout {
        scfg.idle_timeout = t;
    }
    scfg.state_path = opts.state.clone();
    Ok(scfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Options, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_command_and_overrides() {
        let o = parse(&[
            "fig4",
            "--preset",
            "tiny",
            "--trials",
            "5",
            "--step",
            "4",
            "--threads",
            "2",
            "--seed",
            "0xBEEF",
        ])
        .unwrap();
        assert_eq!(o.command, "fig4");
        assert_eq!(o.cfg.trials, 5);
        assert_eq!(o.cfg.step, 4.0);
        assert_eq!(o.cfg.threads, 2);
        assert_eq!(o.cfg.seed, 0xBEEF);
    }

    /// `localizers` and `multilat` survey at 4 m or coarser unless
    /// `--step` is given, and the parsed config is the one that runs.
    #[test]
    fn localizers_and_multilat_floor_the_default_step_only() {
        for cmd in ["localizers", "multilat"] {
            let step = |words: &[&str]| parse(&[&[cmd], words].concat()).unwrap().cfg.step;
            assert_eq!(step(&["--preset", "quick"]), 4.0, "{cmd} quick");
            assert_eq!(step(&["--preset", "paper"]), 4.0, "{cmd} paper");
            assert_eq!(
                step(&["--preset", "quick", "--step", "2"]),
                2.0,
                "{cmd} --step 2"
            );
            assert_eq!(step(&["--preset", "tiny"]), 5.0, "{cmd} tiny");
        }
        // Other commands keep the preset's step.
        assert_eq!(parse(&["fig4"]).unwrap().cfg.step, SimConfig::quick().step);
    }

    #[test]
    fn rejects_unknown_option_and_preset() {
        assert!(parse(&["fig4", "--bogus"]).is_err());
        assert!(parse(&["fig4", "--preset", "huge"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["fig4", "fig5"]).is_err());
    }

    #[test]
    fn default_preset_is_quick() {
        let o = parse(&["table1"]).unwrap();
        assert_eq!(o.cfg.trials, SimConfig::quick().trials);
    }

    #[test]
    fn table1_runs() {
        let o = parse(&["table1", "--preset", "tiny"]).unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        let o = parse(&["fig99", "--preset", "tiny"]).unwrap();
        assert!(run(&o).is_err());
    }

    /// Every figure command runs end-to-end at test scale and, with
    /// `--out`, writes its CSV files.
    #[test]
    fn all_commands_run_and_write_csv() {
        let dir = std::env::temp_dir().join(format!("abp-cli-test-{}", std::process::id()));
        let commands_and_files = [
            ("fig1", vec!["fig1.csv"]),
            ("fig4", vec!["fig4.csv"]),
            ("fig5", vec!["fig5-mean.csv", "fig5-median.csv"]),
            ("fig7", vec!["fig7-mean.csv", "fig7-median.csv"]),
            ("bound", vec!["bound.csv"]),
            ("ablation", vec!["ablation-algorithms.csv"]),
            ("solspace", vec!["solution-space.csv"]),
            ("batch", vec!["multi-beacon.csv"]),
            (
                "robustness",
                vec!["robustness-exploration.csv", "robustness-gps.csv"],
            ),
            (
                "faults",
                vec!["robustness-failure.csv", "robustness-burst.csv"],
            ),
        ];
        for (cmd, files) in &commands_and_files {
            let mut o = parse(&[cmd, "--preset", "tiny", "--trials", "2"]).unwrap();
            o.cfg.beacon_counts = vec![30, 120];
            o.out = Some(dir.clone());
            run(&o).unwrap_or_else(|e| panic!("{cmd} failed: {e}"));
            for f in files {
                let path = dir.join(f);
                let csv = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("{cmd}: missing {}: {e}", path.display()));
                assert!(
                    csv.starts_with("figure,series,x,y,ci95"),
                    "{cmd}: bad CSV header"
                );
                assert!(csv.lines().count() > 1, "{cmd}: empty CSV");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The time-domain command runs end-to-end — replay gate, three
    /// sweeps, three CSVs — at test scale.
    #[test]
    fn net_command_runs_gate_and_writes_csv() {
        let dir = std::env::temp_dir().join(format!("abp-cli-net-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut o = parse(&["net", "--preset", "tiny", "--trials", "2", "--replay-check"]).unwrap();
        assert!(o.replay_check);
        o.cfg.beacon_counts = vec![30, 60];
        o.out = Some(dir.clone());
        run(&o).unwrap();
        for f in ["net-interval.csv", "net-collisions.csv", "net-lifetime.csv"] {
            let path = dir.join(f);
            let csv = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("net: missing {}: {e}", path.display()));
            assert!(
                csv.starts_with("figure,series,x,y,ci95"),
                "net: bad CSV header in {f}"
            );
            assert!(csv.lines().count() > 1, "net: empty CSV {f}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_check_flag_parses_and_defaults_off() {
        assert!(parse(&["net", "--replay-check"]).unwrap().replay_check);
        assert!(!parse(&["net"]).unwrap().replay_check);
    }

    #[test]
    fn heatmap_command_runs() {
        let o = parse(&["heatmap", "--preset", "tiny"]).unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn duel_command_runs() {
        let mut o = parse(&["duel", "--preset", "tiny", "--trials", "4"]).unwrap();
        o.cfg.beacon_counts = vec![40];
        run(&o).unwrap();
    }

    #[test]
    fn beacons_option_parses() {
        let o = parse(&["robustness", "--beacons", "60"]).unwrap();
        assert_eq!(o.beacons, Some(60));
        assert!(parse(&["robustness", "--beacons", "x"]).is_err());
        // Unset by default: commands apply their own defaults.
        let o = parse(&["robustness"]).unwrap();
        assert_eq!(o.beacons, None);
    }

    #[test]
    fn bench_runs_and_writes_schema_valid_json() {
        let _g = TRACE_TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("abp-bench-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut o = parse(&["bench", "--preset", "tiny", "--seed", "7"]).unwrap();
        o.out = Some(dir.clone());
        run(&o).unwrap();
        let json = std::fs::read_to_string(dir.join("BENCH_sweep.json")).unwrap();
        assert!(json.contains("\"schema\": \"abp-bench-sweep/12\""));
        assert!(json.contains("\"seed\": 7"), "--seed reaches bench: {json}");
        assert!(json.contains("\"name\": \"survey_sweep\""));
        assert!(json.contains("\"name\": \"survey_sweep_noisy\""));
        assert!(json.contains("\"name\": \"resurvey_incremental\""));
        assert!(json.contains("\"name\": \"candidate_scan_grid\""));
        assert!(json.contains("\"identical\": true"));
        assert!(!json.contains("\"identical\": false"));
        assert!(json.contains("\"alloc\": {\"allocs_per_trial\": 0, \"bytes_per_trial\": 0}"));
        assert!(json.contains("\"serve_qps\": {"));
        assert!(json.contains("\"qps\": "));
        assert!(json.contains("\"p99_s\": "));
        assert!(json.contains("\"allocs_per_request\": "));
        assert!(json.contains("\"scrapes\": "));
        for gone in [
            "serve_ab_pairs",
            "skip_brute",
            "qps_metrics_off",
            "telemetry_overhead",
            "survey_sweep_scratch",
            "counting",
        ] {
            assert!(!json.contains(gone), "{gone} must stay absent");
        }
        assert!(json.contains("\"overload\": {"));
        assert!(json.contains("\"shed_connections\": "));
        assert!(json.contains("\"bounded\": true"));
        assert!(json.contains("\"speedup_ci95\": ["));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeats_and_threads_flags_reach_bench_config() {
        let o = parse(&["bench", "--repeats", "9", "--threads", "4"]).unwrap();
        assert_eq!(o.repeats, Some(9));
        assert_eq!(o.cfg.threads, 4);
        assert!(parse(&["bench", "--repeats", "0"]).is_err());
        // Off by default: the preset's repeats stand.
        assert_eq!(parse(&["bench"]).unwrap().repeats, None);
        // No flag turns the brute side or the identity gate off.
        assert!(parse(&["bench", "--skip-brute"]).is_err());
    }

    #[test]
    fn serve_flags_parse_and_are_validated() {
        let o = parse(&[
            "serve-bench",
            "--port",
            "9000",
            "--clients",
            "3",
            "--requests",
            "80",
        ])
        .unwrap();
        assert_eq!(o.port, 9000);
        assert_eq!(o.clients, Some(3));
        assert_eq!(o.requests, Some(80));
        // Defaults: ephemeral port, preset-chosen load shape.
        let o = parse(&["serve"]).unwrap();
        assert_eq!(o.port, 0);
        assert_eq!(o.clients, None);
        assert_eq!(o.requests, None);
        // Zero clients/requests make no sense; a port must fit u16.
        assert!(parse(&["serve-bench", "--clients", "0"]).is_err());
        assert!(parse(&["serve-bench", "--requests", "0"]).is_err());
        assert!(parse(&["serve", "--port", "70000"]).is_err());
        assert!(parse(&["serve", "--port", "x"]).is_err());
    }

    #[test]
    fn top_and_metrics_flags_parse_and_are_validated() {
        let o = parse(&[
            "top",
            "--port",
            "9000",
            "--interval",
            "250ms",
            "--polls",
            "5",
        ])
        .unwrap();
        assert_eq!(o.port, 9000);
        assert_eq!(o.interval, Duration::from_millis(250));
        assert_eq!(o.polls, Some(5));
        // Defaults: 1 s cadence, run until signalled.
        let o = parse(&["top", "--port", "9000"]).unwrap();
        assert_eq!(o.interval, Duration::from_secs(1));
        assert_eq!(o.polls, None);
        assert!(parse(&["top", "--polls", "0"]).is_err());
        assert!(parse(&["top", "--interval", "abc"]).is_err());
        assert!(parse(&["serve", "--metrics-port", "x"]).is_err());
        // top refuses to guess a port.
        let o = parse(&["top"]).unwrap();
        assert!(run_fails_with(&o, "--port is required"));
    }

    #[test]
    fn resilience_flags_parse_and_reach_the_serve_config() {
        let o = parse(&[
            "serve",
            "--preset",
            "tiny",
            "--max-conns",
            "64",
            "--deadline",
            "50ms",
            "--idle-timeout",
            "30s",
            "--state",
            "world.state",
        ])
        .unwrap();
        assert_eq!(o.max_conns, Some(64));
        assert_eq!(o.deadline, Some(Duration::from_millis(50)));
        assert_eq!(o.idle_timeout, Some(Duration::from_secs(30)));
        assert_eq!(o.state.as_deref(), Some(Path::new("world.state")));
        let scfg = serve_config(&o).unwrap();
        assert_eq!(scfg.max_conns, 64);
        assert_eq!(scfg.deadline, Some(Duration::from_millis(50)));
        assert_eq!(scfg.idle_timeout, Duration::from_secs(30));
        assert_eq!(scfg.state_path.as_deref(), Some(Path::new("world.state")));

        // Defaults: a 256-connection cap, every other defense off/neutral.
        let o = parse(&["serve", "--preset", "tiny"]).unwrap();
        let scfg = serve_config(&o).unwrap();
        assert_eq!(scfg.max_conns, 256);
        assert_eq!(scfg.deadline, None);
        assert_eq!(scfg.idle_timeout, Duration::from_secs(300));
        assert_eq!(scfg.state_path, None);

        // A zero cap, a bare-number deadline, and a state path under a
        // missing directory are all refused before anything starts.
        assert!(parse(&["serve", "--max-conns", "0"]).is_err());
        assert!(parse(&["serve", "--deadline", "5"]).is_err());
        assert!(parse(&["serve", "--idle-timeout", "-3s"]).is_err());
        let o = parse(&["serve", "--state", "/no/such/dir/world.state"]).unwrap();
        assert!(run_fails_with(&o, "--state"));
        // serve-bench refuses more clients than the cap admits.
        let o = parse(&["serve-bench", "--clients", "3", "--max-conns", "2"]).unwrap();
        assert!(run_fails_with(&o, "--clients 3"));
    }

    fn run_fails_with(o: &Options, needle: &str) -> bool {
        match run(o) {
            Err(e) => e.contains(needle),
            Ok(()) => false,
        }
    }

    #[test]
    fn metrics_port_reaches_the_serve_config() {
        let o = parse(&["serve", "--preset", "tiny", "--metrics-port", "9100"]).unwrap();
        let scfg = serve_config(&o).unwrap();
        assert_eq!(scfg.metrics_addr.as_deref(), Some("127.0.0.1:9100"));
        // Absent by default: no listener thread.
        let o = parse(&["serve", "--preset", "tiny"]).unwrap();
        assert_eq!(serve_config(&o).unwrap().metrics_addr, None);
    }

    #[test]
    fn serve_config_applies_preset_and_overrides() {
        let o = parse(&[
            "serve",
            "--preset",
            "tiny",
            "--port",
            "7777",
            "--beacons",
            "9",
            "--step",
            "5",
            "--seed",
            "0xA",
        ])
        .unwrap();
        let scfg = serve_config(&o).unwrap();
        assert_eq!(scfg.addr, "127.0.0.1:7777");
        assert_eq!(scfg.beacons, 9);
        assert_eq!(scfg.step, 5.0);
        assert_eq!(scfg.seed, 0xA);
        let err = {
            let mut bad = parse(&["serve", "--beacons", "1"]).unwrap();
            bad.beacons = Some(0);
            serve_config(&bad).unwrap_err()
        };
        assert!(err.contains("--beacons"), "got: {err}");
    }

    /// The daemon command itself: with the shutdown flag pre-triggered
    /// the serve loop starts, binds, and runs its orderly shutdown
    /// immediately — the full code path minus the indefinite wait.
    #[test]
    fn serve_command_starts_and_shuts_down() {
        abp_serve::signal::trigger();
        let o = parse(&["serve", "--preset", "tiny", "--beacons", "5"]).unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn serve_bench_runs_tiny_load() {
        let _g = TRACE_TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let o = parse(&[
            "serve-bench",
            "--preset",
            "tiny",
            "--clients",
            "2",
            "--requests",
            "50",
        ])
        .unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn bench_rejects_zero_beacons() {
        let o = parse(&["bench", "--preset", "tiny", "--beacons", "0"]).unwrap();
        let err = run(&o).unwrap_err();
        assert!(err.contains("--beacons"), "got: {err}");
    }

    #[test]
    fn rejects_zero_trials() {
        let err = parse(&["fig4", "--trials", "0"]).unwrap_err();
        assert!(err.contains("--trials"), "got: {err}");
        assert!(!err.contains('\n'), "must be a one-line error: {err:?}");
    }

    #[test]
    fn rejects_bad_step() {
        for bad in ["0", "-1.5", "nan", "inf"] {
            let err = parse(&["fig4", "--step", bad])
                .map(|_| ())
                .expect_err(&format!("--step {bad} must be rejected"));
            assert!(err.contains("--step"), "got: {err}");
            assert!(!err.contains('\n'), "must be a one-line error: {err:?}");
        }
    }

    #[test]
    fn rejects_noise_outside_unit_interval() {
        for bad in ["1", "1.0", "1.5", "-0.1", "nan", "inf"] {
            let err = parse(&["ablation", "--noise", bad])
                .map(|_| ())
                .expect_err(&format!("--noise {bad} must be rejected"));
            assert!(err.contains("--noise"), "got: {err}");
            assert!(!err.contains('\n'), "must be a one-line error: {err:?}");
        }
        // The contract is half-open [0, 1) — `PerBeaconNoise` panics at a
        // noise factor of 1 (effective ranges reach 0), so the boundary
        // rejection must come with that rationale, not silently.
        let err = parse(&["ablation", "--noise", "1.0"]).unwrap_err();
        assert!(err.contains("[0, 1)"), "states the range: {err}");
        assert!(err.contains("range"), "states the rationale: {err}");
        // The boundary values that are fine.
        assert!(parse(&["ablation", "--noise", "0"]).is_ok());
        assert!(parse(&["ablation", "--noise", "0.999"]).is_ok());
    }

    #[test]
    fn rejects_malformed_seed() {
        let err = parse(&["fig4", "--seed", "0xZZ"]).unwrap_err();
        assert!(err.contains("--seed"), "got: {err}");
        assert!(!err.contains('\n'), "must be a one-line error: {err:?}");
        assert!(parse(&["fig4", "--seed", "dead_beef"]).is_err());
    }

    #[test]
    fn retry_and_trial_timeout_flags_parse() {
        let o = parse(&["faults", "--retry", "3", "--trial-timeout", "30s"]).unwrap();
        assert_eq!(o.retry, 3);
        assert_eq!(o.trial_timeout, Some(Duration::from_secs(30)));
        let o = parse(&["fig4", "--trial-timeout", "500ms"]).unwrap();
        assert_eq!(o.trial_timeout, Some(Duration::from_millis(500)));
        let o = parse(&["fig4", "--trial-timeout", "2.5s"]).unwrap();
        assert_eq!(o.trial_timeout, Some(Duration::from_millis(2500)));
        // Defaults: supervision off.
        let o = parse(&["fig4"]).unwrap();
        assert_eq!(o.retry, 0);
        assert_eq!(o.trial_timeout, None);
    }

    #[test]
    fn rejects_zero_retry() {
        let err = parse(&["fig4", "--retry", "0"]).unwrap_err();
        assert!(err.contains("--retry"), "got: {err}");
        assert!(!err.contains('\n'), "must be a one-line error: {err:?}");
        assert!(parse(&["fig4", "--retry", "-1"]).is_err());
        assert!(parse(&["fig4", "--retry", "two"]).is_err());
        assert!(parse(&["fig4", "--retry"]).is_err(), "missing value");
    }

    #[test]
    fn rejects_nonsense_trial_timeout() {
        for bad in [
            "0s", "0ms", "-5s", "10", "nan s", "nans", "infs", "fast", "1e300s",
        ] {
            let err = parse(&["fig4", "--trial-timeout", bad])
                .map(|_| ())
                .expect_err(&format!("--trial-timeout {bad} must be rejected"));
            assert!(err.contains("--trial-timeout"), "got: {err}");
            assert!(!err.contains('\n'), "must be a one-line error: {err:?}");
        }
    }

    /// A healthy run is bit-identical with and without a retry policy:
    /// attempt 0 re-derives exactly the plain trial seed, so turning on
    /// `--retry`/`--trial-timeout` cannot move any number.
    #[test]
    fn supervised_healthy_run_matches_plain_csv() {
        let dir = std::env::temp_dir().join(format!("abp-cli-retry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (sub, extra) in [("plain", &[][..]), ("supervised", &["--retry", "2"][..])] {
            let mut words = vec!["fig4", "--preset", "tiny", "--trials", "2"];
            words.extend_from_slice(extra);
            let mut o = parse(&words).unwrap();
            o.cfg.beacon_counts = vec![30, 120];
            o.out = Some(dir.join(sub));
            run(&o).unwrap();
        }
        let plain = std::fs::read_to_string(dir.join("plain/fig4.csv")).unwrap();
        let supervised = std::fs::read_to_string(dir.join("supervised/fig4.csv")).unwrap();
        assert_eq!(plain, supervised, "retry policy changed a healthy run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_is_written_and_valid() {
        let _g = TRACE_TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let path = std::env::temp_dir().join(format!("abp-report-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut o = parse(&[
            "fig4", "--preset", "tiny", "--trials", "2", "--report", "r.json",
        ])
        .unwrap();
        assert_eq!(o.report.as_deref(), Some(Path::new("r.json")));
        o.cfg.beacon_counts = vec![30, 120];
        o.report = Some(path.clone());
        run(&o).unwrap();
        assert!(!abp_trace::enabled(), "the gate is off again after the run");
        let json = std::fs::read_to_string(&path).unwrap();
        // Structural checks on the documented schema.
        assert!(json.trim_start().starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"command\": \"fig4\""));
        assert!(json.contains(&format!(
            "\"config_fingerprint\": \"{:#018x}\"",
            o.cfg.fingerprint()
        )));
        assert!(json.contains("\"checkpoint\": null"));
        assert!(json.contains("\"threads\":"));
        assert!(json.contains("\"total_wall_seconds\":"));
        assert!(json.contains("\"figure\": \"fig4\""));
        assert!(json.contains("\"trials_per_sec\":"));
        assert!(json.contains("\"worker_utilization\":"));
        assert!(json.contains("\"trial_p99_s\":"));
        // fig4 runs 2 densities × 2 trials = 4 observed trials.
        assert!(json.contains("\"trials\": 4"), "got: {json}");
        // The report turned the counter gate on.
        assert!(json.contains("\"links_tested\": "), "got: {json}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_and_report_take_a_path() {
        let o = parse(&["fig4", "--trace", "t.json"]).unwrap();
        assert_eq!(o.trace.as_deref(), Some(Path::new("t.json")));
        assert!(parse(&["fig4", "--trace"]).is_err(), "missing value");
        assert!(parse(&["fig4", "--report"]).is_err(), "missing value");
    }

    /// Every output flag is validated before any computation starts: a
    /// missing parent directory or a directory-instead-of-file path is a
    /// one-line error naming the flag.
    #[test]
    fn output_paths_are_validated_up_front() {
        let missing = PathBuf::from("/nonexistent-abp-dir/out.json");
        type SetPath = fn(&mut Options, PathBuf);
        let cases: [(&str, SetPath); 3] = [
            ("--report", |o, p| o.report = Some(p)),
            ("--checkpoint", |o, p| o.checkpoint = Some(p)),
            ("--trace", |o, p| o.trace = Some(p)),
        ];
        for (flag, set) in cases {
            let mut o = parse(&["table1", "--preset", "tiny"]).unwrap();
            set(&mut o, missing.clone());
            let err = run(&o).unwrap_err();
            assert!(err.contains(flag), "{flag}: got: {err}");
            assert!(err.contains("does not exist"), "{flag}: got: {err}");
            assert!(!err.contains('\n'), "{flag}: one-line error: {err:?}");
        }
        // A directory is rejected too.
        let mut o = parse(&["table1", "--preset", "tiny"]).unwrap();
        o.trace = Some(std::env::temp_dir());
        let err = run(&o).unwrap_err();
        assert!(err.contains("is a directory"), "got: {err}");
    }

    /// Traced runs flip the process-global gate and share one sink;
    /// serialize them so they cannot drain each other's events. The
    /// runs whose zero-alloc gates are armed hold it too: with the gate
    /// on, a thread's first live span or counter add allocates (its
    /// track name, the counter's registry slot), and inside a measured
    /// window that fails the gate by chance.
    static TRACE_TEST_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn traced_run_writes_parseable_jsonl() {
        let _g = TRACE_TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let path = std::env::temp_dir().join(format!("abp-trace-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut o = parse(&["fig4", "--preset", "tiny", "--trials", "2"]).unwrap();
        o.cfg.beacon_counts = vec![30, 120];
        o.trace = Some(path.clone());
        run(&o).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines.len() > 1, "trace must hold events: {body}");
        for line in &lines {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not a JSON object line: {line}"
            );
        }
        assert!(lines[0].contains("\"kind\":\"meta\""), "got: {}", lines[0]);
        assert!(body.contains("\"kind\":\"span\""), "spans recorded");
        assert!(body.contains("trial.density_error"), "trial span named");
        assert!(
            body.contains("radio.connectivity_sweep"),
            "radio span named"
        );
        assert!(body.contains("links_tested"), "counters exported");
        // The recorder marks the lifecycle in the trace.
        assert!(
            body.contains("\"kind\":\"instant\",\"name\":\"figure_start fig4\""),
            "figure instant recorded"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chrome_trace_has_worker_tracks_and_named_spans() {
        let _g = TRACE_TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let path = std::env::temp_dir().join(format!("abp-trace-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut o = parse(&["fig5", "--preset", "tiny", "--trials", "2"]).unwrap();
        o.cfg.beacon_counts = vec![30];
        o.trace = Some(path.clone());
        run(&o).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.trim_start().starts_with('{'));
        assert!(body.trim_end().ends_with('}'));
        assert!(body.contains("\"traceEvents\""));
        assert!(body.contains("\"thread_name\""), "per-worker tracks named");
        assert!(body.contains("\"ph\":\"X\""), "complete events present");
        // Named spans for the radio, localizer, and placement phases.
        assert!(body.contains("radio.connectivity_sweep"), "got: {body}");
        assert!(body.contains("localize.derive_errors"));
        assert!(body.contains("placement.grid"));
        assert!(body.contains("trial.improvement"));
        // The recorder's lifecycle marks are instants on the sweep track.
        assert!(body.contains("\"ph\":\"i\""), "instants present");
        assert!(body.contains("sweep_start improvement"), "got: {body}");
        // The hot-path counters observed real work during the run.
        let counters = abp_trace::counters_snapshot();
        let total = |name: &str| {
            counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.total)
        };
        assert!(total("links_tested") > 0, "links_tested counted");
        assert!(
            total("candidates_scanned") > 0,
            "candidates_scanned counted"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("abp-cli-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = dir.join("sweep.ckpt");
        let parse_fig6 = || {
            let mut o = parse(&["fig6", "--preset", "tiny", "--trials", "2"]).unwrap();
            o.cfg.beacon_counts = vec![30, 120];
            o
        };
        // Uninterrupted baseline.
        let mut base = parse_fig6();
        base.out = Some(dir.join("base"));
        run(&base).unwrap();
        // First checkpointed run populates the store; a rerun restores
        // every sweep from it. Both must match the baseline bit for bit.
        for out in ["first", "resumed"] {
            let mut o = parse_fig6();
            o.out = Some(dir.join(out));
            o.checkpoint = Some(ckpt.clone());
            run(&o).unwrap();
        }
        let baseline = std::fs::read_to_string(dir.join("base/fig6.csv")).unwrap();
        for out in ["first", "resumed"] {
            let csv = std::fs::read_to_string(dir.join(out).join("fig6.csv")).unwrap();
            assert_eq!(csv, baseline, "{out} run diverged from baseline");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
