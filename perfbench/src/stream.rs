//! The async workload: steady-state evolution on MountainCar streamed
//! as one-genome frames over 2 loopback TCP agents, with program
//! tracing on and the trace exported to JSONL as `--trace` does.

use crate::probe::{check_champion, Probe};
use crate::spans::{Layers, Spans, Wall};
use crate::{err, median, ratio, round_seed, rusage, tail, Args, Outcome, SETUP_REPS};
use clan_core::telemetry::{to_jsonl, EventKind, RunTrace, Tracer};
use clan_core::transport::codec::WireMessage;
use clan_core::{
    AsyncOrchestrator, ClusterSpec, EdgeCluster, EngineOptions, Evaluator, InferenceMode,
    StreamCompletion,
};
use clan_envs::Workload;
use clan_neat::{steady_state_insert, Genome, NeatConfig, Population};
use std::time::Instant;

const WORKLOAD: Workload = Workload::MountainCar;
const POPULATION: usize = 100;
/// Windows of `POPULATION` completions per round (each one a
/// "generation" for `gen_ms_*`); at least 40 so the tail has ten beyond.
const WINDOWS: u64 = 50;
const BUDGET: u64 = POPULATION as u64 * WINDOWS;
const AGENTS: usize = 2;
const TOURNAMENT: usize = 3;
/// Final-population genomes the traced run re-times locally per round.
const SAMPLE: usize = 16;

fn config() -> Result<NeatConfig, String> {
    NeatConfig::builder(WORKLOAD.obs_dim(), WORKLOAD.n_actions())
        .population_size(POPULATION)
        .build()
        .map_err(err)
}

fn spawn_agents(cfg: &NeatConfig) -> Result<EdgeCluster, String> {
    let spec = ClusterSpec::new(WORKLOAD, InferenceMode::MultiStep, cfg.clone())
        .with_episodes(1)
        .with_engine(EngineOptions::default());
    EdgeCluster::spawn_local_spec(AGENTS, spec).map_err(err)
}

/// A live tracer preloaded with the run preamble `clan-cli --trace` records.
fn new_tracer(master: u64) -> Tracer {
    let tracer = Tracer::new();
    tracer.logical(EventKind::RunStart, |ev| {
        ev.seed = Some(master);
        ev.label = Some(WORKLOAD.to_string());
        ev.population = Some(POPULATION as u64);
    });
    tracer.timing(EventKind::ClusterInfo, |ev| {
        ev.items = Some(AGENTS as u64);
        ev.label = Some("ASYNC_STREAM".into());
    });
    tracer
}

/// Exports the trace as JSONL to the run's trace file; returns its size.
fn export(trace: &RunTrace) -> Result<usize, String> {
    let text = to_jsonl(trace).map_err(err)?;
    let path =
        std::env::var("CLAN_BENCH_TRACE_FILE").unwrap_or_else(|_| "perfbench-trace.jsonl".into());
    std::fs::write(&path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(text.len())
}

/// Per-window wall times: window `k` ends at the `(k+1)·P`-th
/// completion stamp and starts where window `k-1` ended (the stream's
/// start for the first).
fn windows_ms(trace: &RunTrace, start_us: u64) -> Vec<f64> {
    let stamps: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Completion)
        .filter_map(|e| e.wall_us)
        .collect();
    let mut out = Vec::new();
    let mut prev = start_us;
    for chunk in stamps.chunks_exact(POPULATION) {
        let end = chunk[POPULATION - 1];
        out.push(end.saturating_sub(prev) as f64 / 1e3);
        prev = end;
    }
    out
}

/// Checks shared by every round: the eval budget completed exactly, the
/// population kept its size, and the best-ever fitness equals the best
/// completion ever streamed and is still resident (it never decreased).
fn check_run(
    master: u64,
    completions: &[f64],
    pop: &Population,
    cfg: &NeatConfig,
    failures: &mut Vec<String>,
) {
    let what = format!("seed {master:#x}");
    if completions.len() as u64 != BUDGET {
        failures.push(format!(
            "{what}: {} completions for an eval budget of {BUDGET}",
            completions.len()
        ));
    }
    if pop.len() != POPULATION {
        failures.push(format!(
            "{what}: population size {} != {POPULATION}",
            pop.len()
        ));
    }
    let streamed_best = completions
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let best_ever = pop.best_ever().and_then(Genome::fitness);
    let resident_best = pop.best().and_then(Genome::fitness);
    if best_ever != Some(streamed_best) || resident_best != Some(streamed_best) {
        failures.push(format!(
            "{what}: best streamed fitness {streamed_best}, best-ever {best_ever:?}, \
             best resident {resident_best:?}"
        ));
    }
    failures.extend(check_champion(
        &what,
        WORKLOAD,
        pop.best_ever(),
        cfg,
        master,
    ));
}

/// One end-to-end round through `AsyncOrchestrator::run_streamed`.
struct Round {
    /// Set-up times of this round's `SETUP_REPS` builds.
    setups: Vec<f64>,
    run_s: f64,
    cpu_s: f64,
    gen_ms: Vec<f64>,
}

/// Workload start up to the point the first evaluation can begin: NEAT
/// config, initial population, loopback agents spawned, connected and
/// configured, and the tracer installed.
fn build(master: u64, tracing: bool) -> Result<(AsyncOrchestrator, Tracer, NeatConfig), String> {
    let cfg = config()?;
    let pop = Population::new(cfg.clone(), master);
    let edge = spawn_agents(&cfg)?;
    let ev = Evaluator::with_options(
        WORKLOAD,
        InferenceMode::MultiStep,
        1,
        1,
        EngineOptions::default(),
    )
    .with_remote(edge);
    let mut orch = AsyncOrchestrator::new(pop, ev, BUDGET, TOURNAMENT).map_err(err)?;
    let tracer = if tracing {
        new_tracer(master)
    } else {
        Tracer::disabled()
    };
    orch.install_tracer(tracer.clone());
    Ok((orch, tracer, cfg))
}

fn round(master: u64, tracing: bool, failures: &mut Vec<String>) -> Result<Round, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let built = build(master, tracing)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    let (cpu0, _) = rusage();
    let t0 = Instant::now();
    let (mut orch, tracer, cfg) = build(master, tracing)?;
    setups.push(t0.elapsed().as_secs_f64());
    let t1 = Instant::now();
    let start_us = tracer.now_us();
    orch.run_streamed().map_err(err)?;
    let trace = tracer.finish();
    if let Some(trace) = &trace {
        export(trace)?;
    }
    let run_s = t1.elapsed().as_secs_f64();
    let (cpu1, _) = rusage();
    let completions: Vec<f64> = orch
        .events()
        .iter()
        .map(|e| f64::from_bits(e.fitness_bits))
        .collect();
    check_run(master, &completions, orch.population(), &cfg, failures);
    let stats_evals = orch.stats().map_or(0, |s| s.total_evals);
    if stats_evals != BUDGET {
        failures.push(format!(
            "seed {master:#x}: stats report {stats_evals} evals"
        ));
    }
    let gen_ms = match &trace {
        Some(trace) => {
            let w = windows_ms(trace, start_us);
            if w.len() as u64 != WINDOWS {
                failures.push(format!(
                    "seed {master:#x}: trace holds {} completion windows, expected {WINDOWS}",
                    w.len()
                ));
            }
            w
        }
        None => Vec::new(),
    };
    Ok(Round {
        setups,
        run_s,
        cpu_s: cpu1 - cpu0,
        gen_ms,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(args);
    }
    let start = Instant::now();
    let mut failures = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let master = round_seed(args.seed, rounds.len());
        rounds.push(round(master, true, &mut failures)?);
    }
    let (_, peak_rss_mb) = rusage();
    let evals = BUDGET * rounds.len() as u64;
    let run_s: f64 = rounds.iter().map(|r| r.run_s).sum();
    let cpu_s: f64 = rounds.iter().map(|r| r.cpu_s).sum();
    let all: Vec<f64> = rounds.iter().flat_map(|r| r.gen_ms.clone()).collect();
    let tails: Vec<f64> = rounds.iter().map(|r| tail(&r.gen_ms)).collect();
    let setups: Vec<f64> = rounds.iter().flat_map(|r| r.setups.clone()).collect();
    Ok(Outcome {
        rounds: rounds.len(),
        attempted: evals,
        failed: 0,
        metrics: crate::end_to_end(
            median(&setups),
            evals as f64 / run_s,
            median(&all),
            median(&tails),
            cpu_s * 1e3 / evals as f64,
            peak_rss_mb,
        ),
        check_failures: failures,
    })
}

/// Counts the traced replay gathers besides spans and probes.
#[derive(Default)]
struct Acc {
    evals: u64,
    insertions: u64,
    hits: u64,
    lookups: u64,
    /// Summed per-request link round trips (from the trace's completion
    /// spans) and the locally re-timed service time of sampled genomes.
    rtt_us: f64,
    rtt_n: u64,
    service_s: f64,
    service_n: u64,
    makespan_s: f64,
    busy_s: f64,
    wire_bytes: u64,
    wire_frames: u64,
    events: u64,
    trace_bytes: u64,
    exports: u64,
}

/// The streamed steady-state loop driven directly through
/// `EdgeCluster::evaluate_stream`, with spans around each
/// `steady_state_insert` and the JSONL export. The stream span counts
/// its own time only (the insertions inside it are their own spans).
fn traced_round(
    master: u64,
    sp: &mut Spans,
    probe: &mut Probe,
    acc: &mut Acc,
    failures: &mut Vec<String>,
) -> Result<f64, String> {
    let cfg = config()?;
    let mut pop = Population::new(cfg.clone(), master);
    let mut edge = spawn_agents(&cfg)?;
    let tracer = new_tracer(master);
    edge.set_tracer(tracer.clone());
    let mut local = Evaluator::with_options(
        WORKLOAD,
        InferenceMode::MultiStep,
        1,
        1,
        EngineOptions {
            cache: false,
            ..EngineOptions::default()
        },
    );
    let mut wall = Wall::default();
    wall.start();
    let initial: Vec<Genome> = pop.genomes().values().cloned().collect();
    let mut dispatched = initial.len() as u64;
    let mut insertions = 0u64;
    let mut completions: Vec<f64> = Vec::with_capacity(BUDGET as usize);
    let mut bad = None;
    let insert_before = sp.secs("steady_state.insert");
    let t = sp.is_on().then(Instant::now);
    let stream = edge.evaluate_stream(master, initial, &mut |c: &StreamCompletion| {
        pop.counters_mut()
            .record_inference(c.evaluation.activations * c.genes_per_activation);
        pop.counters_mut().record_episode();
        if let Err(e) = pop.set_fitness(c.genome, c.evaluation.fitness) {
            bad = Some(e.to_string());
            return None;
        }
        pop.note_best_ever();
        completions.push(c.evaluation.fitness);
        if dispatched >= BUDGET {
            return None;
        }
        let r = sp.time("steady_state.insert", || {
            steady_state_insert(&mut pop, TOURNAMENT, insertions)
        })?;
        insertions += 1;
        dispatched += 1;
        tracer.timing(EventKind::Insertion, |ev| {
            ev.agent = Some(c.agent as u64);
            ev.genome = Some(c.genome.0);
            ev.child = Some(r.child.0);
            ev.evicted = Some(r.evicted.0);
            ev.p1 = Some(r.parent1.0);
            ev.p2 = Some(r.parent2.0);
        });
        pop.genome(r.child).cloned()
    });
    if let Some(t) = t {
        let insert_s = sp.secs("steady_state.insert") - insert_before;
        sp.add("runtime.stream", t.elapsed().as_secs_f64() - insert_s);
    }
    let stream = stream.map_err(err)?;
    if let Some(e) = bad {
        return Err(e);
    }
    let trace = tracer.finish().ok_or("live tracer returned no trace")?;
    let bytes = sp.time("telemetry.export", || export(&trace))?;
    wall.stop();
    check_run(master, &completions, &pop, &cfg, failures);
    acc.evals += completions.len() as u64;
    acc.insertions += insertions;
    let (h, l) = edge.take_cache_window();
    acc.hits += h;
    acc.lookups += l;
    for e in trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Completion)
    {
        if let Some(d) = e.dur_us {
            acc.rtt_us += d as f64;
            acc.rtt_n += 1;
        }
    }
    acc.makespan_s += stream.makespan_s;
    acc.busy_s += stream.busy_s;
    acc.wire_bytes += edge.ledger().total_wire_bytes();
    acc.wire_frames += edge.ledger().total_messages();
    acc.events += trace.events.len() as u64;
    acc.trace_bytes += bytes as u64;
    acc.exports += 1;
    edge.shutdown();
    if !sp.is_on() {
        return Ok(wall.secs());
    }
    // Probes on a sample of the final population: compile, episode,
    // codec of one-genome frames, and the agent-side service time.
    let sample: Vec<Genome> = pop.genomes().values().take(SAMPLE).cloned().collect();
    let nets = probe.compile(&sample, &cfg);
    for (net, g) in nets.iter().zip(&sample) {
        let seed = Evaluator::episode_seed(master, g.content_hash(), 1, InferenceMode::MultiStep);
        probe.episode(WORKLOAD, net, seed);
        let t = Instant::now();
        let evals = local.evaluate_genomes(std::slice::from_ref(g), &cfg, master, 0);
        acc.service_s += t.elapsed().as_secs_f64();
        acc.service_n += 1;
        probe.codec(&WireMessage::Evaluate {
            generation: 0,
            master_seed: master,
            genomes: vec![g.clone()],
        });
        probe.codec(&WireMessage::Fitness(evals));
    }
    let singles = vec![1; nets.len()];
    probe.occupancy(&nets, &singles);
    Ok(wall.secs())
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut failures = Vec::new();
    let mut sp = Spans::default();
    let mut probe = Probe::default();
    let mut acc = Acc::default();
    let (mut on_s, mut off_s, mut traced_s, mut bare_s) = (0.0, 0.0, 0.0, 0.0);
    let mut rounds = 0usize;
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let master = round_seed(args.seed, rounds);
        on_s += round(master, true, &mut failures)?.run_s;
        off_s += round(master, false, &mut failures)?.run_s;
        // The replay with the benchmark's spans off prices the spans; it
        // goes first on every other round, so neither order is favoured.
        let bare = |failures: &mut Vec<String>| {
            let (mut sp, mut probe, mut acc) = (Spans::off(), Probe::default(), Acc::default());
            traced_round(master, &mut sp, &mut probe, &mut acc, failures)
        };
        if rounds % 2 == 0 {
            traced_s += traced_round(master, &mut sp, &mut probe, &mut acc, &mut failures)?;
            bare_s += bare(&mut failures)?;
        } else {
            bare_s += bare(&mut failures)?;
            traced_s += traced_round(master, &mut sp, &mut probe, &mut acc, &mut failures)?;
        }
        rounds += 1;
    }
    let evals = acc.evals as f64;
    let mut layers = Layers::default();
    probe.fill(&mut layers);
    layers.steady_state_insert_us =
        ratio(sp.secs("steady_state.insert") * 1e6, acc.insertions as f64);
    layers.cache_hit_rate = ratio(acc.hits as f64, acc.lookups as f64);
    layers.cache_lookups = acc.lookups as f64;
    layers.runtime_stream_rtt_us =
        ratio(acc.rtt_us, acc.rtt_n as f64) - ratio(acc.service_s * 1e6, acc.service_n as f64);
    layers.runtime_idle_share = ratio(
        AGENTS as f64 * acc.makespan_s - acc.busy_s,
        AGENTS as f64 * acc.makespan_s,
    );
    layers.transport_bytes_per_eval = ratio(acc.wire_bytes as f64, evals);
    layers.transport_frames_per_eval = ratio(acc.wire_frames as f64, evals);
    layers.telemetry_events_per_eval = ratio(acc.events as f64, evals);
    layers.telemetry_bytes_per_eval = ratio(acc.trace_bytes as f64, evals);
    layers.telemetry_overhead_pct = 100.0 * (on_s - off_s) / off_s;
    layers.telemetry_export_ms = ratio(sp.secs("telemetry.export") * 1e3, acc.exports as f64);
    // Shares are of the program's own round (tracing on, export
    // included), so program work the replay does not call (the
    // orchestrator's loop state and event bookkeeping) is unattributed.
    layers.run_eval_share = ratio(sp.secs("runtime.stream"), on_s);
    layers.run_unattributed_pct = 100.0 * (1.0 - ratio(sp.covered(), on_s));
    layers.bench_trace_overhead_pct = 100.0 * (traced_s - bare_s) / bare_s;
    crate::print_layer_table(&args.workload, &sp, on_s, &layers);
    Ok(Outcome {
        rounds,
        attempted: acc.evals,
        failed: 0,
        metrics: layers.metrics(),
        check_failures: failures,
    })
}
