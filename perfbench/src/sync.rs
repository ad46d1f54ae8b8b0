//! The generation-synchronous workloads: AirRaid-ram on a 2-thread
//! `ParallelEvaluator` pool (serial topology) and LunarLander under
//! CLAN_DCS over 2 loopback TCP agents.

use crate::probe::{check_champion, Probe};
use crate::spans::{Layers, Spans, Wall};
use crate::{err, median, ratio, round_seed, rusage, tail, Args, Outcome, SETUP_REPS};
use clan_core::transport::codec::WireMessage;
use clan_core::{
    ClusterSpec, DcsOrchestrator, EdgeCluster, EngineOptions, Evaluator, GenerationReport,
    InferenceMode, Orchestrator, ParallelEvaluator, SerialOrchestrator,
};
use clan_distsim::{partition_weighted, Cluster};
use clan_envs::Workload;
use clan_hw::{Platform, PlatformKind};
use clan_neat::population::Evaluation;
use clan_neat::{
    CachedEvaluation, FitnessCache, Genome, GenomeId, NeatConfig, NeatError, Population,
};
use clan_netsim::WifiModel;
use std::collections::BTreeSet;
use std::time::Instant;

/// Evaluation threads (airraid-threads) or loopback agents
/// (lander-tcp-dcs): the host has 2 CPUs.
const WIDTH: usize = 2;
/// Generations per round: at least 40, so the tail percentile has ten
/// generations beyond it.
const GENERATIONS: u64 = 40;
/// Genomes per probed generation whose episodes are re-timed.
const EPISODE_SAMPLE: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    AirRaidThreads,
    LanderTcpDcs,
}

impl Kind {
    fn workload(self) -> Workload {
        match self {
            Kind::AirRaidThreads => Workload::AirRaid,
            Kind::LanderTcpDcs => Workload::LunarLander,
        }
    }

    fn population(self) -> usize {
        match self {
            Kind::AirRaidThreads => 150,
            Kind::LanderTcpDcs => 300,
        }
    }

    /// Generations whose layers the traced run re-times locally: every
    /// fourth on AirRaid (its probes are as costly as the generation),
    /// every one on LunarLander (gather wait is per generation).
    fn probed(self, generation: u64) -> bool {
        match self {
            Kind::AirRaidThreads => generation.is_multiple_of(4),
            Kind::LanderTcpDcs => true,
        }
    }

    fn config(self) -> Result<NeatConfig, String> {
        let w = self.workload();
        NeatConfig::builder(w.obs_dim(), w.n_actions())
            .population_size(self.population())
            .build()
            .map_err(|e| e.to_string())
    }
}

/// The analytic cluster the orchestrators charge their modeled
/// timeline to (Raspberry Pis on the paper's WiFi).
fn model_cluster(agents: usize) -> Cluster {
    Cluster::homogeneous(
        Platform::new(PlatformKind::RaspberryPi),
        agents,
        WifiModel::default(),
    )
}

enum Orch {
    Serial(SerialOrchestrator),
    Dcs(DcsOrchestrator),
}

impl Orch {
    /// Workload start up to the point the first evaluation can begin:
    /// NEAT config, initial population, and the eval pool or the
    /// loopback agents spawned, connected and configured.
    fn build(kind: Kind, master: u64) -> Result<(Orch, NeatConfig), String> {
        let w = kind.workload();
        let cfg = kind.config()?;
        let pop = Population::new(cfg.clone(), master);
        let orch = match kind {
            Kind::AirRaidThreads => {
                let ev = Evaluator::with_options(
                    w,
                    InferenceMode::MultiStep,
                    1,
                    WIDTH,
                    EngineOptions::default(),
                );
                Orch::Serial(SerialOrchestrator::new(pop, ev, model_cluster(1)))
            }
            Kind::LanderTcpDcs => {
                let spec = ClusterSpec::new(w, InferenceMode::MultiStep, cfg.clone())
                    .with_episodes(1)
                    .with_engine(EngineOptions::default());
                let edge = EdgeCluster::spawn_local_spec(WIDTH, spec).map_err(err)?;
                let ev = Evaluator::with_options(
                    w,
                    InferenceMode::MultiStep,
                    1,
                    1,
                    EngineOptions::default(),
                )
                .with_remote(edge);
                Orch::Dcs(DcsOrchestrator::new(pop, ev, model_cluster(WIDTH)))
            }
        };
        Ok((orch, cfg))
    }

    fn pop(&self) -> &Population {
        match self {
            Orch::Serial(o) => o.population(),
            Orch::Dcs(o) => o.population(),
        }
    }

    fn orchestrator(&mut self) -> &mut dyn Orchestrator {
        match self {
            Orch::Serial(o) => o,
            Orch::Dcs(o) => o,
        }
    }
}

/// One untraced round.
struct Round {
    /// Set-up times of this round's `SETUP_REPS` builds.
    setups: Vec<f64>,
    /// Summed generation wall time (everything after set-up).
    run_s: f64,
    cpu_s: f64,
    gen_ms: Vec<f64>,
    /// Per-generation best fitness, as IEEE-754 bits.
    best: Vec<u64>,
    evals: u64,
    /// Mean modeled inference share of the Pi `GenerationTimeline`.
    model_inference_share: f64,
}

fn round(kind: Kind, master: u64, failures: &mut Vec<String>) -> Result<Round, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let built = Orch::build(kind, master)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    let (cpu0, _) = rusage();
    let t0 = Instant::now();
    let (mut orch, cfg) = Orch::build(kind, master)?;
    setups.push(t0.elapsed().as_secs_f64());
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut gen_ms = Vec::with_capacity(GENERATIONS as usize);
    let mut best = Vec::with_capacity(GENERATIONS as usize);
    let mut share = 0.0;
    for _ in 0..GENERATIONS {
        // The cache is keyed by content hash: a genome hits exactly when
        // its hash was evaluated in an earlier generation (lookups of
        // one generation all precede its inserts).
        let hashes: Vec<u64> = orch
            .pop()
            .genomes()
            .values()
            .map(Genome::content_hash)
            .collect();
        let predicted = hashes.iter().filter(|h| seen.contains(h)).count() as u64;
        let t = Instant::now();
        let report: GenerationReport = orch.orchestrator().step_generation().map_err(err)?;
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if report.cache_hits != predicted || report.cache_lookups != hashes.len() as u64 {
            failures.push(format!(
                "seed {master:#x} gen {}: cache {}/{} hits/lookups, content hashes predict {}/{}",
                report.generation,
                report.cache_hits,
                report.cache_lookups,
                predicted,
                hashes.len()
            ));
        }
        seen.extend(hashes);
        best.push(report.best_fitness.to_bits());
        share += report.timeline.shares().inference;
    }
    let (cpu1, _) = rusage();
    let champion = orch.orchestrator().best_ever().cloned();
    failures.extend(check_champion(
        &format!("seed {master:#x}"),
        kind.workload(),
        champion.as_ref(),
        &cfg,
        master,
    ));
    Ok(Round {
        setups,
        run_s: gen_ms.iter().sum::<f64>() / 1e3,
        cpu_s: cpu1 - cpu0,
        gen_ms,
        best,
        evals: kind.population() as u64 * GENERATIONS,
        model_inference_share: share / GENERATIONS as f64,
    })
}

/// The per-generation best fitness of a 1-thread, batch-off, cache-off
/// local serial run of the same seed.
fn reference_best(kind: Kind, master: u64) -> Result<Vec<u64>, String> {
    let cfg = kind.config()?;
    let ev = Evaluator::with_options(
        kind.workload(),
        InferenceMode::MultiStep,
        1,
        1,
        EngineOptions {
            batch_lanes: 1,
            cache: false,
        },
    );
    let mut orch = SerialOrchestrator::new(Population::new(cfg, master), ev, model_cluster(1));
    (0..GENERATIONS)
        .map(|_| {
            orch.step_generation()
                .map(|r| r.best_fitness.to_bits())
                .map_err(err)
        })
        .collect()
}

fn check_reference(kind: Kind, master: u64, best: &[u64], failures: &mut Vec<String>) {
    match reference_best(kind, master) {
        Ok(reference) if reference == best => {}
        Ok(reference) => {
            let gen = reference
                .iter()
                .zip(best)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            failures.push(format!(
                "seed {master:#x}: best fitness of gen {gen} is {} but the serial reference has {}",
                f64::from_bits(best[gen]),
                f64::from_bits(reference[gen])
            ));
        }
        Err(e) => failures.push(format!("seed {master:#x}: reference run failed: {e}")),
    }
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(kind, args);
    }
    let start = Instant::now();
    let mut failures = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let master = round_seed(args.seed, rounds.len());
        rounds.push(round(kind, master, &mut failures)?);
    }
    let (_, peak_rss_mb) = rusage();
    check_reference(
        kind,
        round_seed(args.seed, 0),
        &rounds[0].best,
        &mut failures,
    );
    let evals: u64 = rounds.iter().map(|r| r.evals).sum();
    let run_s: f64 = rounds.iter().map(|r| r.run_s).sum();
    let cpu_s: f64 = rounds.iter().map(|r| r.cpu_s).sum();
    let all_gens: Vec<f64> = rounds.iter().flat_map(|r| r.gen_ms.clone()).collect();
    let tails: Vec<f64> = rounds.iter().map(|r| tail(&r.gen_ms)).collect();
    let setups: Vec<f64> = rounds.iter().flat_map(|r| r.setups.clone()).collect();
    Ok(Outcome {
        rounds: rounds.len(),
        attempted: evals,
        failed: 0,
        metrics: crate::end_to_end(
            median(&setups),
            evals as f64 / run_s,
            median(&all_gens),
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
    generations: u64,
    evals: u64,
    hits: u64,
    lookups: u64,
    speciation_genes: u64,
    distance_evals: u64,
    reproduction_genes: u64,
    /// Probed generations: pool wall, summed 1-thread shard time, and
    /// summed slowest / mean shard time.
    pool_s: f64,
    shard_sum_s: f64,
    shard_max_s: f64,
    shard_mean_s: f64,
    /// Collect wall minus the slowest chunk's local compute, summed.
    gather_wait_s: f64,
    wire_bytes: u64,
    wire_frames: u64,
}

/// Applies one generation's results the way the orchestrators do
/// (cost counters, then fitness) and returns the generation's best.
fn apply(pop: &mut Population, results: &[(GenomeId, Evaluation, u64)]) -> Result<f64, String> {
    for &(id, eval, gpa) in results {
        pop.counters_mut().record_inference(eval.activations * gpa);
        pop.counters_mut().record_episode();
        pop.set_fitness(id, eval.fitness).map_err(err)?;
    }
    pop.best()
        .and_then(Genome::fitness)
        .ok_or_else(|| "evaluated population has no best genome".to_string())
}

/// Speciation, planning, reproduction and install, each in its own
/// span, mirroring the orchestrators' central evolution.
fn evolve(pop: &mut Population, sp: &mut Spans, acc: &mut Acc) -> Result<(), String> {
    let outcome = sp.time("species.speciate", || pop.speciate());
    acc.speciation_genes += outcome.genes_processed;
    acc.distance_evals += outcome.distance_evals;
    let before = pop.counters().current().reproduction_genes;
    match sp.time("reproduction.plan", || pop.plan_generation()) {
        Ok(plan) => {
            let children = sp.time("reproduction.build", || pop.reproduce_centrally(&plan));
            sp.time("reproduction.install", || {
                pop.install_next_generation(children)
            });
        }
        Err(NeatError::Extinction) if pop.config().reset_on_extinction => {
            sp.time("reproduction.install", || pop.reset_population());
        }
        Err(e) => return Err(e.to_string()),
    }
    acc.reproduction_genes += pop.counters().current().reproduction_genes - before;
    pop.counters_mut().finish_generation();
    acc.generations += 1;
    Ok(())
}

/// Shard sizes of a `ParallelEvaluator` over `n` genomes: contiguous,
/// `ceil(n / workers)` each.
fn pool_shards(n: usize, workers: usize) -> Vec<usize> {
    let len = n.div_ceil(workers).max(1);
    (0..n)
        .step_by(len)
        .map(|start| len.min(n - start))
        .collect()
}

/// Re-times the inference layers on one generation's evaluated genomes
/// and records batch occupancy over the engine's shards.
fn probe_inference(
    kind: Kind,
    master: u64,
    genomes: &[Genome],
    cfg: &NeatConfig,
    shards: &[usize],
    probe: &mut Probe,
) {
    let nets = probe.compile(genomes, cfg);
    probe.occupancy(&nets, shards);
    for (net, g) in nets.iter().zip(genomes).take(EPISODE_SAMPLE) {
        let seed = Evaluator::episode_seed(master, g.content_hash(), 1, InferenceMode::MultiStep);
        probe.episode(kind.workload(), net, seed);
    }
}

struct TracedRound {
    wall_s: f64,
    best: Vec<u64>,
}

/// AirRaid replay: the fitness cache and the 2-thread pool driven
/// directly, with spans around the cache, the pool call and each
/// evolution phase.
fn traced_airraid(
    master: u64,
    sp: &mut Spans,
    probe: &mut Probe,
    acc: &mut Acc,
) -> Result<TracedRound, String> {
    let kind = Kind::AirRaidThreads;
    let w = kind.workload();
    let cfg = kind.config()?;
    let mut pop = Population::new(cfg.clone(), master);
    let pool = ParallelEvaluator::spawn(w, InferenceMode::MultiStep, 1, WIDTH);
    let solo = ParallelEvaluator::spawn(w, InferenceMode::MultiStep, 1, 1);
    let mut cache = FitnessCache::new();
    let mut wall = Wall::default();
    let mut best = Vec::new();
    for gen in 0..GENERATIONS {
        wall.start();
        let (mut results, misses, miss_hash) = sp.time("cache", || {
            let mut hits = Vec::new();
            let mut misses = Vec::new();
            let mut miss_hash = Vec::new();
            for g in pop.genomes().values() {
                let hash = g.content_hash();
                match cache.lookup(master, hash) {
                    Some(c) => hits.push((g.id(), c.evaluation, c.genes_per_activation)),
                    None => {
                        misses.push(g.clone());
                        miss_hash.push(hash);
                    }
                }
            }
            (hits, misses, miss_hash)
        });
        wall.stop();
        let probed = (sp.is_on() && kind.probed(gen)).then(|| misses.clone());
        wall.start();
        let n_misses = misses.len();
        let (evaluated, pool_s) = sp.timed("evaluator", || {
            pool.evaluate_genomes(misses, &cfg, master, gen)
        });
        sp.time("cache", || {
            for (k, &(_, evaluation, gpa)) in evaluated.iter().enumerate() {
                cache.insert(
                    master,
                    miss_hash[k],
                    CachedEvaluation {
                        evaluation,
                        genes_per_activation: gpa,
                    },
                );
            }
        });
        results.extend(evaluated);
        results.sort_by_key(|r| r.0);
        best.push(apply(&mut pop, &results)?.to_bits());
        evolve(&mut pop, sp, acc)?;
        wall.stop();
        acc.evals += results.len() as u64;
        let (h, l) = cache.take_window();
        acc.hits += h;
        acc.lookups += l;
        if let Some(genomes) = probed {
            let shards = pool_shards(n_misses, WIDTH);
            probe_inference(kind, master, &genomes, &cfg, &shards, probe);
            let mut start = 0;
            let mut times = Vec::new();
            for &n in &shards {
                let shard = genomes[start..start + n].to_vec();
                start += n;
                let t = Instant::now();
                solo.evaluate_genomes(shard, &cfg, master, gen);
                times.push(t.elapsed().as_secs_f64());
            }
            if !times.is_empty() {
                acc.pool_s += pool_s;
                acc.shard_sum_s += times.iter().sum::<f64>();
                acc.shard_max_s += times.iter().copied().fold(0.0, f64::max);
                acc.shard_mean_s += times.iter().sum::<f64>() / times.len() as f64;
            }
        }
    }
    Ok(TracedRound {
        wall_s: wall.secs(),
        best,
    })
}

/// LunarLander replay: `EdgeCluster::evaluate_collect` over the same
/// loopback agents, with the gather's compute re-timed locally per
/// chunk and its frames re-encoded.
fn traced_lander(
    master: u64,
    sp: &mut Spans,
    probe: &mut Probe,
    acc: &mut Acc,
) -> Result<TracedRound, String> {
    let kind = Kind::LanderTcpDcs;
    let w = kind.workload();
    let cfg = kind.config()?;
    let mut pop = Population::new(cfg.clone(), master);
    let spec = ClusterSpec::new(w, InferenceMode::MultiStep, cfg.clone())
        .with_episodes(1)
        .with_engine(EngineOptions::default());
    let mut edge = EdgeCluster::spawn_local_spec(WIDTH, spec).map_err(err)?;
    let mut local = Evaluator::with_options(
        w,
        InferenceMode::MultiStep,
        1,
        1,
        EngineOptions {
            cache: false,
            ..EngineOptions::default()
        },
    );
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut wall = Wall::default();
    let mut best = Vec::new();
    for gen in 0..GENERATIONS {
        let misses: Vec<Genome> = pop
            .genomes()
            .values()
            .filter(|g| !seen.contains(&g.content_hash()))
            .cloned()
            .collect();
        seen.extend(pop.genomes().values().map(Genome::content_hash));
        wall.start();
        let (results, collect_s) = sp.timed("runtime.collect", || edge.evaluate_collect(&pop));
        let results = results.map_err(err)?;
        best.push(apply(&mut pop, &results)?.to_bits());
        let (h, l) = sp.time("cache", || edge.take_cache_window());
        evolve(&mut pop, sp, acc)?;
        wall.stop();
        acc.evals += results.len() as u64;
        acc.hits += h;
        acc.lookups += l;
        if !sp.is_on() || !kind.probed(gen) {
            continue;
        }
        let weights = vec![1.0; WIDTH];
        let chunks = partition_weighted(misses.len(), &weights);
        probe_inference(kind, master, &misses, &cfg, &chunks, probe);
        let mut start = 0;
        let mut slowest = 0.0f64;
        for &n in &chunks {
            let chunk = &misses[start..start + n];
            start += n;
            if chunk.is_empty() {
                continue;
            }
            let t = Instant::now();
            let evals = local.evaluate_genomes(chunk, &cfg, master, gen);
            slowest = slowest.max(t.elapsed().as_secs_f64());
            probe.codec(&WireMessage::Evaluate {
                generation: gen,
                master_seed: master,
                genomes: chunk.to_vec(),
            });
            probe.codec(&WireMessage::Fitness(evals));
        }
        acc.gather_wait_s += collect_s - slowest;
    }
    acc.wire_bytes += edge.ledger().total_wire_bytes();
    acc.wire_frames += edge.ledger().total_messages();
    edge.shutdown();
    Ok(TracedRound {
        wall_s: wall.secs(),
        best,
    })
}

/// The workload's replay, with spans on (`sp`, probes and counts kept)
/// or off (a bare replay whose wall time prices the spans).
fn replay(
    kind: Kind,
    master: u64,
    sp: &mut Spans,
    probe: &mut Probe,
    acc: &mut Acc,
) -> Result<TracedRound, String> {
    match kind {
        Kind::AirRaidThreads => traced_airraid(master, sp, probe, acc),
        Kind::LanderTcpDcs => traced_lander(master, sp, probe, acc),
    }
}

fn run_traced(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut failures = Vec::new();
    let mut sp = Spans::default();
    let mut probe = Probe::default();
    let mut acc = Acc::default();
    let (mut plain_s, mut traced_s, mut bare_s) = (0.0, 0.0, 0.0);
    let (mut share, mut rounds) = (0.0, 0usize);
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let master = round_seed(args.seed, rounds);
        let plain = round(kind, master, &mut failures)?;
        // The spans-off replay goes first on every other round, so
        // neither order is favoured by warm caches.
        let bare = || {
            replay(
                kind,
                master,
                &mut Spans::off(),
                &mut Probe::default(),
                &mut Acc::default(),
            )
        };
        let (traced, bare) = if rounds % 2 == 0 {
            let traced = replay(kind, master, &mut sp, &mut probe, &mut acc)?;
            (traced, bare()?)
        } else {
            let bare = bare()?;
            (replay(kind, master, &mut sp, &mut probe, &mut acc)?, bare)
        };
        for (what, r) in [("traced", &traced), ("spans-off", &bare)] {
            if r.best != plain.best {
                failures.push(format!(
                    "seed {master:#x}: the {what} replay's best-fitness sequence differs from the run's"
                ));
            }
        }
        plain_s += plain.run_s;
        traced_s += traced.wall_s;
        bare_s += bare.wall_s;
        share += plain.model_inference_share;
        rounds += 1;
    }
    let gens = acc.generations as f64;
    let eval_layer = if kind == Kind::AirRaidThreads {
        "evaluator"
    } else {
        "runtime.collect"
    };
    let repro_s = sp.secs("reproduction.plan")
        + sp.secs("reproduction.build")
        + sp.secs("reproduction.install");
    let mut layers = Layers::default();
    probe.fill(&mut layers);
    layers.species_speciate_ms = sp.secs("species.speciate") * 1e3 / gens;
    layers.species_ns_per_gene = ratio(
        sp.secs("species.speciate") * 1e9,
        acc.speciation_genes as f64,
    );
    layers.species_distance_evals = acc.distance_evals as f64 / gens;
    layers.reproduction_ms = repro_s * 1e3 / gens;
    layers.reproduction_ns_per_gene = ratio(repro_s * 1e9, acc.reproduction_genes as f64);
    layers.cache_hit_rate = ratio(acc.hits as f64, acc.lookups as f64);
    layers.cache_lookups = acc.lookups as f64;
    // The replay does the program's work bit for bit (equal best
    // sequence), so what its spans leave uncovered is measured against
    // the program's own untraced wall time: program work the replay does
    // not call shows up here.
    layers.run_eval_share = ratio(sp.secs(eval_layer), plain_s);
    layers.model_inference_share = share / rounds as f64;
    layers.run_unattributed_pct = 100.0 * (1.0 - ratio(sp.covered(), plain_s));
    layers.bench_trace_overhead_pct = 100.0 * (traced_s - bare_s) / bare_s;
    match kind {
        Kind::AirRaidThreads => {
            layers.evaluator_eval_ms = sp.secs("evaluator") * 1e3 / gens;
            layers.parallel_speedup = ratio(acc.shard_sum_s, acc.pool_s);
            layers.parallel_imbalance = ratio(acc.shard_max_s, acc.shard_mean_s);
        }
        Kind::LanderTcpDcs => {
            layers.runtime_collect_ms = sp.secs("runtime.collect") * 1e3 / gens;
            layers.runtime_gather_wait_ms = acc.gather_wait_s * 1e3 / gens;
            layers.transport_bytes_per_eval = ratio(acc.wire_bytes as f64, acc.evals as f64);
            layers.transport_frames_per_eval = ratio(acc.wire_frames as f64, acc.evals as f64);
        }
    }
    crate::print_layer_table(&args.workload, &sp, plain_s, &layers);
    Ok(Outcome {
        rounds,
        attempted: acc.evals,
        failed: 0,
        metrics: layers.metrics(),
        check_failures: failures,
    })
}
