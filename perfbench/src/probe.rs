//! Layer probes: local re-timing of work the program does inside one
//! public call (compile, activation, environment step, codec), run on
//! the same genomes outside the timed path so they add nothing to the
//! measured wall time.

use clan_core::transport::codec::{self, WireMessage};
use clan_core::{Evaluator, InferenceMode};
use clan_envs::{run_episode, Workload};
use clan_neat::{FeedForwardNetwork, Genome, NeatConfig, Scratch, ShapeKey};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Accumulated probe measurements of one run.
#[derive(Default)]
pub struct Probe {
    pub compile_s: f64,
    pub compiled: u64,
    pub activate_s: f64,
    pub activate_genes: u64,
    pub step_s: f64,
    pub steps: u64,
    /// Networks evaluated, shape singletons among them, batched banks
    /// and the lanes those banks held.
    pub nets: u64,
    pub singletons: u64,
    pub banks: u64,
    pub bank_lanes: u64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub frames: u64,
}

/// Bank width of the evaluation engine's default batching.
const BATCH_LANES: usize = 32;

impl Probe {
    /// Compiles every genome (timed as one block) and returns the nets.
    pub fn compile(&mut self, genomes: &[Genome], cfg: &NeatConfig) -> Vec<FeedForwardNetwork> {
        let t = Instant::now();
        let nets: Vec<FeedForwardNetwork> = genomes
            .iter()
            .map(|g| FeedForwardNetwork::compile(black_box(g), cfg))
            .collect();
        self.compile_s += t.elapsed().as_secs_f64();
        self.compiled += nets.len() as u64;
        nets
    }

    /// Batch occupancy as the engine would see it: nets grouped by
    /// [`ShapeKey::of`] within each contiguous shard of `counts`.
    pub fn occupancy(&mut self, nets: &[FeedForwardNetwork], counts: &[usize]) {
        let mut start = 0;
        for &c in counts {
            let shard = &nets[start..start + c];
            start += c;
            let mut groups: BTreeMap<ShapeKey, usize> = BTreeMap::new();
            for net in shard {
                *groups.entry(ShapeKey::of(net)).or_default() += 1;
            }
            self.nets += shard.len() as u64;
            for &n in groups.values() {
                if n == 1 || shard.len() == 1 {
                    self.singletons += n as u64;
                } else {
                    self.banks += 1;
                    self.bank_lanes += n.min(BATCH_LANES) as u64;
                }
            }
        }
    }

    /// Replays one genome's episode three times: once to record the
    /// observations and actions, then timing only the activations over
    /// the recorded observations, then only the environment steps over
    /// the recorded actions. Bulk timing keeps clock reads out of the
    /// nanosecond-scale loops.
    pub fn episode(&mut self, workload: Workload, net: &FeedForwardNetwork, seed: u64) {
        let max_steps = InferenceMode::MultiStep.max_steps(workload);
        let mut env = workload.make();
        let mut scratch = Scratch::new();
        let mut observations: Vec<Vec<f64>> = Vec::new();
        let mut actions: Vec<usize> = Vec::new();
        run_episode(env.as_mut(), seed, max_steps, |obs| {
            observations.push(obs.to_vec());
            let a = net.act_argmax_with(obs, &mut scratch);
            actions.push(a);
            a
        });
        let t = Instant::now();
        for obs in &observations {
            black_box(net.activate_into(black_box(obs), &mut scratch));
        }
        self.activate_s += t.elapsed().as_secs_f64();
        self.activate_genes += observations.len() as u64 * net.genes_per_activation();
        env.reset(seed);
        let t = Instant::now();
        for &a in &actions {
            black_box(env.step(black_box(a)));
        }
        self.step_s += t.elapsed().as_secs_f64();
        self.steps += actions.len() as u64;
    }

    /// Encodes and decodes one frame, timing each.
    pub fn codec(&mut self, msg: &WireMessage) {
        let t = Instant::now();
        let frame = codec::encode(black_box(msg));
        self.encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = codec::decode(black_box(&frame));
        self.decode_s += t.elapsed().as_secs_f64();
        assert!(back.is_ok(), "a frame the codec encoded must decode");
        self.frames += 1;
    }

    /// Fills the inference, batching and codec entries of `layers`.
    pub fn fill(&self, layers: &mut crate::spans::Layers) {
        use crate::ratio;
        layers.network_compile_us = ratio(self.compile_s * 1e6, self.compiled as f64);
        layers.network_activate_ns_per_gene =
            ratio(self.activate_s * 1e9, self.activate_genes as f64);
        layers.envs_step_ns = ratio(self.step_s * 1e9, self.steps as f64);
        layers.batch_singleton_share = ratio(self.singletons as f64, self.nets as f64);
        layers.batch_lanes_mean = ratio(self.bank_lanes as f64, self.banks as f64);
        layers.transport_encode_us = ratio(self.encode_s * 1e6, self.frames as f64);
        layers.transport_decode_us = ratio(self.decode_s * 1e6, self.frames as f64);
    }
}

/// The champion's fitness recomputed on the plain scalar path — a
/// fresh environment, `FeedForwardNetwork::activate` and the engine's
/// argmax rule (last maximal output wins), one episode seeded by
/// [`Evaluator::episode_seed`] — with no pool, batching, cache or
/// transport involved.
pub fn scalar_fitness(workload: Workload, genome: &Genome, cfg: &NeatConfig, master: u64) -> f64 {
    let net = FeedForwardNetwork::compile(genome, cfg);
    let seed = Evaluator::episode_seed(master, genome.content_hash(), 1, InferenceMode::MultiStep);
    let mut env = workload.make();
    let outcome = run_episode(
        env.as_mut(),
        seed,
        InferenceMode::MultiStep.max_steps(workload),
        |obs| {
            let out = net.activate(obs);
            let mut best = 0;
            for i in 1..out.len() {
                if out[i] >= out[best] {
                    best = i;
                }
            }
            best
        },
    );
    outcome.total_reward
}

/// Checks the champion against [`scalar_fitness`]; `None` when it holds.
pub fn check_champion(
    what: &str,
    workload: Workload,
    champion: Option<&Genome>,
    cfg: &NeatConfig,
    master: u64,
) -> Option<String> {
    let Some(champion) = champion else {
        return Some(format!("{what}: no champion"));
    };
    let reported = champion.fitness().unwrap_or(f64::NAN);
    let fresh = scalar_fitness(workload, champion, cfg, master);
    (reported.to_bits() != fresh.to_bits()).then(|| {
        format!(
            "{what}: champion {} reports fitness {reported} but re-evaluates to {fresh}",
            champion.id().0
        )
    })
}
