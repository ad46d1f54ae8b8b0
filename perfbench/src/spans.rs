//! The benchmark's own spans (around public calls, from outside the
//! program) and the per-layer metrics they yield.

use crate::Metric;
use std::collections::BTreeMap;
use std::time::Instant;

/// Summed wall time per span name. A replay runs once with spans on
/// and once with them off (`Spans::off`), so their own cost can be
/// measured: spans off, `time` only calls its closure and nothing is
/// recorded.
pub struct Spans {
    on: bool,
    totals: BTreeMap<&'static str, f64>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            on: true,
            totals: BTreeMap::new(),
        }
    }
}

impl Spans {
    pub fn off() -> Self {
        Spans {
            on: false,
            ..Spans::default()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside the span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Runs `f` inside the span `name`; also returns the span's seconds
    /// (0 with spans off).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.on {
            return (f(), 0.0);
        }
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.add(name, secs);
        (out, secs)
    }

    /// Adds `secs` of measured time to span `name`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        if self.on {
            *self.totals.entry(name).or_insert(0.0) += secs;
        }
    }

    /// Summed seconds of span `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Summed seconds of every span (the top-level spans never nest).
    pub fn covered(&self) -> f64 {
        self.totals.values().sum()
    }

    /// `(name, seconds)` of every span, for the human-readable table.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        self.totals.iter().map(|(k, v)| (*k, *v)).collect()
    }
}

/// Wall-clock stopwatch that can be paused around benchmark-only work.
#[derive(Default)]
pub struct Wall {
    total: f64,
    since: Option<Instant>,
}

impl Wall {
    pub fn start(&mut self) {
        self.since = Some(Instant::now());
    }

    pub fn stop(&mut self) {
        if let Some(t) = self.since.take() {
            self.total += t.elapsed().as_secs_f64();
        }
    }

    pub fn secs(&self) -> f64 {
        self.total
    }
}

/// Every per-layer metric. A layer a workload does not run reads 0
/// (the README lists which layer each workload exercises).
#[derive(Default)]
pub struct Layers {
    pub envs_step_ns: f64,
    pub network_compile_us: f64,
    pub network_activate_ns_per_gene: f64,
    pub batch_singleton_share: f64,
    pub batch_lanes_mean: f64,
    pub species_speciate_ms: f64,
    pub species_ns_per_gene: f64,
    pub species_distance_evals: f64,
    pub reproduction_ms: f64,
    pub reproduction_ns_per_gene: f64,
    pub steady_state_insert_us: f64,
    pub cache_hit_rate: f64,
    pub cache_lookups: f64,
    pub evaluator_eval_ms: f64,
    pub parallel_speedup: f64,
    pub parallel_imbalance: f64,
    pub runtime_collect_ms: f64,
    pub runtime_gather_wait_ms: f64,
    pub runtime_stream_rtt_us: f64,
    pub runtime_idle_share: f64,
    pub transport_encode_us: f64,
    pub transport_decode_us: f64,
    pub transport_bytes_per_eval: f64,
    pub transport_frames_per_eval: f64,
    pub telemetry_events_per_eval: f64,
    pub telemetry_bytes_per_eval: f64,
    pub telemetry_overhead_pct: f64,
    pub telemetry_export_ms: f64,
    pub run_eval_share: f64,
    pub model_inference_share: f64,
    pub run_unattributed_pct: f64,
    pub bench_trace_overhead_pct: f64,
}

impl Layers {
    /// The metrics in their fixed reporting order.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("envs.step_ns", self.envs_step_ns, "ns"),
            m("network.compile_us", self.network_compile_us, "us"),
            m(
                "network.activate_ns_per_gene",
                self.network_activate_ns_per_gene,
                "ns",
            ),
            m("batch.singleton_share", self.batch_singleton_share, "share"),
            m("batch.lanes_mean", self.batch_lanes_mean, "lanes"),
            m("species.speciate_ms", self.species_speciate_ms, "ms"),
            m("species.ns_per_gene", self.species_ns_per_gene, "ns"),
            m(
                "species.distance_evals",
                self.species_distance_evals,
                "count",
            ),
            m("reproduction.ms", self.reproduction_ms, "ms"),
            m(
                "reproduction.ns_per_gene",
                self.reproduction_ns_per_gene,
                "ns",
            ),
            m("steady_state.insert_us", self.steady_state_insert_us, "us"),
            m("cache.hit_rate", self.cache_hit_rate, "share"),
            m("cache.lookups", self.cache_lookups, "count"),
            m("evaluator.eval_ms", self.evaluator_eval_ms, "ms"),
            m("parallel.speedup", self.parallel_speedup, "x"),
            m("parallel.imbalance", self.parallel_imbalance, "x"),
            m("runtime.collect_ms", self.runtime_collect_ms, "ms"),
            m("runtime.gather_wait_ms", self.runtime_gather_wait_ms, "ms"),
            m("runtime.stream_rtt_us", self.runtime_stream_rtt_us, "us"),
            m("runtime.idle_share", self.runtime_idle_share, "share"),
            m("transport.encode_us", self.transport_encode_us, "us"),
            m("transport.decode_us", self.transport_decode_us, "us"),
            m(
                "transport.bytes_per_eval",
                self.transport_bytes_per_eval,
                "B",
            ),
            m(
                "transport.frames_per_eval",
                self.transport_frames_per_eval,
                "count",
            ),
            m(
                "telemetry.events_per_eval",
                self.telemetry_events_per_eval,
                "count",
            ),
            m(
                "telemetry.bytes_per_eval",
                self.telemetry_bytes_per_eval,
                "B",
            ),
            m("telemetry.overhead_pct", self.telemetry_overhead_pct, "%"),
            m("telemetry.export_ms", self.telemetry_export_ms, "ms"),
            m("run.eval_share", self.run_eval_share, "share"),
            m("model.inference_share", self.model_inference_share, "share"),
            m("run.unattributed_pct", self.run_unattributed_pct, "%"),
            m(
                "bench.trace_overhead_pct",
                self.bench_trace_overhead_pct,
                "%",
            ),
        ]
    }
}
