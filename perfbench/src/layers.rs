//! Per-layer probes for the traced run: timed calls into each layer's
//! public functions, made from the benchmark's own code.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dst::RealFs;
use runtime::{EffectLog, MonitorRuntime, RuntimeConfig};
use sensor::{SensorConfig, SmartSensorUnit};
use spicelite::{run_transient, TranOptions};
use stdcell::library::CellLibrary;
use tsense_core::gate::{Gate, GateKind};
use tsense_core::linearity::{FitKind, NonLinearity};
use tsense_core::ring::{CellConfig, RingOscillator};
use tsense_core::tech::Technology;
use tsense_core::units::{Celsius, TempRange};
use wire::{FleetMsg, HashRing, MapEntry, WireOutcome};

use crate::hist::Hist;
use crate::load::Stream;
use crate::report::median;

/// The served thermal field, as `WireServer` builds it.
fn field(x: f64, y: f64) -> f64 {
    60.0 + 2.0e3 * x + 1.0e3 * y
}

/// Median per-call time of `f`, timed in batches of `per_batch` calls
/// so the clock read does not dominate calls of a few nanoseconds.
fn per_call_ns(batches: usize, per_batch: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut xs = Vec::with_capacity(batches);
    for b in 0..batches {
        let t = Instant::now();
        for i in 0..per_batch {
            f(b as u64 * per_batch + i);
        }
        xs.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&xs)
}

/// A workload's request and a response of its shape.
pub fn messages(map_entries: Option<usize>) -> (FleetMsg, FleetMsg) {
    match map_entries {
        None => (
            FleetMsg::ClientReq {
                req_id: 0x1234_5678,
                key: 0x9E37_79B9_7F4A_7C15,
            },
            FleetMsg::ClientResp {
                req_id: 0x1234_5678,
                outcome: WireOutcome::Reading {
                    value_c: 61.375,
                    fresh: true,
                    age_ms: 0,
                },
                origin_shard: 1,
                forwarded_at_ms: 4_321,
                total_age_ms: 0,
            },
        ),
        Some(n) => (
            FleetMsg::MapReq {
                req_id: 0x1234_5678,
            },
            FleetMsg::MapResp {
                req_id: 0x1234_5678,
                forwarded_at_ms: 4_321,
                entries: (0..n)
                    .map(|i| MapEntry {
                        shard: (i / 64) as u32,
                        site: (i % 64) as u32,
                        value_c: 60.0 + i as f64 / 8.0,
                        age_ms: (i % 50) as u64,
                        quarantined: false,
                    })
                    .collect(),
            },
        ),
    }
}

/// `(encode ns, decode ns, response bytes)` for one request plus one
/// response through `wire::encode_frame` / `wire::decode_frame`.
pub fn wire_codec(
    req: &FleetMsg,
    resp: &FleetMsg,
    budget: usize,
) -> Result<(f64, f64, usize), String> {
    let req_b = wire::encode_frame(req, budget).map_err(|e| e.to_string())?;
    let resp_b = wire::encode_frame(resp, budget).map_err(|e| e.to_string())?;
    for (msg, bytes) in [(req, &req_b), (resp, &resp_b)] {
        let (back, used) = wire::decode_frame(bytes, budget).map_err(|e| e.to_string())?;
        if &back != msg || used != bytes.len() {
            return Err(format!("wire round trip changed {msg:?}"));
        }
    }
    let enc = per_call_ns(50, 200, |_| {
        std::hint::black_box(wire::encode_frame(std::hint::black_box(req), budget).ok());
        std::hint::black_box(wire::encode_frame(std::hint::black_box(resp), budget).ok());
    });
    let dec = per_call_ns(50, 200, |_| {
        std::hint::black_box(wire::decode_frame(std::hint::black_box(&req_b), budget).ok());
        std::hint::black_box(wire::decode_frame(std::hint::black_box(&resp_b), budget).ok());
    });
    Ok((enc, dec, resp_b.len()))
}

/// `HashRing::route` over uniform keys, ns per call, on the served
/// fleet's ring shape.
pub fn ring_route_ns(shards: usize, seed: u64) -> f64 {
    let ring = HashRing::new(shards, 8);
    let mut s = Stream::new(seed);
    let keys: Vec<u64> = (0..1024).map(|_| s.next_u64()).collect();
    per_call_ns(50, 2_000, |i| {
        std::hint::black_box(ring.route(keys[(i % 1024) as usize], |_| true));
    })
}

/// The served sites' unit: 5×INV, two-point calibrated.
fn reference_unit() -> Result<SmartSensorUnit, String> {
    let gate = Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).map_err(|e| e.to_string())?;
    let ring = RingOscillator::uniform(gate, 5).map_err(|e| e.to_string())?;
    let mut unit = SmartSensorUnit::new(SensorConfig::new(ring, Technology::um350()))
        .map_err(|e| e.to_string())?;
    unit.calibrate_two_point(Celsius::new(-50.0), Celsius::new(150.0))
        .map_err(|e| e.to_string())?;
    Ok(unit)
}

/// `SmartSensorUnit::measure`, ns per conversion.
pub fn sensor_measure_ns() -> Result<f64, String> {
    let mut unit = reference_unit()?;
    unit.measure(Celsius::new(60.0))
        .map_err(|e| e.to_string())?;
    Ok(per_call_ns(40, 500, |i| {
        let t = Celsius::new(40.0 + (i % 64) as f64);
        std::hint::black_box(unit.measure(t).ok());
    }))
}

/// `SensorArray::scan_degraded` over a 64-site array, µs per scan.
pub fn scan_degraded_us() -> Result<f64, String> {
    let mut array = runtime::reference_array(64);
    let policy = RuntimeConfig::default().policy;
    array
        .scan_degraded(&field, &policy)
        .map_err(|e| e.to_string())?;
    Ok(per_call_ns(30, 4, |_| {
        std::hint::black_box(array.scan_degraded(&field, &policy).ok());
    }) / 1e3)
}

/// The in-process baseline: `RuntimeHandle::read` closed-loop over the
/// workload's channel sequence.
pub struct ServiceProbe {
    pub read: Hist,
    pub fresh_frac: f64,
    pub degraded_frac: f64,
    pub queue_sheds: u64,
}

pub fn service_probe(sites: usize, seed: u64, reads: usize) -> Result<ServiceProbe, String> {
    let handle = MonitorRuntime::start(
        runtime::reference_array(sites),
        Arc::new(field),
        RuntimeConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut s = Stream::new(seed);
    let mut read = Hist::default();
    for _ in 0..reads {
        let channel = (s.next_u64() % sites as u64) as usize;
        let t = Instant::now();
        match handle.read(channel) {
            Ok(r) => {
                read.record(t.elapsed());
                std::hint::black_box(r);
            }
            Err(_) => read.record_miss(),
        }
    }
    let st = handle.shutdown().map_err(|e| e.to_string())?;
    let n = reads.max(1) as f64;
    Ok(ServiceProbe {
        read,
        fresh_frac: st.served_fresh as f64 / n,
        degraded_frac: st.served_degraded as f64 / n,
        queue_sheds: st.queue_sheds,
    })
}

/// `EffectLog::append` (which fsyncs) on the real filesystem under
/// `dir`, µs per append; the directory is removed afterwards.
pub fn effect_log_append_us(dir: &Path, appends: u64) -> Result<f64, String> {
    let path = dir.join("effects.tefl");
    let result = (|| {
        let (mut log, _) = EffectLog::open(Arc::new(RealFs), &path).map_err(|e| e.to_string())?;
        let mut xs = Vec::new();
        for i in 0..appends {
            let t = Instant::now();
            log.append(1, i, i.wrapping_mul(0x9E37_79B9))
                .map_err(|e| e.to_string())?;
            xs.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if log.len() != appends {
            return Err(format!(
                "effect log holds {} of {appends} records",
                log.len()
            ));
        }
        Ok(median(&xs))
    })();
    let _ = std::fs::remove_dir_all(dir);
    result
}

/// `NonLinearity::of_curve` on a 41-point analytical period curve, µs.
pub fn linearity_fit_us() -> Result<f64, String> {
    let gate = Gate::with_ratio(GateKind::Inv, 1e-6, 2.0).map_err(|e| e.to_string())?;
    let ring = RingOscillator::uniform(gate, 5).map_err(|e| e.to_string())?;
    let curve = ring
        .period_curve(&Technology::um350(), TempRange::paper(), 41)
        .map_err(|e| e.to_string())?;
    Ok(per_call_ns(40, 50, |_| {
        std::hint::black_box(
            NonLinearity::of_curve(std::hint::black_box(&curve), FitKind::LeastSquares).ok(),
        );
    }) / 1e3)
}

/// Fixed horizon of the solver probe: 1000 steps of 2 ps.
const PROBE_HORIZON_S: f64 = 2e-9;

/// `run_transient` at a fixed horizon on each point's elaborated
/// circuit: `(per-run times, total steps)`.
pub fn spicelite_probe(configs: &[CellConfig], temps: &[f64]) -> Result<(Hist, u64), String> {
    let lib = CellLibrary::um350(crate::fig3::LIBRARY_RATIO);
    let opts = TranOptions::to_time(PROBE_HORIZON_S).with_uic();
    let mut runs = Hist::default();
    let mut steps = 0;
    for config in configs {
        let ring = lib.ring_from_config(config).map_err(|e| e.to_string())?;
        for &t in temps {
            let ckt = ring.elaborate(t).map_err(|e| e.to_string())?;
            let start = Instant::now();
            let wave = run_transient(&ckt, &opts).map_err(|e| e.to_string())?;
            runs.record(start.elapsed());
            steps += wave.len() as u64;
        }
    }
    Ok((runs, steps))
}

/// Milliseconds of a duration, for readable metrics.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
