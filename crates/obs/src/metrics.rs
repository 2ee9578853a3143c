//! Machine-readable metrics export: histograms, windowed series, and
//! ring accounting as one JSON document.

use vmp_sim::Log2Histogram;
use vmp_types::Nanos;

use crate::attrib::attrib_json;
use crate::json::Value;
use crate::recorder::MachineObs;
use crate::series::TimeSeries;

/// Hottest pages embedded per report; the rest are counted in
/// `pages_omitted`.
const METRICS_TOP_PAGES: usize = 64;

/// Renders a histogram as JSON: summary statistics plus the non-empty
/// buckets (with their half-open `[lo_ns, hi_ns)` bounds).
pub fn histogram_json(h: &Log2Histogram) -> Value {
    let mut buckets = Vec::new();
    for i in 0..h.buckets() {
        let c = h.bucket_count(i);
        if c > 0 {
            let (lo, hi) = h.bucket_bounds(i);
            buckets.push(
                Value::obj().set("lo_ns", lo.as_ns()).set("hi_ns", hi.as_ns()).set("count", c),
            );
        }
    }
    Value::obj()
        .set("count", h.count())
        .set("mean_ns", h.mean().as_ns())
        .set("max_ns", h.max().as_ns())
        .set("p50_ns", h.percentile(0.50).as_ns())
        .set("p90_ns", h.percentile(0.90).as_ns())
        .set("p99_ns", h.percentile(0.99).as_ns())
        .set("overflow", h.overflow())
        .set("buckets", buckets)
}

fn series_json(s: &TimeSeries) -> Value {
    Value::Arr(s.fractions().into_iter().map(Value::Num).collect())
}

/// Per-window efficiency `useful / (useful + stall)`; windows with no
/// attributed activity are `null` (idle, not efficient or inefficient).
fn efficiency_json(useful: &TimeSeries, stall: &TimeSeries) -> Value {
    let windows = useful.windows().max(stall.windows());
    let mut out = Vec::with_capacity(windows);
    for i in 0..windows {
        let u = useful.total(i).as_ns() as f64;
        let s = stall.total(i).as_ns() as f64;
        out.push(if u + s == 0.0 { Value::Null } else { Value::Num(u / (u + s)) });
    }
    Value::Arr(out)
}

/// Renders the recorder's derived metrics as one JSON document.
pub fn metrics_json(obs: &MachineObs, elapsed: Nanos) -> Value {
    let mut processors = Vec::new();
    for cpu in 0..obs.processors() {
        processors.push(
            Value::obj()
                .set("useful_frac", series_json(obs.cpu_useful(cpu)))
                .set("stall_frac", series_json(obs.cpu_stall(cpu)))
                .set("efficiency", efficiency_json(obs.cpu_useful(cpu), obs.cpu_stall(cpu)))
                .set(
                    "events",
                    Value::obj()
                        .set("recorded", obs.cpu_recorded(cpu))
                        .set("dropped", obs.cpu_dropped(cpu)),
                ),
        );
    }
    let mut doc = Value::obj()
        .set("elapsed_ns", elapsed.as_ns())
        .set("window_ns", obs.window().as_ns())
        .set(
            "histograms",
            Value::obj()
                .set("miss_service_ns", histogram_json(&obs.miss_service))
                .set("irq_latency_ns", histogram_json(&obs.irq_latency))
                .set("arb_wait_ns", histogram_json(&obs.arb_wait)),
        )
        .set("bus_utilization", series_json(obs.bus_utilization()))
        .set(
            "bus_events",
            Value::obj().set("recorded", obs.bus_recorded()).set("dropped", obs.bus_dropped()),
        )
        .set("processors", processors);
    if let Some(attrib) = obs.attrib() {
        doc = doc.set("attrib", attrib_json(attrib, METRICS_TOP_PAGES));
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, MissCause, Probe};
    use crate::json::parse;
    use crate::recorder::ObsConfig;
    use vmp_types::{Asid, FrameNum, ProcessorId, VirtPageNum};

    #[test]
    fn metrics_document_shape() {
        let mut obs = MachineObs::new(&ObsConfig::on(), 2);
        let (asid, vpn) = (Asid::new(1), VirtPageNum::new(4));
        for us in [17, 36] {
            let (at, dur) = (Nanos::from_us(us), Nanos::from_us(us));
            obs.record(Probe::Served { cpu: 0, at, cause: MissCause::Read, asid, vpn, dur });
        }
        let copier = EventKind::Copier {
            frame: FrameNum::new(4),
            issuer: ProcessorId::new(2),
            wait: Nanos::from_ns(100),
            dur: Nanos::from_ns(600),
            write: true,
        };
        obs.record(Probe::Bus(Nanos::ZERO, copier));
        let (now, bus_busy) = (Nanos::from_us(10), Nanos::from_us(3));
        let cpus = [(Nanos::from_us(6), Nanos::from_us(2)), (Nanos::ZERO, Nanos::ZERO)];
        obs.record(Probe::Sample { now, bus_busy, cpus: &cpus });

        let text = metrics_json(&obs, Nanos::from_ms(2)).to_string();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("elapsed_ns").unwrap().as_u64(), Some(2_000_000));
        assert_eq!(doc.get("window_ns").unwrap().as_u64(), Some(1_000_000));

        let h = doc.get("histograms").unwrap();
        let miss = h.get("miss_service_ns").unwrap();
        assert_eq!(miss.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(miss.get("overflow").unwrap().as_u64(), Some(0));
        let buckets = miss.get("buckets").unwrap().as_arr().unwrap();
        assert!(!buckets.is_empty());
        for b in buckets {
            assert!(b.get("lo_ns").unwrap().as_u64() < b.get("hi_ns").unwrap().as_u64());
        }
        assert!(h.get("irq_latency_ns").is_some());
        assert!(h.get("arb_wait_ns").is_some());

        let cpus = doc.get("processors").unwrap().as_arr().unwrap();
        assert_eq!(cpus.len(), 2);
        let eff = cpus[0].get("efficiency").unwrap().as_arr().unwrap();
        assert!((eff[0].as_f64().unwrap() - 0.75).abs() < 1e-12);
        // CPU 1 saw no activity: no windows at all.
        assert!(cpus[1].get("efficiency").unwrap().as_arr().unwrap().is_empty());
        assert_eq!(cpus[0].get("events").unwrap().get("dropped").unwrap().as_u64(), Some(0));

        let util = doc.get("bus_utilization").unwrap().as_arr().unwrap();
        assert!((util[0].as_f64().unwrap() - 0.003).abs() < 1e-12);
    }

    #[test]
    fn efficiency_null_for_idle_windows() {
        let mut obs = MachineObs::new(&ObsConfig::on(), 1);
        // Activity only in window 2.
        let now = Nanos::from_ms(2) + Nanos::from_us(1);
        let useful = Nanos::from_us(5);
        obs.record(Probe::Sample { now, bus_busy: Nanos::ZERO, cpus: &[(useful, Nanos::ZERO)] });
        let doc = parse(&metrics_json(&obs, Nanos::from_ms(3)).to_string()).unwrap();
        let eff =
            doc.get("processors").unwrap().as_arr().unwrap()[0].get("efficiency").unwrap().clone();
        let eff = eff.as_arr().unwrap().to_vec();
        assert_eq!(eff.len(), 3);
        assert_eq!(eff[0], Value::Null);
        assert_eq!(eff[1], Value::Null);
        assert_eq!(eff[2].as_f64(), Some(1.0));
    }
}
