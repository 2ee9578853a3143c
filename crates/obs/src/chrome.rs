//! Chrome trace-event export: one track per processor plus one for the
//! bus, viewable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! The exporter emits the JSON Object Format (`{"traceEvents": [...]}`)
//! with `B`/`E` duration events for the span-shaped records, `X`
//! complete events for records that carry their own duration, and `i`
//! instants for the rest. Timestamps are microseconds (the format's
//! unit); sub-microsecond precision survives as fractional `ts`.

use crate::event::EventKind;
use crate::json::Value;
use crate::recorder::MachineObs;

fn us(ns: vmp_types::Nanos) -> Value {
    Value::Num(ns.as_ns() as f64 / 1000.0)
}

fn base(name: impl Into<Value>, cat: &str, ph: &str, tid: usize, ts: vmp_types::Nanos) -> Value {
    Value::obj()
        .set("name", name)
        .set("cat", cat)
        .set("ph", ph)
        .set("pid", 0u64)
        .set("tid", tid)
        .set("ts", us(ts))
}

fn thread_meta(tid: usize, name: &str, sort_index: usize) -> Vec<Value> {
    vec![
        Value::obj()
            .set("name", "thread_name")
            .set("ph", "M")
            .set("pid", 0u64)
            .set("tid", tid)
            .set("args", Value::obj().set("name", name)),
        Value::obj()
            .set("name", "thread_sort_index")
            .set("ph", "M")
            .set("pid", 0u64)
            .set("tid", tid)
            .set("args", Value::obj().set("sort_index", sort_index)),
    ]
}

/// Renders the recorder's tracks as a Chrome trace-event document.
pub fn chrome_trace(obs: &MachineObs) -> Value {
    let mut events = Vec::new();
    events.push(
        Value::obj()
            .set("name", "process_name")
            .set("ph", "M")
            .set("pid", 0u64)
            .set("tid", 0u64)
            .set("args", Value::obj().set("name", "vmp-machine")),
    );
    for cpu in 0..obs.processors() {
        events.extend(thread_meta(cpu, &format!("cpu{cpu}"), cpu));
    }
    let bus_tid = obs.processors();
    events.extend(thread_meta(bus_tid, "bus", bus_tid));

    for cpu in 0..obs.processors() {
        for e in obs.cpu_events(cpu) {
            events.push(render(e, cpu));
        }
    }
    for e in obs.bus_events() {
        events.push(render(e, bus_tid));
    }

    Value::obj().set("traceEvents", events).set("displayTimeUnit", "ns").set(
        "otherData",
        Value::obj().set("dropped_events", obs.total_dropped()).set("source", "vmp-obs"),
    )
}

fn render(e: &crate::event::Event, tid: usize) -> Value {
    match e.kind {
        EventKind::MissBegin { cause } => {
            base(format!("miss({})", cause.label()), "miss", "B", tid, e.at)
        }
        EventKind::MissEnd { cause, completed } => {
            base(format!("miss({})", cause.label()), "miss", "E", tid, e.at)
                .set("args", Value::obj().set("completed", completed))
        }
        EventKind::WriteBack { frame } => base("write-back", "cache", "i", tid, e.at)
            .set("s", "t")
            .set("args", Value::obj().set("frame", frame.raw())),
        EventKind::Retry { streak } => base("retry", "miss", "i", tid, e.at)
            .set("s", "t")
            .set("args", Value::obj().set("streak", streak)),
        EventKind::IrqBegin { pending, .. } => base("irq-service", "irq", "B", tid, e.at)
            .set("args", Value::obj().set("pending", pending)),
        EventKind::IrqEnd { serviced } => base("irq-service", "irq", "E", tid, e.at)
            .set("args", Value::obj().set("serviced", serviced)),
        EventKind::FifoOverflow => base("fifo-overflow", "irq", "i", tid, e.at).set("s", "t"),
        EventKind::FifoRecovery { dur, scanned } => base("fifo-recovery", "irq", "X", tid, e.at)
            .set("dur", us(dur))
            .set("args", Value::obj().set("scanned", scanned)),
        EventKind::BusTx { kind, frame, issuer, wait, dur, aborted } => {
            base(kind.label(), "bus", "X", tid, e.at).set("dur", us(dur)).set(
                "args",
                Value::obj()
                    .set("frame", frame.raw())
                    .set("issuer", issuer.index())
                    .set("wait_ns", wait.as_ns())
                    .set("aborted", aborted),
            )
        }
        EventKind::Copier { frame, issuer, dur, write, .. } => {
            base("copier", "dma", "X", tid, e.at).set("dur", us(dur)).set(
                "args",
                Value::obj()
                    .set("frame", frame.raw())
                    .set("issuer", issuer.index())
                    .set("write", write),
            )
        }
        EventKind::Fault { class } => base(class.label(), "fault", "i", tid, e.at).set("s", "t"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, MissCause, Probe};
    use crate::json::parse;
    use crate::recorder::ObsConfig;
    use vmp_bus::{BusTxKind, FaultClass};
    use vmp_types::{FrameNum, Nanos, ProcessorId};

    #[test]
    fn trace_has_tracks_and_parses() {
        let mut obs = MachineObs::new(&ObsConfig::on(), 2);
        let mut cpu = |cpu, ns, kind| obs.record(Probe::Cpu(cpu, Nanos::from_ns(ns), kind));
        cpu(0, 100, EventKind::MissBegin { cause: MissCause::Read });
        cpu(0, 17_100, EventKind::MissEnd { cause: MissCause::Read, completed: true });
        cpu(1, 50, EventKind::Retry { streak: 1 });
        cpu(1, 60, EventKind::FifoOverflow);
        cpu(1, 70, EventKind::FifoRecovery { dur: Nanos::from_ns(400), scanned: 32 });
        cpu(1, 80, EventKind::IrqBegin { pending: 2, waited: None });
        cpu(1, 90, EventKind::IrqEnd { serviced: 2 });
        cpu(1, 95, EventKind::WriteBack { frame: FrameNum::new(7) });
        let mut bus = |ns, kind| obs.record(Probe::Bus(Nanos::from_ns(ns), kind));
        bus(
            200,
            EventKind::BusTx {
                kind: BusTxKind::ReadShared,
                frame: FrameNum::new(3),
                issuer: ProcessorId::new(0),
                wait: Nanos::from_ns(100),
                dur: Nanos::from_ns(6600),
                aborted: false,
            },
        );
        bus(
            9000,
            EventKind::Copier {
                frame: FrameNum::new(4),
                issuer: ProcessorId::new(8),
                wait: Nanos::ZERO,
                dur: Nanos::from_ns(6600),
                write: true,
            },
        );
        bus(9100, EventKind::Fault { class: FaultClass::InjectedAbort });

        let text = chrome_trace(&obs).to_string();
        let doc = parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process meta + 3 tracks x 2 meta + 8 cpu + 3 bus events.
        assert_eq!(events.len(), 1 + 6 + 8 + 3);

        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["cpu0", "cpu1", "bus"]);

        // Span delimiters balance per track.
        for tid in 0..3u64 {
            let b = events
                .iter()
                .filter(|e| e.get("tid").unwrap().as_u64() == Some(tid))
                .filter(|e| e.get("ph").unwrap().as_str() == Some("B"))
                .count();
            let end = events
                .iter()
                .filter(|e| e.get("tid").unwrap().as_u64() == Some(tid))
                .filter(|e| e.get("ph").unwrap().as_str() == Some("E"))
                .count();
            assert_eq!(b, end, "tid {tid}");
        }

        // Timestamps are microseconds: the 17.1 us miss end.
        let miss_end = events
            .iter()
            .find(|e| {
                e.get("ph").unwrap().as_str() == Some("E")
                    && e.get("tid").unwrap().as_u64() == Some(0)
            })
            .unwrap();
        assert!((miss_end.get("ts").unwrap().as_f64().unwrap() - 17.1).abs() < 1e-9);
        assert_eq!(miss_end.get("args").unwrap().get("completed"), Some(&Value::Bool(true)));

        assert_eq!(doc.get("otherData").unwrap().get("dropped_events").unwrap().as_u64(), Some(0));
    }
}
