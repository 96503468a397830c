//! The `channel` probe: drives `common::channel` directly, at
//! `trace_stream`'s record volume and flush-buffer size, to time push and
//! drain without the simulator around them.

use common::channel::{Backpressure, ChannelHost, Record};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the probe measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeOut {
    /// Median over producers of host nanoseconds per `push`.
    pub push_ns: f64,
    /// Median interval between consecutive consumer batches, in
    /// microseconds: the time to fill, flip and drain one flush buffer.
    pub drain_batch_us: f64,
    /// Records delivered to the consumer.
    pub delivered: u64,
    /// Records demanded.
    pub demanded: u64,
}

/// Pushes `records` records from `producers` threads through a
/// `buf_records`-record channel under `Backpressure::Block`, with a
/// consumer that stores every batch as the trace tool does.
pub fn run(records: u64, buf_records: usize, producers: usize) -> ProbeOut {
    let producers = producers.max(1);
    let store: Arc<Mutex<Vec<Record>>> = Arc::new(Mutex::new(Vec::new()));
    let arrivals: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
    let (sink, times) = (store.clone(), arrivals.clone());
    let (host, dev) = ChannelHost::spawn(
        buf_records,
        Backpressure::Block,
        Box::new(move |batch| {
            times.lock().expect("probe arrival log").push(Instant::now());
            sink.lock().expect("probe store").extend_from_slice(batch);
        }),
    );
    let per = records / producers as u64;
    let per_push: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let dev = dev.clone();
                s.spawn(move || {
                    let t = Instant::now();
                    for i in 0..per {
                        dev.push(p as u64, std::hint::black_box(i));
                    }
                    t.elapsed().as_nanos() as f64 / per.max(1) as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("probe producer")).collect()
    });
    dev.flush();
    let demanded = host.demanded();
    let delivered = host.delivered();
    host.shutdown();
    let arrivals = arrivals.lock().expect("probe arrival log");
    let gaps: Vec<f64> = arrivals.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e6).collect();
    ProbeOut {
        push_ns: crate::stats::median(&per_push).unwrap_or(0.0),
        drain_batch_us: crate::stats::median(&gaps).unwrap_or(0.0),
        delivered,
        demanded,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe_delivers_every_record() {
        let out = super::run(20_000, 64, 2);
        assert_eq!(out.demanded, 20_000);
        assert_eq!(out.delivered, 20_000);
        assert!(out.push_ns > 0.0 && out.drain_batch_us > 0.0);
    }
}
