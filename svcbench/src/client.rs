//! The open-loop wire client: one sender thread walks the schedule and
//! writes each request when it falls due, whether or not earlier requests
//! were answered; one receiver thread reads responses and matches them to
//! requests by correlation id. Both run over one in-memory `duplex()`
//! connection using the real wire protocol.

use std::thread;
use std::time::{Duration, Instant};

use priu_server::{
    decode_response, duplex, encode_request, read_frame, write_frame, Request, RequestEnvelope,
    Response, Server,
};

use crate::host::thread_cpu_s;
use crate::workload::{wire_label, Op, Plan, WriteOp};

/// What happened to one scheduled request. Times are nanoseconds since the
/// schedule started.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// When the sender woke to send it (so `sent_ns - due_ns` is how late
    /// the generator ran).
    pub sent_ns: u64,
    /// When the receiver decoded its response; `None` if none arrived.
    pub recv_ns: Option<u64>,
    pub response: Option<Response>,
    /// Traced runs only: client-side `encode_request` / `decode_response`
    /// time, and the in-process `Server::predict` time the sender measured
    /// just before a wire predict.
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub inproc_predict_ns: Option<u64>,
}

/// One pass over the schedule.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Indexed like `Plan::items`.
    pub exchanges: Vec<Exchange>,
    /// CPU seconds of the sender and receiver threads together.
    pub client_cpu_s: f64,
    /// Frames the receiver could not match to a request.
    pub unmatched: u64,
}

/// Sends `plan`'s schedule to `server` over a fresh connection and waits
/// for every response (the connection closes once the server has answered
/// everything the sender wrote).
pub fn drive(server: &Server, plan: &Plan, trace: bool) -> Pass {
    let ((mut client_w, mut client_r), (server_w, server_r)) = duplex();
    let connection = server.serve_connection(server_r, server_w);
    // A short lead so both threads are parked before the first due time.
    let start = Instant::now() + Duration::from_millis(20);
    let n = plan.items.len();

    let ((sent, sender_cpu), (received, unmatched, receiver_cpu)) = thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let cpu0 = thread_cpu_s();
            let mut sent = Vec::with_capacity(n);
            for (id, item) in plan.items.iter().enumerate() {
                let due = start + Duration::from_nanos(item.due_ns);
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let woke = Instant::now();
                let session = &plan.sessions[item.session];
                let inproc_predict_ns = (trace && item.op == Op::Predict).then(|| {
                    let t0 = Instant::now();
                    let prediction = server.predict(&session.name, &session.probe);
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    std::hint::black_box(prediction).ok();
                    elapsed
                });
                let request = match &item.op {
                    Op::Predict => Request::Predict {
                        session: session.name.clone(),
                        features: session.probe.clone(),
                    },
                    Op::Write(WriteOp::Delete { id }) => Request::Delete {
                        session: session.name.clone(),
                        ids: vec![*id],
                    },
                    Op::Write(WriteOp::Tick { row, keep_last }) => {
                        let holdout = session
                            .holdout
                            .as_ref()
                            .expect("tick workloads carry a holdout");
                        Request::Tick {
                            session: session.name.clone(),
                            num_features: holdout.num_features() as u32,
                            features: holdout.x.row(*row).to_vec(),
                            labels: vec![wire_label(&holdout.labels, *row)],
                            keep_last: *keep_last,
                        }
                    }
                };
                let t0 = Instant::now();
                let payload = encode_request(&RequestEnvelope {
                    id: id as u64,
                    request,
                });
                let encode_ns = if trace {
                    t0.elapsed().as_nanos() as u64
                } else {
                    0
                };
                // The pipe is unbounded, so a slow server never blocks the
                // sender: the schedule stays open-loop.
                write_frame(&mut client_w, &payload).expect("in-memory pipe accepts writes");
                sent.push((since(start, woke), encode_ns, inproc_predict_ns));
            }
            // Closing our half tells the server no more requests follow;
            // it drains outstanding tickets and then closes its half.
            drop(client_w);
            let cpu = cpu_delta(cpu0, thread_cpu_s());
            (sent, cpu)
        });
        let receiver = scope.spawn(|| {
            let cpu0 = thread_cpu_s();
            let mut received: Vec<Option<(u64, Response, u64)>> = vec![None; n];
            let mut unmatched = 0u64;
            while let Ok(Some(frame)) = read_frame(&mut client_r) {
                let t0 = Instant::now();
                let decoded = decode_response(&frame);
                let decode_ns = if trace {
                    t0.elapsed().as_nanos() as u64
                } else {
                    0
                };
                let at = since(start, Instant::now());
                match decoded {
                    Ok(envelope) => match received.get_mut(envelope.id as usize) {
                        Some(slot @ None) => *slot = Some((at, envelope.response, decode_ns)),
                        _ => unmatched += 1,
                    },
                    Err(_) => unmatched += 1,
                }
            }
            (received, unmatched, cpu_delta(cpu0, thread_cpu_s()))
        });
        let (sent, sender_cpu) = sender.join().expect("sender thread");
        let (received, unmatched, receiver_cpu) = receiver.join().expect("receiver thread");
        ((sent, sender_cpu), (received, unmatched, receiver_cpu))
    });
    connection.join();

    let exchanges = sent
        .into_iter()
        .zip(received)
        .map(|((sent_ns, encode_ns, inproc_predict_ns), got)| {
            let (recv_ns, response, decode_ns) = match got {
                Some((at, response, decode_ns)) => (Some(at), Some(response), decode_ns),
                None => (None, None, 0),
            };
            Exchange {
                sent_ns,
                recv_ns,
                response,
                encode_ns,
                decode_ns,
                inproc_predict_ns,
            }
        })
        .collect();
    Pass {
        exchanges,
        client_cpu_s: sender_cpu + receiver_cpu,
        unmatched,
    }
}

fn since(start: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(start).as_nanos() as u64
}

fn cpu_delta(before: Option<f64>, after: Option<f64>) -> f64 {
    match (before, after) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    }
}
